"""Argparse command line over the library.

Data utilities (`ingest`, `embed`, `cluster`, `project`, `split`) take
explicit paths; experiment commands (`train`, `eval`, `report`, `run`,
`predict-reward`, `chat`, `plot`) are driven by a JSON config file. Seed
precedence: --seed flag, then the CHATDQN_SEED environment variable, then
the config file. Exit code 0 on success; failures print the failing stage
or error and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import experiment
from .clustering import (
    dialogue_vectors,
    fit,
    load_cluster_model,
    pca_project,
    save_cluster_model,
)
from .corpus import (
    corpus_stats,
    ingest_personachat,
    load_corpus,
    save_corpus,
    save_splits,
    split_corpus,
)
from .embeddings import embed_corpus, load_embeddings, tokenize
from .experiment import (
    ExperimentConfig,
    StageError,
    dialogue_cluster_rng,
    load_experiment_config,
    reward_study,
    run_experiment,
    sentence_cluster_rng,
    train_single,
)

__all__ = ["main"]


def _load_cfg(args) -> ExperimentConfig:
    """The config with the --seed and --out overrides, each checked as the
    config file's own value is."""
    cfg = load_experiment_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _cmd_ingest(args) -> int:
    if args.from_format != "personachat":
        print(f"error: unknown ingest format {args.from_format!r}", file=sys.stderr)
        return 1
    corpus = ingest_personachat(args.infile)
    save_corpus(corpus, args.outfile)
    print(json.dumps(corpus_stats(corpus), sort_keys=True))
    return 0


def _cmd_embed(args) -> int:
    table = load_embeddings(args.embeddings, args.dim)
    out = {"tokens": len(table), "dim": table.dim}
    if args.corpus:
        corpus = load_corpus(args.corpus)
        total = known = all_oov = 0
        for d in corpus:
            for t in d.turns:
                toks = tokenize(t.text)
                total += len(toks)
                hits = sum(1 for tok in toks if tok in table)
                known += hits
                if toks and hits == 0:
                    all_oov += 1
        out.update(
            corpus_tokens=total,
            coverage=(known / total) if total else 0.0,
            all_oov_sentences=all_oov,
        )
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_cluster(args) -> int:
    corpus = load_corpus(args.corpus)
    vectors, offsets = embed_corpus(corpus, load_embeddings(args.embeddings, args.dim))
    if args.what == "sentences":
        points, rng = vectors, sentence_cluster_rng(args.seed, args.dim)
    else:
        points, rng = dialogue_vectors(vectors, offsets), dialogue_cluster_rng(args.seed)
    model = fit(points, args.k, rng=rng)
    save_cluster_model(model, args.out, extra={"seed": args.seed})
    print(f"{args.what}: k={model.k} dim={model.dim} inertia={model.inertia:.6f} -> {args.out}")
    return 0


def _cmd_project(args) -> int:
    table = load_embeddings(args.embeddings, args.dim)
    if args.what == "centroids":
        if not args.clusters:
            print("error: --what centroids needs --clusters", file=sys.stderr)
            return 1
        points = load_cluster_model(args.clusters).centroids
    elif not args.corpus:
        print(f"error: --what {args.what} needs --corpus", file=sys.stderr)
        return 1
    else:
        vectors, offsets = embed_corpus(load_corpus(args.corpus), table)
        points = vectors if args.what == "sentences" else dialogue_vectors(vectors, offsets)
    XY = pca_project(points, out_dim=2)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in XY:
            fh.write(f"{x:.6f},{y:.6f}\n")
    print(f"{len(XY)} points -> {args.out}")
    return 0


def _cmd_split(args) -> int:
    corpus = load_corpus(args.corpus)
    points = dialogue_vectors(*embed_corpus(corpus, load_embeddings(args.embeddings, args.dim)))
    model = fit(points, args.k, rng=dialogue_cluster_rng(args.seed))
    splits = split_corpus(corpus, model, points)
    save_splits(splits, args.out, extra={"seed": args.seed})
    if args.model_out:
        save_cluster_model(model, args.model_out, extra={"seed": args.seed})
    sizes = [len(s.dialogue_ids) for s in splits]
    print(f"{len(splits)} splits, sizes {sizes} -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    overrides = {}
    if args.k is not None:
        overrides["n_actions"] = args.k
    if args.steps is not None:
        overrides["learn_steps"] = args.steps
    if overrides:
        cfg.agent = replace(cfg.agent, **overrides)
    rdir = train_single(cfg, args.dim, args.split, log=print)
    print(rdir)
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    result = experiment.evaluate_checkpoint(cfg, args.checkpoint, args.dialogues)
    print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    out = run_experiment(cfg, log=print, until=args.until)
    print(out)
    return 0


def _cmd_report(args) -> int:
    cfg = _load_cfg(args)
    out = run_experiment(cfg, log=None)
    with open(f"{out}/report.csv", "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_predict_reward(args) -> int:
    out_path = args.out
    args.out = None  # --out is the CSV path here, not an out_dir override
    cfg = _load_cfg(args)
    if args.runs is not None:
        cfg.predictor = replace(cfg.predictor, runs=args.runs)
    lengths = tuple(int(x) for x in args.lengths.split(","))
    rows = reward_study(cfg, out_path=out_path, lengths=lengths, log=print)
    best = max(rows, key=lambda r: r.mean_r)
    print(f"best h={best.h} (mean r={best.mean_r:.4f})")
    return 0


def _cmd_chat(args) -> int:
    cfg = _load_cfg(args)
    path = experiment.chat_checkpoint(cfg, args.checkpoint, args.transcript)
    print(f"transcript -> {path}")
    return 0


def _cmd_plot(args) -> int:
    cpath, spath = experiment.emit_learning_curve(args.run_dir)
    print(cpath)
    print(spath)
    return 0


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (beats CHATDQN_SEED)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chatdqn",
        description="Cluster-action chitchat RL: data prep, training, evaluation, reports.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ingest", help="convert a parl.ai text export to JSONL")
    q.add_argument("--from", dest="from_format", default="personachat")
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(func=_cmd_ingest)

    q = sub.add_parser("embed", help="load an embedding table; report corpus coverage")
    q.add_argument("--embeddings", required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--corpus")
    q.set_defaults(func=_cmd_embed)

    q = sub.add_parser("cluster", help="fit k-means over sentence or dialogue vectors")
    q.add_argument("what", choices=("sentences", "dialogues"))
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--corpus", required=True)
    q.add_argument("--embeddings", required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_cluster)

    q = sub.add_parser("project", help="2-D PCA projection, written as x,y CSV rows")
    q.add_argument("--what", choices=("sentences", "dialogues", "centroids"),
                   default="sentences")
    q.add_argument("--corpus")
    q.add_argument("--clusters")
    q.add_argument("--embeddings", required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_project)

    q = sub.add_parser("split", help="partition dialogues by dialogue-vector cluster")
    q.add_argument("--k", type=int, default=20)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--corpus", required=True)
    q.add_argument("--embeddings", required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--model-out")
    q.set_defaults(func=_cmd_split)

    q = sub.add_parser("train", help="train one agent on one data split")
    q.add_argument("--config", required=True)
    q.add_argument("--split", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--k", type=int, default=None, help="override action count")
    q.add_argument("--steps", type=int, default=None, help="override learn steps")
    q.add_argument("--out", default=None, help="override the output directory")
    _add_seed(q)
    q.set_defaults(func=_cmd_train)

    q = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    q.add_argument("--config", required=True)
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--dialogues", required=True,
                   help="'train', 'test', or a JSONL corpus path")
    _add_seed(q)
    q.set_defaults(func=_cmd_eval)

    q = sub.add_parser("run", help="run (or resume) the full experiment pipeline")
    q.add_argument("--config", required=True)
    q.add_argument("--out", default=None)
    q.add_argument("--until", default=None, choices=experiment.STAGES)
    _add_seed(q)
    q.set_defaults(func=_cmd_run)

    q = sub.add_parser("report", help="complete the pipeline and print report.csv")
    q.add_argument("--config", required=True)
    q.add_argument("--out", default=None)
    _add_seed(q)
    q.set_defaults(func=_cmd_report)

    q = sub.add_parser("predict-reward", help="reward-regression history-length study")
    q.add_argument("action", choices=("study",))
    q.add_argument("--config", required=True)
    q.add_argument("--lengths", default="1,5,10,25,35,50")
    q.add_argument("--runs", type=int, default=None)
    q.add_argument("--out", default=None)
    _add_seed(q)
    q.set_defaults(func=_cmd_predict_reward)

    q = sub.add_parser("chat", help="interactive session against a trained policy")
    q.add_argument("--config", required=True)
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--transcript", default="transcript.jsonl")
    _add_seed(q)
    q.set_defaults(func=_cmd_chat)

    q = sub.add_parser("plot", help="emit curve.csv and curve.svg for a run directory")
    q.add_argument("--run-dir", required=True)
    q.set_defaults(func=_cmd_plot)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
