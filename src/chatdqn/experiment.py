"""Seeded end-to-end experiment pipeline and report emission.

Stages: ingest -> embed -> cluster_sentences -> cluster_dialogues -> split
-> train -> evaluate -> report -> compare. Each stage leaves a marker file
carrying the config hash, as do a run's `done.json`, `report.json` and
`evals.json`. One freshness read (`_fresh`) opens all of them: a missing
file means "not done", a file with the current hash means "done" (re-running
it is a no-op, so a failed run resumes from its partial artifacts), and a
file with another config's hash refuses the run. Any stage failure is
re-raised as StageError naming the stage.

The dialogues come in two roles, each with its own corpus and splits file
(`_ROLES`): "train", the config's `corpus` or `ingest_from`, and "test",
its optional `test_corpus`, held out from training and split by the same
dialogue clusters. Ingest, split, evaluate, report and compare run once
per role.

Every JSON artifact is written by `checkpoint.write_json` and every other
file through `checkpoint.atomic_write`, so a write that fails halfway
leaves the previous file. Reports, checkpoints, and markers never contain
wall-clock values, so a rerun with the same config and seed reproduces
every artifact byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .agent import AgentConfig, evaluate, train
from .checkpoint import atomic_write, load_qnetwork, read_json, save_agent_checkpoint, write_json
from .clustering import (
    dialogue_vectors,
    fit,
    load_cluster_model,
    save_cluster_model,
)
from .corpus import (
    Corpus,
    DataSplit,
    ingest_personachat,
    load_corpus,
    load_splits,
    require_field_types,
    save_corpus,
    save_splits,
    split_corpus,
    stable_seed,
)
from .embeddings import embed_corpus, load_embeddings
from .environment import baseline_bounds
from .repl import chat_repl
from .reward_predictor import (
    HISTORY_LENGTHS,
    PredictorConfig,
    history_length_study,
)
from .stats import wilcoxon_signed_rank

__all__ = [
    "ExperimentConfig",
    "StageError",
    "STAGES",
    "config_hash",
    "save_experiment_config",
    "load_experiment_config",
    "run_experiment",
    "train_single",
    "evaluate_checkpoint",
    "chat_checkpoint",
    "emit_learning_curve",
    "reward_study",
]

SEED_ENV_VAR = "CHATDQN_SEED"


class StageError(RuntimeError):
    """A pipeline stage failed; `.stage` names it for the CLI exit message."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentConfig:
    """Everything one run needs; round-trips losslessly through JSON.

    Exactly one of `corpus` (internal JSONL) or `ingest_from` (parl.ai text
    export) must be set. `embeddings` maps embedding size -> table path; the
    smallest size drives dialogue clustering so the data splits are shared
    across sizes (paired comparisons need identical split membership).
    """

    corpus: str | None = None
    ingest_from: str | None = None
    test_corpus: str | None = None
    embeddings: dict = field(default_factory=dict)  # dim (int) -> path
    out_dir: str = "run"
    k_splits: int = 20
    agent: AgentConfig = field(default_factory=AgentConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    seed: int = 0

    def __post_init__(self):
        if (self.corpus is None) == (self.ingest_from is None):
            raise ValueError("set exactly one of corpus / ingest_from")
        if not self.embeddings:
            raise ValueError("at least one embedding table is required")
        require_field_types(self)
        if self.k_splits < 1:
            raise ValueError("k_splits must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def dims(self) -> tuple:
        return tuple(sorted(int(d) for d in self.embeddings))

    def to_dict(self) -> dict:
        d = {"version": 1, **{f.name: getattr(self, f.name) for f in fields(self)}}
        d["embeddings"] = {str(k): v for k, v in sorted(self.embeddings.items())}
        d["agent"], d["predictor"] = vars(self.agent).copy(), vars(self.predictor).copy()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a `to_dict` dict; a missing key takes its default."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        emb = d.get("embeddings", {})
        if not isinstance(emb, dict) or not all(isinstance(p, str) for p in emb.values()):
            raise ValueError("config embeddings must be a JSON object of dim -> path string")
        if d.get("version") != 1:
            raise ValueError(f"unsupported config version: {d.get('version')!r}")
        kwargs = {k: v for k, v in d.items() if k != "version"}
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            kwargs["agent"] = AgentConfig(**d.get("agent", {}))
            kwargs["predictor"] = PredictorConfig(**d.get("predictor", {}))
        except TypeError as exc:
            raise ValueError(f"bad agent/predictor config: {exc}") from None
        kwargs["embeddings"] = {_embedding_dim(k): v for k, v in emb.items()}
        return cls(**kwargs)


def _embedding_dim(key) -> int:
    """A config `embeddings` key as an embedding size: a positive integer."""
    try:
        dim = int(key)
    except (TypeError, ValueError):
        dim = 0
    if dim < 1:
        raise ValueError(f"config embeddings key must be a positive integer "
                         f"embedding size, got {key!r}")
    return dim


def config_hash(cfg: ExperimentConfig) -> str:
    """First 16 hex chars of the sha256 of the canonical config JSON.

    out_dir is excluded: where artifacts land is plumbing, not experiment
    identity, so the same inputs+seed hash identically in any directory.
    """
    d = cfg.to_dict()
    d.pop("out_dir", None)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def save_experiment_config(cfg: ExperimentConfig, path: str) -> None:
    write_json(path, cfg.to_dict())


def load_experiment_config(path: str) -> ExperimentConfig:
    """Load, validate referenced paths, and apply the CHATDQN_SEED override."""
    cfg = ExperimentConfig.from_dict(read_json(path))
    if os.environ.get(SEED_ENV_VAR):
        raw = os.environ[SEED_ENV_VAR]
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
        cfg = replace(cfg, seed=seed)  # checked as a config seed is
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    for name in ("corpus", "ingest_from", "test_corpus"):
        p = getattr(cfg, name)
        if p is not None:
            p = resolve(p)
            setattr(cfg, name, p)
            if not os.path.exists(p):
                raise ValueError(f"config {name} path does not exist: {p}")
    emb = {}
    for dim, p in cfg.embeddings.items():
        p = resolve(p)
        if not os.path.exists(p):
            raise ValueError(f"embedding table for dim {dim} does not exist: {p}")
        emb[dim] = p
    cfg.embeddings = emb
    cfg.out_dir = resolve(cfg.out_dir)
    return cfg


# ---------------------------------------------------------------------------
# stage plumbing


# role -> (corpus file, splits file) in out_dir. "train" is read from the
# config's corpus or ingest_from, "test" from its test_corpus when it has one.
_ROLES = {
    "train": ("corpus.jsonl", "splits.json"),
    "test": ("test_corpus.jsonl", "test_splits.json"),
}


@dataclass(eq=False)
class _Context:
    cfg: ExperimentConfig
    h: str
    out: str
    log: object = None
    corpora: dict = field(default_factory=dict)     # role -> Corpus
    tables: dict = field(default_factory=dict)      # dim -> WordEmbeddingTable
    embedded: dict = field(default_factory=dict)    # (role, dim) -> embed_corpus
    smodels: dict = field(default_factory=dict)     # dim -> sentence ClusterModel
    dmodel: object = None                           # dialogue ClusterModel
    splits: dict = field(default_factory=dict)      # role -> [DataSplit]
    trained: list = field(default_factory=list)     # [dim, split_id] pairs
    skipped: list = field(default_factory=list)


def _say(ctx: _Context, msg: str) -> None:
    if ctx.log is not None:
        ctx.log(msg)


def _fresh(ctx: _Context, path: str) -> dict | None:
    """The one freshness read of stage markers and run files: None when
    `path` is missing, its contents when it carries the config hash. A file
    with another config's hash refuses the run."""
    if not os.path.exists(path):
        return None
    payload = read_json(path)
    found = payload.get("config_hash")
    if found != ctx.h:
        raise ValueError(
            f"{os.path.relpath(path, ctx.out)}: output dir holds artifacts for config "
            f"{found!r}, current config is {ctx.h!r}; use a fresh --out directory"
        )
    return payload


def _marker_path(out: str, stage: str) -> str:
    return os.path.join(out, f"{stage}.done.json")


def _marker_ok(ctx: _Context, stage: str) -> bool:
    return _fresh(ctx, _marker_path(ctx.out, stage)) is not None


def _write_marker(ctx: _Context, stage: str, **extra) -> None:
    write_json(_marker_path(ctx.out, stage), {"stage": stage, "config_hash": ctx.h, **extra})


def _run_stage(name: str, fn) -> None:
    try:
        fn()
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# stages


def _read_input(cfg: ExperimentConfig, role: str) -> Corpus:
    if role == "test":
        return load_corpus(cfg.test_corpus)
    if cfg.ingest_from is not None:
        return ingest_personachat(cfg.ingest_from)
    return load_corpus(cfg.corpus)


def _stage_ingest(ctx: _Context) -> None:
    done = _marker_ok(ctx, "ingest")
    roles = _ROLES if ctx.cfg.test_corpus is not None else ("train",)
    for role in roles:
        path = os.path.join(ctx.out, _ROLES[role][0])
        if done:
            ctx.corpora[role] = load_corpus(path)
        else:
            ctx.corpora[role] = _read_input(ctx.cfg, role)
            save_corpus(ctx.corpora[role], path)
    if done:
        return
    n = {role: len(corpus) for role, corpus in ctx.corpora.items()}
    _say(ctx, f"ingest: {n['train']} dialogues" + (f", {n['test']} test" if "test" in n else ""))
    _write_marker(ctx, "ingest", dialogues=n["train"], test_dialogues=n.get("test"))


def _stage_embed(ctx: _Context) -> None:
    for dim in ctx.cfg.dims:
        ctx.tables[dim] = load_embeddings(ctx.cfg.embeddings[dim], dim)
    if not _marker_ok(ctx, "embed"):
        _write_marker(
            ctx, "embed",
            vocab={str(d): len(t) for d, t in ctx.tables.items()},
        )


def _embedded(ctx: _Context, role: str, dim: int):
    """(vectors, offsets) of the role's corpus under the dim table, embedded
    on first use: a rerun whose stages are all done embeds nothing."""
    key = (role, dim)
    if key not in ctx.embedded:
        ctx.embedded[key] = embed_corpus(ctx.corpora[role], ctx.tables[dim])
    return ctx.embedded[key]


def sentence_cluster_rng(seed: int, dim: int) -> np.random.Generator:
    """The k-means stream of the sentence clusters of embedding size dim:
    the cluster_sentences stage's and `chatdqn cluster sentences`'s."""
    return np.random.default_rng([seed, 20, dim])


def dialogue_cluster_rng(seed: int) -> np.random.Generator:
    """The k-means stream of the dialogue clusters: the cluster_dialogues
    stage's, `chatdqn cluster dialogues`'s and `chatdqn split`'s."""
    return np.random.default_rng([seed, 21])


def _stage_cluster_sentences(ctx: _Context) -> None:
    cfg = ctx.cfg
    done = _marker_ok(ctx, "cluster_sentences")
    for dim in cfg.dims:
        path = os.path.join(ctx.out, f"sentence_clusters_dim{dim}.json")
        if done:
            ctx.smodels[dim] = load_cluster_model(path)
            continue
        vectors, _ = _embedded(ctx, "train", dim)
        model = fit(vectors, cfg.agent.n_actions, rng=sentence_cluster_rng(cfg.seed, dim))
        save_cluster_model(model, path, extra={"config_hash": ctx.h})
        ctx.smodels[dim] = model
        _say(ctx, f"cluster_sentences dim={dim}: k={model.k} inertia={model.inertia:.4f}")
    if not done:
        _write_marker(ctx, "cluster_sentences", dims=list(cfg.dims))


def _stage_cluster_dialogues(ctx: _Context) -> None:
    cfg = ctx.cfg
    path = os.path.join(ctx.out, "dialogue_clusters.json")
    if _marker_ok(ctx, "cluster_dialogues"):
        ctx.dmodel = load_cluster_model(path)
        return
    base = cfg.dims[0]
    points = dialogue_vectors(*_embedded(ctx, "train", base))
    ctx.dmodel = fit(points, cfg.k_splits, rng=dialogue_cluster_rng(cfg.seed))
    save_cluster_model(ctx.dmodel, path, extra={"config_hash": ctx.h, "base_dim": base})
    _write_marker(ctx, "cluster_dialogues", k=cfg.k_splits, base_dim=base)


def _stage_split(ctx: _Context) -> None:
    """Split each role's dialogues by the dialogue clusters of the train
    corpus, so test split i holds the unseen dialogues nearest train split i."""
    done = _marker_ok(ctx, "split")
    base = ctx.cfg.dims[0]
    for role, corpus in ctx.corpora.items():
        path = os.path.join(ctx.out, _ROLES[role][1])
        if done:
            ctx.splits[role] = load_splits(path)
            continue
        ctx.splits[role] = split_corpus(
            corpus, ctx.dmodel, dialogue_vectors(*_embedded(ctx, role, base)))
        save_splits(ctx.splits[role], path, extra={"config_hash": ctx.h})
    if not done:
        sizes = [len(s.dialogue_ids) for s in ctx.splits["train"]]
        _say(ctx, f"split: sizes {sizes}")
        _write_marker(ctx, "split", sizes=sizes)


def _run_dir(out: str, dim: int, split_id: int) -> str:
    return os.path.join(out, "runs", f"dim{dim}", f"split{split_id:03d}")


def _run_file(ctx: _Context, dim: int, split_id: int, name: str) -> dict:
    """A trained run's `report.json` or `evals.json`, through the freshness
    read; a missing one refuses the run."""
    path = os.path.join(_run_dir(ctx.out, dim, split_id), name)
    payload = _fresh(ctx, path)
    if payload is None:
        raise FileNotFoundError(f"{os.path.relpath(path, ctx.out)}: missing run file")
    return payload


def load_policy(cfg: ExperimentConfig, checkpoint_path: str, dims=None):
    """The Q-network of a checkpoint, refused unless cfg trains its
    architecture: its embedding size one of `dims` (default cfg.dims), its
    other fields those of cfg.agent. The one architecture check."""
    net = load_qnetwork(checkpoint_path)
    dims = cfg.dims if dims is None else dims
    bad = [
        f"{k} {getattr(net, k)!r} != {getattr(cfg.agent, k)!r}"
        for k in ("hidden_dim", "n_actions", "dropout_rate")
        if getattr(net, k) != getattr(cfg.agent, k)
    ]
    if net.embedding_dim not in dims:
        bad.append(f"embedding_dim {net.embedding_dim} not among configured {list(dims)}")
    if bad:
        raise ValueError("checkpoint architecture mismatch: " + "; ".join(bad))
    return net


def _train_one(ctx: _Context, dim: int, split: DataSplit) -> str:
    """Train the (dim, split) run into its run directory, unless its
    `done.json` says it is done; returns the directory."""
    cfg = ctx.cfg
    rdir = _run_dir(ctx.out, dim, split.split_id)
    done = os.path.join(rdir, "done.json")
    if _fresh(ctx, done):
        return rdir
    os.makedirs(rdir, exist_ok=True)
    acfg = replace(cfg.agent, embedding_dim=dim, seed=stable_seed(cfg.seed, dim, split.split_id))
    report, agent_, _env = train(
        ctx.corpora["train"], acfg, ctx.smodels[dim], _embedded(ctx, "train", dim)[0],
        dialogue_ids=split.dialogue_ids, log=ctx.log,
    )
    write_json(
        os.path.join(rdir, "report.json"),
        {
            "config_hash": ctx.h,
            "dim": dim,
            "split": split.split_id,
            "seed": acfg.seed,
            "episodes": report.episodes,
            "steps": report.steps,
            "episode_rewards": report.episode_rewards,
            "moving_avg": report.moving_avg,
            "sync_steps": list(agent_.sync_history),
        },
    )
    save_agent_checkpoint(os.path.join(rdir, "checkpoint.bin"), agent_, ctx.h)
    emit_learning_curve(rdir)
    write_json(done, {"config_hash": ctx.h})
    rows = agent_.target_rows_computed + agent_.target_rows_cached
    hit_rate = f"{agent_.target_rows_cached / rows:.1%}" if rows else "n/a"
    _say(
        ctx,
        f"train dim={dim} split={split.split_id}: "
        f"{report.episodes} episodes, {report.steps} steps, "
        f"TD-target cache hit rate {hit_rate}, {report.wall_clock_s:.1f} s",
    )
    return rdir


def _stage_train(ctx: _Context) -> None:
    cfg = ctx.cfg
    ctx.trained, ctx.skipped = [], []
    for dim in cfg.dims:
        for split in ctx.splits["train"]:
            if len(split.dialogue_ids) < 2:
                ctx.skipped.append([dim, split.split_id])
                continue
            _train_one(ctx, dim, split)
            ctx.trained.append([dim, split.split_id])
    if not ctx.trained:
        raise ValueError("no split has the >= 2 dialogues needed to train")
    if not _marker_ok(ctx, "train"):
        _write_marker(ctx, "train", trained=ctx.trained, skipped=ctx.skipped)


def _eval_dict(ev) -> dict:
    return {
        "mean_reward": ev.mean_reward,
        "episodes": len(ev.episode_rewards),
        "episode_rewards": ev.episode_rewards,
        "steps_used": ev.steps_used,
        "truncated": ev.truncated,
        "dialogue_ids": ev.dialogue_ids,
    }


def _stage_evaluate(ctx: _Context) -> None:
    """Evaluate each run on its split of every role; a role's split with
    fewer than 2 dialogues (or a missing test corpus) gives a null eval."""
    cfg = ctx.cfg
    if _marker_ok(ctx, "evaluate"):
        return
    for dim, sid in ctx.trained:
        rdir = _run_dir(ctx.out, dim, sid)
        epath = os.path.join(rdir, "evals.json")
        if _fresh(ctx, epath):
            continue
        net = load_policy(cfg, os.path.join(rdir, "checkpoint.bin"), dims=(dim,))
        evals = dict.fromkeys(_ROLES)
        for role, splits in ctx.splits.items():
            split = next((s for s in splits if s.split_id == sid), None)
            if split is not None and len(split.dialogue_ids) >= 2:
                evals[role] = _eval_dict(evaluate(
                    net, ctx.corpora[role], cfg.agent, ctx.smodels[dim],
                    _embedded(ctx, role, dim)[0],
                    dialogue_ids=split.dialogue_ids, seed=cfg.seed,
                ))
        write_json(
            epath,
            {
                "config_hash": ctx.h,
                "eval_budget_steps": cfg.agent.test_steps,
                **{f"eval_{role}": ev for role, ev in evals.items()},
            },
        )
        _say(ctx, f"evaluate dim={dim} split={sid}: " + ", ".join(
            f"{role} {ev['mean_reward']:+.3f}" for role, ev in evals.items() if ev))
    _write_marker(ctx, "evaluate")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.6f}"


def _stage_report(ctx: _Context) -> None:
    cfg = ctx.cfg
    if _marker_ok(ctx, "report"):
        return
    rows = []  # (label, dim, episodes, steps, ma, eval_train, eval_test)
    evaluated = {role: set() for role in _ROLES}  # role -> evaluated dialogue ids
    for dim in cfg.dims:
        dim_rows = []
        for d, sid in ctx.trained:
            if d != dim:
                continue
            rep = _run_file(ctx, dim, sid, "report.json")
            evs = _run_file(ctx, dim, sid, "evals.json")
            ma = rep["moving_avg"][-1] if rep["episodes"] else None
            means = []
            for role, ids in evaluated.items():
                ev = evs[f"eval_{role}"]
                if ev:
                    ids.update(ev["dialogue_ids"])
                means.append(ev["mean_reward"] if ev else None)
            dim_rows.append((f"split {sid}", dim, rep["episodes"], rep["steps"], ma, *means))
        rows.extend(dim_rows)
        cols = [[v for v in col if v is not None] for col in list(zip(*dim_rows))[2:]]
        for label, agg in (("Average", np.mean), ("Sum", np.sum)):
            rows.append((label, dim, *(agg(col) if col else None for col in cols)))
    bounds = {
        role: baseline_bounds(
            (ctx.corpora[role].get(i) for i in sorted(ids)), cfg.agent.candidates)
        if ids else (None, None, None)
        for role, ids in evaluated.items()
    }
    for label, i in (("Upper Bound", 0), ("Lower Bound", 1), ("Random Sel.", 2)):
        rows.append((label, None, None, None, bounds["train"][i],
                     *(b[i] for b in bounds.values())))

    path = os.path.join(ctx.out, "report.csv")
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={ctx.h}\n")
        fh.write(f"# eval_budget_steps={cfg.agent.test_steps}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["row", "dim", "episodes", "steps", "train_ma100",
                    *(f"eval_{role}" for role in _ROLES)])
        for label, dim, *values in rows:
            w.writerow([label, "" if dim is None else str(dim), *map(_fmt, values)])
    _write_marker(ctx, "report")
    _say(ctx, f"report: {path}")


def _cmp_samples(a: list, b: list) -> dict:
    if len(a) < 2:
        return {"note": "fewer than 2 paired splits", "a": a, "b": b}
    try:
        r = wilcoxon_signed_rank(a, b)
    except ValueError as exc:
        return {"note": str(exc), "a": a, "b": b}
    return {
        "a": a,
        "b": b,
        "n_effective": r.n_effective,
        "w_statistic": r.w_statistic,
        "p_value": r.p_value,
        "significant_at_0_05": r.significant_at_0_05,
        "method": r.method,
    }


def _stage_compare(ctx: _Context) -> None:
    cfg = ctx.cfg
    if _marker_ok(ctx, "compare"):
        return
    path = os.path.join(ctx.out, "comparisons.json")
    if len(cfg.dims) < 2:
        write_json(path, {"config_hash": ctx.h,
                          "note": "single embedding size; nothing to compare"})
        _write_marker(ctx, "compare")
        return
    d1, d2 = cfg.dims[0], cfg.dims[1]
    splits1 = {sid for d, sid in ctx.trained if d == d1}
    splits2 = {sid for d, sid in ctx.trained if d == d2}
    samples = {role: ([], []) for role in _ROLES}  # role -> (d1 rewards, d2 rewards)
    for sid in sorted(splits1 & splits2):
        e1 = _run_file(ctx, d1, sid, "evals.json")
        e2 = _run_file(ctx, d2, sid, "evals.json")
        for role, (a, b) in samples.items():
            key = f"eval_{role}"
            if e1[key] and e2[key]:
                a.append(e1[key]["mean_reward"])
                b.append(e2[key]["mean_reward"])
    write_json(
        path,
        {
            "config_hash": ctx.h,
            "dims": [d1, d2],
            **{f"eval_{role}": _cmp_samples(a, b) for role, (a, b) in samples.items()},
        },
    )
    _write_marker(ctx, "compare")
    _say(ctx, f"compare: {path}")


_STAGE_BODIES = {
    "ingest": _stage_ingest,
    "embed": _stage_embed,
    "cluster_sentences": _stage_cluster_sentences,
    "cluster_dialogues": _stage_cluster_dialogues,
    "split": _stage_split,
    "train": _stage_train,
    "evaluate": _stage_evaluate,
    "report": _stage_report,
    "compare": _stage_compare,
}
STAGES = tuple(_STAGE_BODIES)


# ---------------------------------------------------------------------------
# entry points


def _make_context(cfg: ExperimentConfig, log=None) -> _Context:
    os.makedirs(cfg.out_dir, exist_ok=True)
    ctx = _Context(cfg=cfg, h=config_hash(cfg), out=cfg.out_dir, log=log)
    path = os.path.join(ctx.out, "config.resolved.json")
    if not _fresh(ctx, path):
        write_json(path, {"config_hash": ctx.h, "config": cfg.to_dict()})
    return ctx


def _run_stages(cfg: ExperimentConfig, log, until: str) -> _Context:
    """Run (or resume) the stages up to and including `until`."""
    ctx = _make_context(cfg, log)
    for stage in STAGES[: STAGES.index(until) + 1]:
        _run_stage(stage, lambda s=stage: _STAGE_BODIES[s](ctx))
    return ctx


def run_experiment(cfg: ExperimentConfig, log=None, until: str | None = None) -> str:
    """Execute the pipeline (or resume it) inside cfg.out_dir.

    `until` stops after the named stage. Returns the output directory.
    """
    if until is not None and until not in STAGES:
        raise ValueError(f"unknown stage {until!r}; stages are {STAGES}")
    return _run_stages(cfg, log, until or STAGES[-1]).out


def train_single(cfg: ExperimentConfig, dim: int, split_id: int, log=None) -> str:
    """Prepare data stages, then train exactly one (dim, split) run."""
    if dim not in cfg.dims:
        raise ValueError(f"dim {dim} not among configured embeddings {cfg.dims}")
    ctx = _run_stages(cfg, log, "split")
    splits = ctx.splits["train"]
    split = next((s for s in splits if s.split_id == split_id), None)
    if split is None:
        raise ValueError(f"no split {split_id}; splits are 0..{len(splits) - 1}")
    if len(split.dialogue_ids) < 2:
        raise ValueError(f"split {split_id} has {len(split.dialogue_ids)} dialogues; need >= 2")

    _run_stage("train", lambda: _train_one(ctx, dim, split))
    return _run_dir(ctx.out, dim, split_id)


def evaluate_checkpoint(
    cfg: ExperimentConfig, checkpoint_path: str, which: str, log=None
) -> dict:
    """Evaluate a saved Q-network on `train`, `test`, or a JSONL file path.

    The checkpoint's architecture must agree with the current config.
    """
    if which == "test" and cfg.test_corpus is None:
        raise ValueError("config has no test_corpus")
    ctx = _run_stages(cfg, log, "cluster_sentences")
    net = load_policy(cfg, checkpoint_path)
    dim = net.embedding_dim
    if which in _ROLES:
        corpus, vectors = ctx.corpora[which], _embedded(ctx, which, dim)[0]
    else:
        corpus = load_corpus(which)
        vectors, _ = embed_corpus(corpus, ctx.tables[dim])
    ev = evaluate(net, corpus, cfg.agent, ctx.smodels[dim], vectors, seed=cfg.seed)
    return {
        "checkpoint": checkpoint_path,
        "dialogues": which,
        "dim": dim,
        **_eval_dict(ev),
    }


def chat_checkpoint(cfg: ExperimentConfig, checkpoint_path: str, transcript_path: str) -> str:
    """Chat with a saved Q-network (`repl.chat_repl` on stdin and stdout)
    over the train dialogues, their sentence vectors, the table and the
    sentence clusters of its embedding size, running or resuming the data
    stages as `evaluate_checkpoint` does; the REPL embeds only the user's
    lines. Returns the transcript path.

    The checkpoint's architecture must agree with the current config.
    """
    ctx = _run_stages(cfg, None, "cluster_sentences")
    net = load_policy(cfg, checkpoint_path)
    dim = net.embedding_dim
    return chat_repl(
        net, ctx.smodels[dim], ctx.tables[dim], ctx.corpora["train"],
        _embedded(ctx, "train", dim)[0], transcript_path,
        rng=np.random.default_rng([cfg.seed, 30]),
        candidates=cfg.agent.candidates,
        history_len=cfg.agent.history_len,
    )


# ---------------------------------------------------------------------------
# learning-curve emission


def _svg_learning_curve(rewards, moving_avg, config_hash_: str) -> str:
    width, height = 640, 400
    ml, mr, mt, mb = 56, 14, 14, 34
    pw, ph = width - ml - mr, height - mt - mb
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- config_hash: {config_hash_} -->",
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="white" stroke="black"/>',
    ]
    if rewards:
        lo = min(min(rewards), min(moving_avg))
        hi = max(max(rewards), max(moving_avg))
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        n = len(rewards)

        def px(i):
            return ml + (pw * i / (n - 1) if n > 1 else pw / 2)

        def py(v):
            return mt + ph * (hi - v) / (hi - lo)

        raw = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(rewards))
        ma = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(moving_avg))
        parts.append(f'<polyline points="{raw}" fill="none" stroke="#bbbbbb" stroke-width="1"/>')
        parts.append(f'<polyline points="{ma}" fill="none" stroke="#000000" stroke-width="2"/>')
        parts.append(
            f'<text x="{ml - 6}" y="{mt + 5}" text-anchor="end" font-size="11">{hi:.2f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{mt + ph}" text-anchor="end" font-size="11">{lo:.2f}</text>'
        )
        parts.append(
            f'<text x="{ml}" y="{height - 10}" text-anchor="middle" font-size="11">1</text>'
        )
        parts.append(
            f'<text x="{ml + pw}" y="{height - 10}" text-anchor="middle" font-size="11">{n}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle" font-size="11">'
        "episode</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_learning_curve(run_dir: str):
    """Write curve.csv (episode,reward,moving_avg) and curve.svg next to a
    run's report.json; the moving average uses a trailing window of 100."""
    rpath = os.path.join(run_dir, "report.json")
    if not os.path.exists(rpath):
        raise FileNotFoundError(f"missing report: {rpath}")
    rep = read_json(rpath)
    rewards = rep["episode_rewards"]
    moving = rep["moving_avg"]
    h = rep.get("config_hash", "")
    cpath = os.path.join(run_dir, "curve.csv")
    with atomic_write(cpath, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={h}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["episode", "reward", "moving_avg"])
        for i, (r, m) in enumerate(zip(rewards, moving), start=1):
            w.writerow([i, r, f"{m:.6f}"])
    spath = os.path.join(run_dir, "curve.svg")
    with atomic_write(spath, "w", encoding="utf-8") as fh:
        fh.write(_svg_learning_curve(rewards, moving, h))
    return cpath, spath


# ---------------------------------------------------------------------------
# reward-prediction study


def reward_study(
    cfg: ExperimentConfig,
    out_path: str | None = None,
    lengths=HISTORY_LENGTHS,
    log=None,
) -> list:
    """Run the history-length study and write `h,run,pearson` CSV rows.

    Uses the smallest configured embedding size; the global seed drives the
    predictor seeds. Requires a test corpus (correlations are measured on
    held-out dialogues).
    """
    if cfg.test_corpus is None:
        raise ValueError("reward study needs a test_corpus in the config")
    ctx = _run_stages(cfg, log, "embed")
    base = cfg.dims[0]
    pcfg = replace(cfg.predictor, seed=cfg.seed)
    rows = history_length_study(
        ctx.corpora["train"], ctx.corpora["test"], ctx.tables[base], pcfg, lengths=lengths)
    path = out_path or os.path.join(ctx.out, "study.csv")
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={ctx.h}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["h", "run", "pearson"])
        for row in rows:
            for run, score in enumerate(row.scores):
                w.writerow([row.h, run, f"{score:.6f}"])
    if log is not None:
        for row in rows:
            log(f"h={row.h}: mean r={row.mean_r:.4f} (std {row.std_r:.4f})")
    return rows
