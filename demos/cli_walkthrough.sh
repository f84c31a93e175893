#!/usr/bin/env bash
# Every CLI subcommand on generated data, start to finish.
#
# Prereq: pip install -e . --no-build-isolation   (provides `chatdqn`)
# Run from the repo root:  bash demos/cli_walkthrough.sh
set -euo pipefail

ROOT="$(mktemp -d "${TMPDIR:-/tmp}/chatdqn-cli.XXXXXX")"
echo "workspace: $ROOT"
cd "$ROOT"

python3 - <<'PY'
import json
from chatdqn import make_toy_corpus, make_toy_embeddings, save_embeddings_file
from chatdqn.corpus import save_corpus

save_embeddings_file(make_toy_embeddings(8, dim=10, seed=41, spread=0.5), "emb10.txt")
save_corpus(make_toy_corpus(24, topics=range(8), seed=40, id_prefix="tr"), "corpus.jsonl")
save_corpus(make_toy_corpus(10, topics=range(8), seed=43, id_prefix="te"), "test.jsonl")

json.dump({
    "version": 1,
    "corpus": "corpus.jsonl",
    "test_corpus": "test.jsonl",
    "embeddings": {"10": "emb10.txt"},
    "out_dir": "out",
    "k_splits": 3,
    "seed": 5,
    "agent": {"n_actions": 4, "embedding_dim": 10, "hidden_dim": 8,
              "burn_in": 40, "batch_size": 8, "target_sync_period": 50,
              "learn_steps": 80, "test_steps": 400, "memory_capacity": 200,
              "seed": 0},
    "predictor": {"hidden_dim": 4, "epochs": 1, "runs": 2, "batch_size": 8},
}, open("experiment.json", "w"), indent=2)
PY

echo; echo "== ingest: convert a parl.ai text export to JSONL =="
cat > export.txt <<'TXT'
1 your persona: i like trains.
2 hi how are you today	i am fine thanks
3 what do you do	i drive trains for a living
1 hello	hey there
2 nice weather	sure is
TXT
chatdqn ingest --from personachat export.txt ingested.jsonl

echo; echo "== embed: table stats and corpus coverage =="
chatdqn embed --embeddings emb10.txt --dim 10 --corpus corpus.jsonl

echo; echo "== cluster: k=4 sentence actions =="
chatdqn cluster sentences --k 4 --corpus corpus.jsonl \
    --embeddings emb10.txt --dim 10 --out sentence_clusters.json

echo; echo "== project: 2-D view of the sentence vectors (first rows) =="
chatdqn project --what sentences --corpus corpus.jsonl \
    --clusters sentence_clusters.json --embeddings emb10.txt --dim 10 \
    --out projection.csv
head -n 4 projection.csv

echo; echo "== split: partition dialogues by dialogue-vector cluster =="
chatdqn split --k 3 --corpus corpus.jsonl --embeddings emb10.txt --dim 10 \
    --out splits.json --model-out dialogue_clusters.json

echo; echo "== run: the full pipeline (resumable, hash-stamped) =="
chatdqn run --config experiment.json

echo; echo "== train: re-entrant single run (already done, so a no-op) =="
chatdqn train --config experiment.json --split 0 --dim 10

echo; echo "== report: the aggregate table =="
chatdqn report --config experiment.json

echo; echo "== eval: one checkpoint on the held-out corpus =="
CKPT="$(ls out/runs/dim10/split*/checkpoint.bin | head -n 1)"
chatdqn eval --config experiment.json --checkpoint "$CKPT" --dialogues test

echo; echo "== plot: learning-curve CSV + SVG for that run =="
chatdqn plot --run-dir "$(dirname "$CKPT")"

echo; echo "== predict-reward: history-length study =="
chatdqn predict-reward study --config experiment.json --lengths 1,10 \
    --out study.csv
tail -n +2 study.csv

echo; echo "== chat: scripted lines through stdin =="
printf 'hello there\n:quit\n' | chatdqn chat --config experiment.json \
    --checkpoint "$CKPT" --transcript transcript.jsonl
cat transcript.jsonl

echo; echo "all commands succeeded; artifacts in $ROOT"
