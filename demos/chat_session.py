"""Scripted interactive session against a trained selection agent.

Trains a small agent for a few thousand steps, then replays a canned
conversation through the REPL: each user line is embedded, the Q-network
scores all k cluster actions (candidate clusters are starred), and the
agent utters a sentence from its chosen cluster. The transcript is written
as JSONL and echoed at the end.

For a live session use the CLI instead:
    chatdqn chat --config <cfg.json> --checkpoint <run>/checkpoint.bin

Run from the repo root:  python3 demos/chat_session.py
"""

import os
import tempfile

import numpy as np

from chatdqn import AgentConfig, make_toy_corpus, make_toy_embeddings
from chatdqn.agent import train
from chatdqn.clustering import fit
from chatdqn.embeddings import embed_corpus
from chatdqn.repl import chat_repl

# The generated corpus speaks a synthetic vocabulary (token tNNwNN = word
# NN of topic NN), so the scripted user sticks to it; anything else embeds
# to the zero vector and tells the Q-network nothing.
SCRIPT = [
    "t01w00 t01w05 t01w11",
    "t03w16 t03w07 t03w13",
    "t01w17 t01w04 t01w19",
    ":quit",
]


def main():
    table = make_toy_embeddings(6, dim=10, seed=21)
    corpus = make_toy_corpus(40, topics=range(6), seed=21)
    vectors, _ = embed_corpus(corpus, table)
    model = fit(vectors, 6, rng=np.random.default_rng([21, 20]))
    cfg = AgentConfig(
        n_actions=6, embedding_dim=10, hidden_dim=32, burn_in=200,
        batch_size=32, target_sync_period=500, learn_steps=2000,
        test_steps=1000, memory_capacity=4000, seed=2,
    )
    print("training a small agent first (a few seconds)...")
    _report, agent, _env = train(corpus, cfg, model, vectors)

    lines = iter(SCRIPT)
    path = os.path.join(tempfile.mkdtemp(prefix="chatdqn-demo-"), "transcript.jsonl")
    print()
    chat_repl(
        agent.net, model, table, corpus, vectors, path,
        input_fn=lambda prompt: print(prompt + (nxt := next(lines))) or nxt,
        rng=np.random.default_rng(5),
    )

    print("\n--- transcript.jsonl ---")
    with open(path, encoding="utf-8") as fh:
        print(fh.read().rstrip())


if __name__ == "__main__":
    main()
