"""Train a small selection agent on a generated topical corpus.

Builds a 10-topic toy world, clusters its sentence vectors into 12 actions,
runs a short seeded learning loop, and reports the moving-average curve
against the analytic upper/lower/random baselines, plus greedy evaluation
on the training dialogues and on held-out dialogues from unseen topics.

Run from the repo root:  python3 demos/train_toy_agent.py
"""

import numpy as np

from chatdqn import AgentConfig, make_toy_corpus, make_toy_embeddings
from chatdqn.agent import evaluate, train
from chatdqn.clustering import fit
from chatdqn.embeddings import embed_corpus
from chatdqn.environment import baseline_bounds


def main():
    table = make_toy_embeddings(12, dim=10, seed=7)
    train_corpus = make_toy_corpus(60, topics=range(6), seed=7, id_prefix="tr")
    test_corpus = make_toy_corpus(25, topics=range(6, 12), seed=8, id_prefix="te")

    train_vectors, _ = embed_corpus(train_corpus, table)
    test_vectors, _ = embed_corpus(test_corpus, table)
    model = fit(train_vectors, 12, rng=np.random.default_rng([7, 20]))
    print(f"clustered {len(train_vectors)} sentences into k={model.k} actions "
          f"(inertia {model.inertia:.3f})")

    upper, lower, rand = baseline_bounds(train_corpus.dialogues, candidates=3)
    print(f"baselines: upper {upper:+.3f}  lower {lower:+.3f}  random {rand:+.3f}\n")

    cfg = AgentConfig(
        n_actions=12, embedding_dim=10, hidden_dim=48, burn_in=300,
        batch_size=32, target_sync_period=800, learn_steps=4000,
        test_steps=2500, memory_capacity=8000, seed=3,
    )
    report, agent, _env = train(train_corpus, cfg, model, train_vectors)

    print("episode  reward(MA100)")
    marks = np.linspace(1, report.episodes, num=min(10, report.episodes), dtype=int)
    for ep in marks:
        print(f"{ep:7d}  {report.moving_avg[ep - 1]:+8.3f}")
    print(f"\ntrained {report.episodes} episodes / {report.steps} steps "
          f"in {report.wall_clock_s:.1f}s")

    ev_train = evaluate(agent.net, train_corpus, cfg, model, train_vectors, seed=1)
    ev_test = evaluate(agent.net, test_corpus, cfg, model, test_vectors, seed=1)
    print(f"greedy eval, training dialogues: {ev_train.mean_reward:+.3f} "
          f"({len(ev_train.episode_rewards)} episodes)")
    print(f"greedy eval, unseen topics:      {ev_test.mean_reward:+.3f} "
          f"({len(ev_test.episode_rewards)} episodes)")
    print(f"\nthe gap above (train > held-out) is the expected overfit "
          f"direction; both sit inside [{lower:+.3f}, {upper:+.3f}]")


if __name__ == "__main__":
    main()
