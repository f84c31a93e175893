"""Shared builders for the test suite.

Most tests run on synthetic topic corpora: each topic owns a disjoint
vocabulary whose word vectors sit in a tight ball around a unit-norm topic
center, so sentence vectors separate cleanly by topic and cluster structure
is known by construction.  That lets tests hand-build ClusterModel instances
(one centroid per topic center) with exactly known assignment behaviour
instead of depending on a k-means fit.
"""

import numpy as np
import pytest

from chatdqn import make_toy_corpus, make_toy_embeddings
from chatdqn.clustering import ClusterModel
from chatdqn.embeddings import WordEmbeddingTable


def topic_centers(table: WordEmbeddingTable, n_topics: int, words_per_topic: int = 20):
    """Recover per-topic mean vectors from a make_toy_embeddings table."""
    centers = []
    for t in range(n_topics):
        rows = [
            table.lookup(f"t{t:02d}w{w:02d}") for w in range(words_per_topic)
        ]
        centers.append(np.mean(rows, axis=0))
    return np.asarray(centers, dtype=np.float64)


def topic_cluster_model(table: WordEmbeddingTable, n_topics: int,
                        words_per_topic: int = 20) -> ClusterModel:
    """ClusterModel whose centroids are the exact topic centers."""
    centers = topic_centers(table, n_topics, words_per_topic)
    return ClusterModel(k=n_topics, dim=table.dim, centroids=centers, inertia=0.0)


@pytest.fixture(scope="session")
def small_world():
    """A reusable 6-topic world: table, corpus, and exact topic clusters."""
    n_topics = 6
    table = make_toy_embeddings(n_topics, dim=8, seed=3)
    corpus = make_toy_corpus(30, topics=range(n_topics), seed=3)
    model = topic_cluster_model(table, n_topics)
    return table, corpus, model


def make_table(entries: dict) -> WordEmbeddingTable:
    return WordEmbeddingTable(list(entries), np.array(list(entries.values()), dtype=np.float64))
