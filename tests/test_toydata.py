"""The toy generators' files, byte for byte.

The benchmark and the tests build every world from `chatdqn.toydata`, so a
change to the generators must not move a byte of what they write. The
digests below were taken from the generators as they stood before words
were drawn with one `rng.integers` call per sentence; the shapes are the
benchmark's toy, paper and corpus worlds.
"""

import hashlib

import numpy as np
import pytest

from chatdqn.corpus import save_corpus
from chatdqn.toydata import make_toy_corpus, make_toy_embeddings, save_embeddings_file

# world -> (make_toy_embeddings args, digest), then per corpus
# (make_toy_corpus args, digest)
WORLDS = {
    "toy": (
        (dict(n_topics=20, words_per_topic=20, dim=10, spread=0.12),
         "7df2b88014a42320600d78826d456e170d95532e0c5b73f171c83d4ddd31cd67"),
        [
            (dict(n_dialogues=100, topics=range(10), words_per_topic=20, turns_range=(8, 14)),
             "310de6d7e3a9e2a95b9559d9338a840397b5a5fec205cbe3297c91a44bf01720"),
            (dict(n_dialogues=50, topics=range(10, 20), words_per_topic=20,
                  turns_range=(8, 14)),
             "a3261932ec5ee5481ea8de6927ec1b1eee25ec1977bfc5031300bf5c14d1eaab"),
            (dict(n_dialogues=500, topics=range(10), words_per_topic=20, turns_range=(8, 12)),
             "9e0aad043bfd620e37022595607437e31690fc46ee73b324e305222c3fd9b1ca"),
        ],
    ),
    "paper": (
        (dict(n_topics=40, words_per_topic=25, dim=100, spread=0.3),
         "b6eabef07068f1a6ff71c954be77bf05821e079258685128d7b3d5280f068b45"),
        [
            (dict(n_dialogues=200, topics=range(40), words_per_topic=25, turns_range=(14, 14)),
             "948beb83eaae2edd514188401eeeb43da2ae384e28e69ae2b13bfde0772b70ea"),
            (dict(n_dialogues=60, topics=range(40), words_per_topic=25, turns_range=(14, 14)),
             "480e9dcd907587f8f0e3f53e1efca7c83e4d651b4011c5e59ea0c4dd64cf8b14"),
        ],
    ),
    "corpus": (
        (dict(n_topics=120, words_per_topic=60, dim=100, spread=0.3),
         "dd0c846b20e1847a3ee123a4421a707f2d07653aea6bab4239d01ada13630fbc"),
        [
            (dict(n_dialogues=600, topics=range(120), words_per_topic=60,
                  turns_range=(12, 16)),
             "1e261f0f114b5afa95732661b46b5c14aef548fcf23fb80f4f572cc0f08c7389"),
            (dict(n_dialogues=150, topics=range(120), words_per_topic=60,
                  turns_range=(12, 16)),
             "42a2125740b6a5a43ce6ea034cbd23d4a2b5ffcf810985372bd11285283aee62"),
        ],
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_generated_files_keep_their_bytes(tmp_path, world):
    (table_args, table_digest), corpora = WORLDS[world]
    path = tmp_path / "table.txt"
    save_embeddings_file(make_toy_embeddings(seed=5, **table_args), str(path))
    assert _sha256(path) == table_digest
    for i, (args, digest) in enumerate(corpora):
        path = tmp_path / f"corpus{i}.jsonl"
        save_corpus(make_toy_corpus(seed=7 + i, id_prefix="tr", **args), str(path))
        assert _sha256(path) == digest, f"{world} corpus {i}"


@pytest.mark.parametrize("n", [3, 20, 25, 60])
def test_one_vector_draw_is_the_scalar_draws(n):
    # make_toy_corpus draws a sentence's words with one call; it must leave
    # the stream where the per-word calls left it
    for seed in range(50):
        one, many = np.random.default_rng([seed, 42]), np.random.default_rng([seed, 42])
        size = 3 + seed % 4
        assert one.integers(n, size=size).tolist() == [int(many.integers(n))
                                                       for _ in range(size)]
        assert one.integers(1 << 30) == many.integers(1 << 30)
