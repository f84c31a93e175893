"""Interactive inspection of a trained policy.

The user plays the human side; each turn the tool draws a candidate set of
corpus sentences (uniformly, from every dialogue), prints every cluster's
Q-value with the candidate clusters highlighted, announces the greedy
choice, and utters a candidate from the chosen cluster. There is no
ground truth for live input, so no reward is scored. The transcript is
JSONL, one object per turn.
"""

from __future__ import annotations

import json

import numpy as np

from .agent import select_action
from .clustering import ClusterModel, assign_many
from .corpus import Corpus, sample_distractors
from .embeddings import WordEmbeddingTable, embed_texts
from .environment import candidate_of_cluster
from .neuralnet import QNetwork

__all__ = ["chat_repl"]

QUIT = ":quit"


def _format_q_line(q: np.ndarray, candidate_ids) -> str:
    cand = set(candidate_ids)
    return " ".join(
        f"{i}:{q[i]:+.3f}" + ("*" if i in cand else "") for i in range(len(q))
    )


def chat_repl(
    net: QNetwork,
    sentence_model: ClusterModel,
    table: WordEmbeddingTable,
    corpus: Corpus,
    vectors: np.ndarray,
    transcript_path: str,
    input_fn=input,
    output_fn=print,
    rng: np.random.Generator | None = None,
    candidates: int = 3,
    history_len: int = 50,
) -> str:
    """Run the session until `:quit` (or EOF); returns the transcript path.

    `vectors` holds the corpus's sentence vectors (`embed_corpus` under
    `table`); the table only embeds the user's lines. input_fn/output_fn
    are injectable so the loop is scriptable in tests. Empty input just
    re-prompts; unknown words fall back to the zero-vector rule inside the
    embedding layer, so nothing the user types can fail.
    """
    if net.n_actions != sentence_model.k:
        raise ValueError(
            f"network has {net.n_actions} actions but cluster model has k={sentence_model.k}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    sentences = corpus.turn_index[1]
    if len(sentences) < candidates:
        raise ValueError(f"corpus has {len(sentences)} sentences; need >= {candidates}")
    if vectors.shape != (len(sentences), sentence_model.dim):
        raise ValueError(
            f"sentence vectors of shape {vectors.shape} for {len(sentences)} "
            f"sentences and cluster model dim {sentence_model.dim}"
        )
    actions = assign_many(sentence_model, vectors)

    history: list[np.ndarray] = []  # one sentence vector per turn
    turn = 0
    with open(transcript_path, "w", encoding="utf-8") as fh:

        def record(speaker: str, text: str, action_id=None):
            nonlocal turn
            fh.write(
                json.dumps(
                    {
                        "turn": turn,
                        "speaker": speaker,
                        "text": text,
                        "action_id": action_id,
                        "reward": None,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )
            turn += 1

        output_fn(f"{len(corpus)} dialogues, k={sentence_model.k} clusters. "
                  f"Type a sentence ({QUIT} to exit).")
        while True:
            try:
                user = input_fn("you> ")
            except EOFError:
                break
            if user is None or user.strip() == QUIT:
                break
            if not user.strip():
                continue  # re-prompt, no state change
            history.append(embed_texts([user], table)[0])
            record("env", user)

            picks = sample_distractors(corpus, None, candidates, rng)
            cand_ids = [int(actions[i]) for i in picks]
            state = np.stack(history[-history_len:])[None]
            q = net.forward(state, [state.shape[1]])[0]
            output_fn("q: " + _format_q_line(q, cand_ids))
            for i, a in zip(picks, cand_ids):
                output_fn(f"  [{a}] {sentences[i]}")
            choice = select_action(q, cand_ids, 0.0, rng)
            uttered = candidate_of_cluster(picks, cand_ids, choice, rng)
            output_fn(f"agent[{choice}]> {sentences[uttered]}")
            history.append(vectors[uttered])
            record("agent", sentences[uttered], action_id=choice)
        fh.flush()
    return transcript_path
