"""Dialogue environment: the agent replays the second speaker of scripted
human-human dialogues, choosing among clustered candidate responses and
earning +1 when it picks the cluster of the true human reply, -1 otherwise.

A sentence id is a position in the corpus's turn index (`Corpus.turn_index`):
turn j of dialogue i is sentence offsets[i] + j. The environment takes the
corpus's sentence vectors in that order (see `embeddings.embed_corpus`) and
cluster-assigns them once at construction; states carry sentence ids, and
`neuralnet.pad_batch` gathers batches of them from that vector matrix.
Distractors come from `corpus.sample_distractors`, the same draw that
distorts dialogues for the reward-regression study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .clustering import ClusterModel, assign_many
from .corpus import Corpus, Dialogue, sample_distractors
from .neuralnet import pad_batch

__all__ = [
    "EnvState",
    "CandidateSet",
    "DialogueEnv",
    "candidate_of_cluster",
    "episode_reward",
    "baseline_bounds",
]


@dataclass(frozen=True, eq=False)
class EnvState:
    """Transcript so far, as sentence ids, plus the index of the next agent
    decision."""

    dialogue_ref: str
    history_ids: tuple[int, ...]
    turn_index: int
    done: bool


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """c candidate responses, exactly one of them the scripted human reply."""

    truth_index: int
    action_ids: tuple[int, ...]
    sentence_ids: tuple[int, ...]


class DialogueEnv:
    """Environment over an immutable corpus, sentence-cluster model, and the
    corpus's sentence vectors: one row per sentence id of the corpus's turn
    index.

    The env owns a private rng used only to pick which same-cluster candidate
    is uttered after a wrong choice; candidate sampling takes the caller's
    rng so evaluation runs can be candidate-paired across policies.
    """

    def __init__(
        self,
        corpus: Corpus,
        sentence_model: ClusterModel,
        vectors: np.ndarray,
        candidates: int = 3,
        rng: np.random.Generator | None = None,
    ):
        if candidates < 1:
            raise ValueError(f"candidates must be >= 1, got {candidates}")
        if len(corpus) == 0:
            raise ValueError("empty corpus")
        self.corpus = corpus
        self.candidates = candidates
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._offsets = corpus.turn_index[0]
        if vectors.shape != (self._offsets[-1], sentence_model.dim):
            raise ValueError(
                f"sentence vectors of shape {vectors.shape} for {self._offsets[-1]} "
                f"sentences and cluster model dim {sentence_model.dim}"
            )
        self._vectors = vectors
        self.sent_action = assign_many(sentence_model, vectors)

    def reset(self, dialogue: Dialogue) -> EnvState:
        """Start an episode: the history holds the env's opening sentence and
        the next decision is the dialogue's first agent turn."""
        if dialogue.n_agent_turns == 0:
            raise ValueError(f"dialogue {dialogue.id!r} has no agent turn")
        first = self._offsets[self.corpus.index_of(dialogue.id)]
        return EnvState(
            dialogue_ref=dialogue.id,
            history_ids=(first,),
            turn_index=1,
            done=False,
        )

    def make_candidates(self, state: EnvState, rng: np.random.Generator) -> CandidateSet:
        """True next agent sentence plus c-1 distractors from other dialogues
        (`sample_distractors`), in shuffled order, with cluster ids attached."""
        if state.done:
            raise ValueError("episode is done; no candidates to generate")
        ref = state.dialogue_ref
        truth = self._offsets[self.corpus.index_of(ref)] + state.turn_index
        picked = []
        if self.candidates > 1:
            picked = sample_distractors(self.corpus, ref, self.candidates - 1, rng)
        ids = [truth] + picked
        ids = [ids[i] for i in rng.permutation(self.candidates).tolist()]
        return CandidateSet(
            truth_index=ids.index(truth),
            action_ids=tuple(int(self.sent_action[i]) for i in ids),
            sentence_ids=tuple(ids),
        )

    def step(self, state: EnvState, chosen: int, cands: CandidateSet):
        """Execute a clustered action.

        Reward is +1 iff `chosen` equals the truth sentence's cluster id.
        The uttered sentence is the truth on +1, otherwise a uniformly chosen
        candidate from the chosen cluster (`candidate_of_cluster`); the
        scripted env reply (when the dialogue has one) follows either way.
        """
        if state.done:
            raise ValueError("episode is done")
        if chosen not in cands.action_ids:
            raise ValueError(
                f"action {chosen} not among candidate clusters {cands.action_ids}"
            )
        truth_action = cands.action_ids[cands.truth_index]
        if chosen == truth_action:
            reward = 1
            uttered = cands.sentence_ids[cands.truth_index]
        else:
            reward = -1
            uttered = candidate_of_cluster(
                cands.sentence_ids, cands.action_ids, chosen, self._rng)
        di = self.corpus.index_of(state.dialogue_ref)
        start = self._offsets[di]
        n_turns = self._offsets[di + 1] - start
        new_ids = list(state.history_ids) + [uttered]
        env_reply = state.turn_index + 1
        if env_reply < n_turns:
            new_ids.append(start + env_reply)
        next_turn = state.turn_index + 2
        done = next_turn >= n_turns
        new_state = EnvState(
            dialogue_ref=state.dialogue_ref,
            history_ids=tuple(new_ids),
            turn_index=next_turn,
            done=done,
        )
        return new_state, reward, done

    def batch_states(self, id_tuples: Sequence[tuple[int, ...]]):
        """Materialize histories (as sentence-id tuples) into a padded
        (B, T, m) batch plus its lengths vector (`neuralnet.pad_batch`)."""
        return pad_batch(self._vectors, id_tuples)


def candidate_of_cluster(sentence_ids, action_ids, chosen: int,
                         rng: np.random.Generator) -> int:
    """The candidate uttered for cluster `chosen`: uniformly among the
    candidates of that cluster, where a lone candidate takes no draw from
    `rng`. The one rule for the environment and the chat REPL."""
    pool = [sid for sid, aid in zip(sentence_ids, action_ids) if aid == chosen]
    return pool[0] if len(pool) == 1 else pool[int(rng.integers(len(pool)))]


def episode_reward(rewards: Iterable[int]) -> int:
    """Sum of the per-turn rewards of one episode."""
    return int(sum(rewards))


def baseline_bounds(dialogues: Iterable[Dialogue], candidates: int = 3):
    """(upper, lower, random_expectation) mean episode rewards.

    Upper/lower assume always/never choosing the truth cluster; the random
    expectation assumes exactly one of c candidates is correct with distinct
    clusters: per turn (1/c)(+1) + ((c-1)/c)(-1) = 2/c - 1.
    """
    counts = [d.n_agent_turns for d in dialogues]
    if not counts:
        raise ValueError("empty dialogue set")
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")
    mean_agent = float(np.mean(counts))
    per_turn = 2.0 / candidates - 1.0
    return mean_agent, -mean_agent, mean_agent * per_turn
