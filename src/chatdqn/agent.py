"""ChatDQN learner: epsilon-greedy selection restricted to candidate
clusters, FIFO replay memory, a periodically synchronized target network,
TD targets over the next turn's candidate clusters, and the training and
greedy-evaluation loops.

States live in replay as tuples of global sentence ids (already truncated
to the history cap); the environment materializes them into padded batches
on demand.

Each replay slot also caches its TD target. The target network is frozen
between syncs, so a transition's target is a fixed number until the next
`sync_target`: a learn step runs the target network only on the sampled
slots whose cache is stale, that is, filled or overwritten since their
target was computed, or not computed since the last sync.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .clustering import ClusterModel
from .corpus import Corpus, require_field_types, stable_seed
from .environment import DialogueEnv, episode_reward
from .neuralnet import Adam, QNetwork, qnet_loss_and_grads

__all__ = [
    "AgentConfig",
    "Transition",
    "ReplayMemory",
    "RunReport",
    "EvalResult",
    "ChatDQNAgent",
    "select_action",
    "epsilon_at",
    "compute_targets",
    "moving_average",
    "train",
    "evaluate",
]


@dataclass
class AgentConfig:
    """Hyperparameters of one ChatDQN run.

    embedding_dim is 100 or 300 for the shipped GloVe files but any positive
    dim is accepted (synthetic tables are smaller).
    """

    n_actions: int = 100
    embedding_dim: int = 100
    hidden_dim: int = 256
    candidates: int = 3
    history_len: int = 50
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay_steps: int | None = None  # default: learn_steps // 2
    burn_in: int = 3000
    batch_size: int = 128
    target_sync_period: int = 10_000
    learn_steps: int = 50_000
    test_steps: int = 100_000
    memory_capacity: int = 10_000
    dropout_rate: float = 0.2
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("need 0 < gamma <= 1")
        if self.burn_in > self.learn_steps:
            raise ValueError("burn_in must not exceed learn_steps")
        for name in ("n_actions", "embedding_dim", "hidden_dim", "candidates",
                     "history_len", "batch_size", "target_sync_period",
                     "memory_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learn_steps < 0 or self.test_steps < 1 or self.burn_in < 0:
            raise ValueError("invalid step budget")
        if self.batch_size > self.memory_capacity:
            raise ValueError("batch_size must not exceed memory_capacity")
        if self.epsilon_decay_steps is not None and self.epsilon_decay_steps < 1:
            raise ValueError("epsilon_decay_steps must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must satisfy 0 <= rate < 1, got {self.dropout_rate}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class Transition:
    """Replayed step; states are global-sentence-id tuples (see module doc)."""

    s: tuple[int, ...]
    a: int
    r: int
    s_next: tuple[int, ...]
    done: bool
    candidate_ids_next: tuple[int, ...]  # dedup'd cluster ids of the next turn


class ReplayMemory:
    """Fixed-capacity FIFO ring buffer of transitions, one per slot, with a
    cached TD target per slot in `targets`.

    NaN marks a stale target. `append` marks the slot it fills or
    overwrites stale, and `mark_stale` marks every slot stale (the agent
    calls it at each target sync). `compute_targets` refuses non-finite
    targets, so a stale slot can never pass for a computed one.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._pos = 0
        self.targets = np.full(capacity, np.nan)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, slot: int) -> Transition:
        return self._items[slot]

    def append(self, t: Transition) -> None:
        if len(self._items) < self.capacity:
            slot = len(self._items)
            self._items.append(t)
        else:
            slot = self._pos  # overwrite oldest
            self._items[slot] = t
            self._pos = (slot + 1) % self.capacity
        self.targets[slot] = np.nan

    def mark_stale(self) -> None:
        self.targets.fill(np.nan)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n distinct slots drawn uniformly: `rng.choice(len(self), n,
        replace=False)`."""
        if n > len(self._items):
            raise ValueError(f"cannot sample {n} of {len(self._items)} transitions")
        return rng.choice(len(self._items), size=n, replace=False)


@dataclass
class RunReport:
    """Per-episode training rewards of one run.

    wall_clock_s is informational only and is never serialized (reports must
    be byte-identical across reruns).
    """

    episode_rewards: list[int] = field(default_factory=list)
    moving_avg: list[float] = field(default_factory=list)
    episodes: int = 0
    steps: int = 0
    wall_clock_s: float | None = None


@dataclass
class EvalResult:
    mean_reward: float
    episode_rewards: list[int]
    dialogue_ids: list[str]
    steps_used: int
    truncated: bool


def select_action(qvals, candidate_ids, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the candidate clusters only.

    `qvals` is the Q-value vector, or a callable that returns it, which is
    called only on a greedy step. Duplicate candidate ids collapse to a set;
    greedy ties break to the lowest id. The rng is consumed identically on
    both branches so paired evaluations stay aligned.
    """
    ids = sorted(set(int(i) for i in candidate_ids))
    if not ids:
        raise ValueError("empty candidate set")
    explore = rng.random() < epsilon
    pick = ids[int(rng.integers(len(ids)))]  # drawn on both branches: keeps
    if explore:                              # stream consumption identical
        return pick
    qvals = np.asarray(qvals() if callable(qvals) else qvals)
    best = ids[0]
    for i in ids[1:]:
        if qvals[i] > qvals[best]:
            best = i
    return int(best)


def epsilon_at(step: int, cfg: AgentConfig) -> float:
    """epsilon_start through burn-in, then a linear anneal to epsilon_end
    over epsilon_decay_steps (default learn_steps // 2), constant after."""
    if step < 0:
        raise ValueError("step must be >= 0")
    decay = cfg.epsilon_decay_steps
    if decay is None:
        decay = max(1, cfg.learn_steps // 2)
    progress = (step - cfg.burn_in) / decay
    progress = min(1.0, max(0.0, progress))
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * progress


def compute_targets(
    transitions: Sequence[Transition],
    target_net: QNetwork,
    gamma: float,
    materialize: Callable[[Sequence[tuple[int, ...]]], tuple],
) -> np.ndarray:
    """TD targets: r for terminal steps, else r + gamma * max over the next
    turn's candidate clusters of the target network's Q-values."""
    if not transitions:
        raise ValueError("empty batch")
    y = np.array([t.r for t in transitions], dtype=np.float64)
    live = [i for i, t in enumerate(transitions) if not t.done]
    if live:
        X, lengths = materialize([transitions[i].s_next for i in live])
        Q = target_net.forward(X, lengths)
        for pos, i in enumerate(live):
            cand = transitions[i].candidate_ids_next
            y[i] += gamma * float(max(Q[pos, c] for c in cand))
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite TD target")
    return y


class ChatDQNAgent:
    """Owns the online/target networks, optimizer, replay memory, and the
    named rng streams that make runs reproducible.

    The online network computes in float32. The target network is a float64
    copy of it, and `sync_target` upcasts the online weights into it, which
    is exact: TD targets and the replay target cache stay float64.

    `target_rows_computed` and `target_rows_cached` count the TD targets of
    sampled slots that learn steps computed and that they read from the
    replay cache.
    """

    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.net = QNetwork(
            cfg.embedding_dim, cfg.hidden_dim, cfg.n_actions,
            dropout_rate=cfg.dropout_rate,
            rng=np.random.default_rng([cfg.seed, 0]),
        ).astype(np.float32)
        self.target = self.net.astype(np.float64)
        self.optimizer = Adam(self.net.params(), lr=cfg.learning_rate)
        self.memory = ReplayMemory(cfg.memory_capacity)
        self.rng_explore = np.random.default_rng([cfg.seed, 3])
        self.rng_replay = np.random.default_rng([cfg.seed, 4])
        self.rng_dropout = np.random.default_rng([cfg.seed, 5])
        self.global_step = 0
        self.sync_history: list[int] = []
        self.target_rows_computed = 0
        self.target_rows_cached = 0

    def sync_target(self) -> None:
        self.target.load_params(self.net.params())
        self.memory.mark_stale()

    def train_step(self, slots: np.ndarray, materialize) -> float:
        """One TD regression step on the replay slots `slots`; returns the
        batch loss. Only the stale slots' targets are computed, in one
        `compute_targets` call, and then cached."""
        slots = np.asarray(slots, dtype=np.int64)
        batch = [self.memory[i] for i in slots]
        y = self.memory.targets[slots]
        stale = np.flatnonzero(np.isnan(y))
        if stale.size:
            y[stale] = compute_targets(
                [batch[i] for i in stale], self.target, self.cfg.gamma, materialize)
            self.memory.targets[slots[stale]] = y[stale]
        self.target_rows_computed += stale.size
        self.target_rows_cached += len(slots) - stale.size
        X, lengths = materialize([t.s for t in batch])
        actions = np.array([t.a for t in batch], dtype=np.int64)
        loss, grads = qnet_loss_and_grads(
            self.net, X, lengths, actions, y,
            train_mode=True, rng=self.rng_dropout,
        )
        self.optimizer.step(self.net.params(), grads)
        return loss


def moving_average(values: Sequence[float], window: int = 100) -> list[float]:
    """Trailing mean over at most `window` values, one point per input."""
    out = []
    csum = 0.0
    vals = list(values)
    for i, v in enumerate(vals):
        csum += v
        if i >= window:
            csum -= vals[i - window]
        out.append(csum / min(i + 1, window))
    return out


def _subset(corpus: Corpus, dialogue_ids: Sequence[str] | None):
    """The dialogues `dialogue_ids` of corpus (all when None), in that order,
    and the index of their rows in the corpus's sentence vectors."""
    if dialogue_ids is None:
        return corpus, slice(None)
    offsets = corpus.turn_index[0]
    rows = [r for i in map(corpus.index_of, dialogue_ids)
            for r in range(offsets[i], offsets[i + 1])]
    return corpus.subset(dialogue_ids), rows


def train(
    corpus: Corpus,
    cfg: AgentConfig,
    sentence_model: ClusterModel,
    vectors: np.ndarray,
    dialogue_ids: Sequence[str] | None = None,
    log: Callable[[str], None] | None = None,
) -> tuple[RunReport, ChatDQNAgent, DialogueEnv]:
    """Run the learning loop on a dialogue split (default: whole corpus).

    `vectors` holds the corpus's sentence vectors (`embed_corpus`). Episodes
    are sampled uniformly with replacement; candidate distractors
    come from the split itself. Training stops at the first episode boundary
    at or past cfg.learn_steps. Returns the report, the trained agent, and
    the environment, whose `batch_states` materializes the replayed states.
    """
    split, rows = _subset(corpus, dialogue_ids)
    if len(split) == 0:
        raise ValueError("empty training split")
    if sentence_model.k != cfg.n_actions:
        raise ValueError(
            f"cluster model has k={sentence_model.k} but config expects {cfg.n_actions}"
        )
    env = DialogueEnv(
        split, sentence_model, vectors[rows], candidates=cfg.candidates,
        rng=np.random.default_rng([cfg.seed, 6]),
    )
    agent = ChatDQNAgent(cfg)
    rng_episode = np.random.default_rng([cfg.seed, 1])
    rng_cand = np.random.default_rng([cfg.seed, 2])
    started = time.monotonic()
    rewards: list[int] = []
    cap = cfg.history_len

    def acting_q(state) -> np.ndarray:
        return agent.net.forward(*env.batch_states([state.history_ids[-cap:]]))[0]

    while agent.global_step < cfg.learn_steps:
        d = split.dialogues[int(rng_episode.integers(len(split)))]
        state = env.reset(d)
        cands = env.make_candidates(state, rng_cand)
        ep_rewards: list[int] = []
        while True:
            eps = epsilon_at(agent.global_step, cfg)
            # an exploring step draws the same numbers and runs no forward
            action = select_action(lambda: acting_q(state), cands.action_ids, eps,
                                   agent.rng_explore)
            next_state, r, done = env.step(state, action, cands)
            next_cands = None if done else env.make_candidates(next_state, rng_cand)
            agent.memory.append(
                Transition(
                    s=state.history_ids[-cap:],
                    a=action,
                    r=r,
                    s_next=next_state.history_ids[-cap:],
                    done=done,
                    candidate_ids_next=(
                        () if next_cands is None
                        else tuple(sorted(set(next_cands.action_ids)))
                    ),
                )
            )
            agent.global_step += 1
            ep_rewards.append(r)
            if len(agent.memory) >= max(cfg.burn_in, cfg.batch_size):
                slots = agent.memory.sample(cfg.batch_size, agent.rng_replay)
                agent.train_step(slots, env.batch_states)
            if agent.global_step % cfg.target_sync_period == 0:
                agent.sync_target()
                agent.sync_history.append(agent.global_step)
            if done:
                break
            state, cands = next_state, next_cands
        rewards.append(episode_reward(ep_rewards))
        if log is not None and len(rewards) % 200 == 0:
            ma = float(np.mean(rewards[-100:]))
            log(f"episode {len(rewards)}: step {agent.global_step}, ma100 {ma:+.3f}")

    report = RunReport(
        episode_rewards=rewards,
        moving_avg=moving_average(rewards),
        episodes=len(rewards),
        steps=agent.global_step,
        wall_clock_s=time.monotonic() - started,
    )
    return report, agent, env


def evaluate(
    net: QNetwork,
    corpus: Corpus,
    cfg: AgentConfig,
    sentence_model: ClusterModel,
    vectors: np.ndarray,
    dialogue_ids: Sequence[str] | None = None,
    seed: int = 0,
    policy: Callable | None = None,
) -> EvalResult:
    """Greedy (epsilon=0) evaluation: one pass over the dialogue set, capped
    at cfg.test_steps env turns. `vectors` holds the corpus's sentence
    vectors (`embed_corpus`).

    The evaluated dialogues are the longest prefix of the set whose agent
    turns fit the budget, fixed before the first turn. They run in lockstep
    rounds, each of which gives every dialogue not yet done one turn:
    1. each dialogue, in order, draws its candidates from its own rng,
       seeded by `stable_seed(seed, dialogue id)`, so different policies
       face identical candidate sequences;
    2. the Q-values of all of them come from one `QNetwork.forward_carried`
       call: a dialogue whose history still fits cfg.history_len carries on
       from its saved hidden states over the sentences added since its last
       turn, and one whose window slides restarts from the zero state over
       its last history_len sentences;
    3. each dialogue, in order, takes its action and its env step.
    The env's own rng, which picks the uttered sentence after a wrong pick
    of a cluster that two candidates share, serves every dialogue, so its
    draws follow this round-by-round order.

    `policy` (for stubs/oracles) takes (state, cands, env) and returns an
    action id; it replaces step 2's network and is called in step 3, round
    by round. The default is the greedy policy of `net`.
    """
    subset, rows = _subset(corpus, dialogue_ids)
    if len(subset) == 0:
        raise ValueError("empty evaluation set")
    env = DialogueEnv(
        subset, sentence_model, vectors[rows], candidates=cfg.candidates,
        rng=np.random.default_rng([seed, 7]),
    )
    dialogues = []
    budget = cfg.test_steps
    for d in subset.dialogues:
        if d.n_agent_turns > budget:
            break
        dialogues.append(d)
        budget -= d.n_agent_turns
    if not dialogues:
        raise ValueError("evaluation budget too small for a single episode")

    n = len(dialogues)
    cap = cfg.history_len
    states = [env.reset(d) for d in dialogues]
    rngs = [np.random.default_rng(stable_seed(seed, d.id)) for d in dialogues]
    rewards: list[list[int]] = [[] for _ in dialogues]
    if policy is None:
        # the two layers' hidden states after each dialogue's first seen[i]
        # sentences, or after its window, once the window slides
        carried = np.zeros((2, n, net.hidden_dim), dtype=net.head["W"].dtype)
        seen = [0] * n
    steps = 0
    live = list(range(n))
    while live:
        cands = [env.make_candidates(states[i], rngs[i]) for i in live]
        if policy is None:
            for i in live:
                n_hist = len(states[i].history_ids)
                if n_hist > cap:  # the window slid: restart from zero over it
                    carried[:, i] = 0.0
                    seen[i] = n_hist - cap
            X, lengths = env.batch_states([states[i].history_ids[seen[i]:] for i in live])
            q, carried[:, live] = net.forward_carried(X, lengths, carried[:, live])
            for i in live:
                seen[i] = len(states[i].history_ids)
        for j, i in enumerate(live):
            if policy is None:
                action = select_action(q[j], cands[j].action_ids, 0.0, rngs[i])
            else:
                action = policy(states[i], cands[j], env)
            states[i], r, _ = env.step(states[i], action, cands[j])
            rewards[i].append(r)
            steps += 1
        live = [i for i in live if not states[i].done]
    per_episode = [episode_reward(ep) for ep in rewards]
    return EvalResult(
        mean_reward=float(np.mean(per_episode)),
        episode_rewards=per_episode,
        dialogue_ids=[d.id for d in dialogues],
        steps_used=steps,
        truncated=len(dialogues) < len(subset),
    )
