"""Dialogue data model, JSONL corpus I/O, cluster-based splits, distractor
sampling, distorted-dialogue generation for the reward-regression study, and
`stable_seed`, which derives sub-seeds from ints and dialogue ids.

A dialogue is an alternating env/agent transcript that always opens on the
env (human) side. The canonical on-disk format is JSONL, one dialogue per
line: {"id": ..., "turns": [{"speaker": "env"|"agent", "text": ...}, ...]}.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .checkpoint import atomic_write, read_json, write_json
from .clustering import ClusterModel, assign_many
from .embeddings import tokenize

__all__ = [
    "ENV",
    "AGENT",
    "Turn",
    "Dialogue",
    "Corpus",
    "DataSplit",
    "DistortedDialogue",
    "validate_dialogue",
    "load_corpus",
    "save_corpus",
    "ingest_personachat",
    "corpus_stats",
    "split_corpus",
    "save_splits",
    "load_splits",
    "sample_distractors",
    "distort_dialogue",
]

ENV = "env"
AGENT = "agent"


@dataclass(frozen=True)
class Turn:
    speaker: str
    text: str


@dataclass(frozen=True, eq=False)
class Dialogue:
    """Validated construction goes through `validate_dialogue` (load path);
    direct construction is unchecked so tests can build malformed inputs."""

    id: str
    turns: tuple[Turn, ...]

    @property
    def agent_turn_indices(self) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.turns) if t.speaker == AGENT)

    @property
    def n_agent_turns(self) -> int:
        return len(self.agent_turn_indices)


def validate_dialogue(d: Dialogue) -> None:
    """Enforce the dialogue invariants: >= 2 turns, nonempty text, strict
    env/agent alternation starting on the env side."""
    if len(d.turns) < 2:
        raise ValueError(f"dialogue {d.id!r}: fewer than 2 turns")
    for i, turn in enumerate(d.turns):
        expected = ENV if i % 2 == 0 else AGENT
        if turn.speaker != expected:
            raise ValueError(
                f"dialogue {d.id!r}: turn {i} speaker {turn.speaker!r}, expected {expected!r}"
            )
        if not turn.text.strip():
            raise ValueError(f"dialogue {d.id!r}: turn {i} has empty text")


class Corpus:
    """Immutable ordered collection of dialogues with id lookup."""

    def __init__(self, dialogues: Iterable[Dialogue]):
        self._dialogues = tuple(dialogues)
        self._by_id = {d.id: i for i, d in enumerate(self._dialogues)}
        if len(self._by_id) != len(self._dialogues):
            raise ValueError("duplicate dialogue id in corpus")

    @property
    def dialogues(self) -> tuple[Dialogue, ...]:
        return self._dialogues

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self._dialogues)

    def __len__(self) -> int:
        return len(self._dialogues)

    def __iter__(self):
        return iter(self._dialogues)

    def get(self, dialogue_id: str) -> Dialogue:
        return self._dialogues[self._by_id[dialogue_id]]

    def index_of(self, dialogue_id: str) -> int:
        return self._by_id[dialogue_id]

    def subset(self, dialogue_ids: Sequence[str]) -> "Corpus":
        return Corpus(self.get(i) for i in dialogue_ids)

    @functools.cached_property
    def turn_index(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """(offsets, texts): every turn's text in corpus order, dialogue i
        owning texts[offsets[i]:offsets[i + 1]]. A position in it is a sentence
        id, the only numbering of the corpus's sentences: the rows of
        `embed_corpus`, the environment's states and candidates, and the
        reward study's distorted dialogues."""
        offsets, texts = [0], []
        for d in self._dialogues:
            texts.extend(t.text for t in d.turns)
            offsets.append(len(texts))
        return tuple(offsets), tuple(texts)


@dataclass(frozen=True)
class DataSplit:
    split_id: int
    dialogue_ids: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class DistortedDialogue:
    """A dialogue as sentence ids of its corpus's turn index, with some agent
    turns swapped for distractors' ids.

    label = (#agent turns kept) - (#agent turns replaced), i.e. exactly the
    episode reward an agent uttering these turns would earn.
    """

    sentence_ids: tuple[int, ...]
    label: int


def load_corpus(path: str) -> Corpus:
    """Read and validate a JSONL corpus, one dialogue object per line. An
    error starts with `<path>:<line>:` and names the dialogue once its id is
    read."""
    dialogues: list[Dialogue] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                dialogues.append(_parse_dialogue(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return Corpus(dialogues)


def _parse_dialogue(line: str) -> Dialogue:
    """One corpus line's dialogue, validated."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    did = obj.get("id")
    if not isinstance(did, str) or not did:
        raise ValueError("missing dialogue id")
    raw_turns = obj.get("turns")
    if not isinstance(raw_turns, list):
        raise ValueError(f"dialogue {did!r}: missing turns")
    turns = []
    for i, t in enumerate(raw_turns):
        if not (isinstance(t, dict) and isinstance(t.get("speaker"), str)
                and isinstance(t.get("text"), str)):
            raise ValueError(f"dialogue {did!r}: turn {i} is not an object with "
                             "string speaker and text")
        turns.append(Turn(speaker=t["speaker"], text=t["text"]))
    d = Dialogue(id=did, turns=tuple(turns))
    validate_dialogue(d)
    return d


def save_corpus(corpus: Corpus, path: str) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for d in corpus:
            obj = {
                "id": d.id,
                "turns": [{"speaker": t.speaker, "text": t.text} for t in d.turns],
            }
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def ingest_personachat(in_path: str) -> Corpus:
    """Convert a parl.ai Persona-Chat text export to the internal model,
    numbering its dialogues `pc-00001`, `pc-00002`, ... in file order.

    Lines look like `N text` with N restarting at 1 for each new dialogue;
    persona lines (`N your persona: ...` / `N partner's persona: ...`) are
    skipped; utterance lines are tab-separated with the human turn first and
    the bot/agent turn second (extra tab fields such as candidate lists are
    ignored).
    """
    dialogues: list[Dialogue] = []
    turns: list[Turn] = []
    prev_n = 0
    counter = 0

    def flush():
        nonlocal turns, counter
        if turns:
            counter += 1
            d = Dialogue(id=f"pc-{counter:05d}", turns=tuple(turns))
            validate_dialogue(d)
            dialogues.append(d)
            turns = []

    with open(in_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            head, _, rest = line.partition(" ")
            try:
                n = int(head)
            except ValueError:
                raise ValueError(f"line {lineno}: expected a leading line number")
            if n <= prev_n:
                flush()
            prev_n = n
            if rest.startswith("your persona:") or rest.startswith("partner's persona:"):
                continue
            fields = rest.split("\t")
            if len(fields) < 2 or not fields[0].strip() or not fields[1].strip():
                raise ValueError(f"line {lineno}: expected `human\\tagent` utterances")
            turns.append(Turn(speaker=ENV, text=fields[0].strip()))
            turns.append(Turn(speaker=AGENT, text=fields[1].strip()))
    flush()
    return Corpus(dialogues)


def corpus_stats(corpus: Corpus) -> dict:
    """Headline numbers: dialogue/turn counts, mean turns, vocabulary size."""
    n_turns = sum(len(d.turns) for d in corpus)
    n_agent = sum(d.n_agent_turns for d in corpus)
    vocab: set[str] = set()
    for d in corpus:
        for t in d.turns:
            vocab.update(tokenize(t.text))
    n = len(corpus)
    return {
        "dialogues": n,
        "turns": n_turns,
        "agent_turns": n_agent,
        "mean_turns_per_dialogue": (n_turns / n) if n else 0.0,
        "mean_agent_turns_per_dialogue": (n_agent / n) if n else 0.0,
        "vocabulary": len(vocab),
    }


def split_corpus(
    corpus: Corpus, dialogue_model: ClusterModel, points: np.ndarray
) -> list[DataSplit]:
    """Partition dialogues by the cluster of their dialogue vector, points[i]
    being the vector of the i-th dialogue (see `clustering.dialogue_vectors`),
    labelled by `clustering.assign_many`, the nearest-centroid rule of `fit`.

    Returns one DataSplit per cluster id (possibly empty) so split_id always
    equals the cluster id.
    """
    if len(points) != len(corpus):
        raise ValueError(f"{len(points)} dialogue vectors for {len(corpus)} dialogues")
    buckets: list[list[str]] = [[] for _ in range(dialogue_model.k)]
    for d, j in zip(corpus, assign_many(dialogue_model, points).tolist()):
        buckets[j].append(d.id)
    return [
        DataSplit(split_id=j, dialogue_ids=tuple(ids)) for j, ids in enumerate(buckets)
    ]


def save_splits(splits: Sequence[DataSplit], path: str, extra: dict | None = None) -> None:
    obj = {
        "version": 1,
        "splits": {str(s.split_id): list(s.dialogue_ids) for s in splits},
    }
    if extra:
        obj.update(extra)
    write_json(path, obj)


def load_splits(path: str) -> list[DataSplit]:
    obj = read_json(path)
    if obj.get("version") != 1:
        raise ValueError(f"{path}: unsupported splits version: {obj.get('version')!r}")
    if "splits" not in obj:
        raise ValueError(f"{path}: splits file has no 'splits' key")
    items = sorted(((int(k), v) for k, v in obj["splits"].items()))
    return [DataSplit(split_id=k, dialogue_ids=tuple(v)) for k, v in items]


def sample_distractors(
    corpus: Corpus, exclude_id: str | None, n: int, rng: np.random.Generator
) -> list[int]:
    """Draw n turn positions in the corpus's turn index, uniformly without
    replacement, from the turns of every dialogue except `exclude_id`.

    A pick p indexes the corpus's turns with the excluded dialogue's block
    cut out, so it maps to turn p, or to p + (block length) past the block.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    offsets, texts = corpus.turn_index
    lo = hi = 0
    if exclude_id is not None:
        i = corpus._by_id.get(exclude_id)
        if i is None:
            raise ValueError(f"unknown dialogue id {exclude_id!r}")
        lo, hi = offsets[i], offsets[i + 1]
    skip = hi - lo
    available = len(texts) - skip
    if n > available:
        raise ValueError(
            f"requested {n} distractors but only {available} sentences available"
        )
    picks = rng.choice(available, size=n, replace=False)
    return [p + skip if p >= lo else p for p in picks.tolist()]


def distort_dialogue(
    d: Dialogue,
    replace_fraction: float,
    corpus: Corpus,
    rng: np.random.Generator,
) -> DistortedDialogue:
    """The sentence ids of `d`, a dialogue of `corpus`, with ceil(replace_fraction
    * #agent turns) agent turns, chosen uniformly without replacement, replaced
    by `sample_distractors` picks. Env turns and the turn count never change."""
    if not 0.0 <= replace_fraction <= 1.0:
        raise ValueError(f"replace_fraction must be in [0, 1], got {replace_fraction}")
    agent_idx = d.agent_turn_indices
    n_agent = len(agent_idx)
    n_replace = math.ceil(replace_fraction * n_agent)
    start = corpus.turn_index[0][corpus.index_of(d.id)]
    ids = list(range(start, start + len(d.turns)))
    if n_replace:
        chosen = set(
            int(c) for c in rng.choice(n_agent, size=n_replace, replace=False)
        )
        picks = sample_distractors(corpus, d.id, n_replace, rng)
        replaced = [turn_i for pos, turn_i in enumerate(agent_idx) if pos in chosen]
        for turn_i, p in zip(replaced, picks):
            ids[turn_i] = p
    return DistortedDialogue(sentence_ids=tuple(ids), label=n_agent - 2 * n_replace)


def stable_seed(*parts: int | str) -> int:
    """Derive a reproducible 32-bit sub-seed from int and str parts; a str
    enters as one int, its UTF-8 bytes read big-endian."""
    ints = [int.from_bytes(p.encode("utf-8"), "big") if isinstance(p, str) else int(p)
            for p in parts]
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


# annotation -> (the types a field of it takes, their name in an error)
_FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a finite number"),
                "str": ((str,), "a string")}


def require_field_types(obj) -> None:
    """Raise ValueError unless each `int`, `float` or `str` field of the
    dataclass `obj` holds a value of its annotated type. An `int` field
    takes an int, not a bool or a float (such as a config file's `true` or
    `8.0`); a `float` field takes a finite int or float, not a bool, a str
    or a NaN; a `str` field takes a str (a config's path `5` is refused).
    A field annotated `... | None` may also hold None. The annotations are
    read as the strings that `from __future__ import annotations` leaves."""
    for f in dataclasses.fields(obj):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if kind not in _FIELD_TYPES or value is None and optional == "None":
            continue
        types, noun = _FIELD_TYPES[kind]
        if (isinstance(value, bool) or not isinstance(value, types)
                or kind == "float" and not math.isfinite(value)):
            raise ValueError(f"{f.name} must be {noun}, got {value!r}")
