"""Interaction ingestion, preprocessing, leave-one-out splits, and synthetic data.

Raw input is tab-separated `user<TAB>item<TAB>timestamp` lines. Preprocessing
filters rare items and inactive users, orders each user's interactions
chronologically, truncates to the most recent `max_len`, and assigns dense
1-based item indices (0 is reserved for padding). All events are implicit
feedback; duplicate (user, item) pairs stay as separate interactions.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import RngStream

# `synth` builds one id string per item (and the markov kind a successor per
# item) and one Python int per action before it writes anything, so a
# mistyped size must fail here, not as an out-of-memory kill: a million
# items take about 70 MB, ten million actions up to about 500 MB.
MAX_SYNTH_ITEMS = 1_000_000
MAX_SYNTH_ACTIONS = 10_000_000


class DataFormatError(ValueError):
    """A raw interaction line could not be parsed."""


class PreprocessError(ValueError):
    """Preprocessing left nothing to model."""


@dataclass(frozen=True)
class InteractionRecord:
    user: str
    item: str
    timestamp: int


@dataclass
class SequenceDataset:
    """Per-user chronological item-index sequences with the vocabulary maps."""

    sequences: list[list[int]]
    user_ids: list[str]
    item_ids: list[str]  # position v holds the original id of index v+1
    n_actions: int = 0  # surviving interactions before truncation

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def avg_len(self) -> float:
        return float(np.mean([len(s) for s in self.sequences]))


@dataclass(frozen=True)
class Sample:
    history: tuple[int, ...]
    target: int


@dataclass
class DatasetSplits:
    """Leave-one-out views: last item tests, second-to-last validates."""

    train: list[Sample]
    valid: list[Sample]
    test: list[Sample]
    n_excluded: int = 0
    n_train_skipped: int = 0  # train prefixes too short to supervise
    train_freqs: np.ndarray = field(default=None, repr=False)


def ingest(path) -> list[InteractionRecord]:
    """Parse `user<TAB>item<TAB>timestamp` lines; blank lines are skipped."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip():
                continue
            parts = stripped.split("\t")
            if len(parts) != 3:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected user<TAB>item<TAB>timestamp")
            user, item, ts = parts
            try:
                timestamp = int(ts)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: timestamp {ts!r} is not an integer") from None
            if timestamp < 0:
                raise DataFormatError(f"{path}: line {lineno}: negative timestamp")
            records.append(InteractionRecord(user, item, timestamp))
    return records


def preprocess(records: list[InteractionRecord], min_count: int = 5,
               max_len: int = 50, kcore_iterate: bool = False) -> SequenceDataset:
    """Filter, order, truncate, and index raw interactions.

    One pass by default: items with fewer than `min_count` occurrences go
    first, then users whose remaining sequence is shorter than `min_count`.
    `kcore_iterate` repeats both filters to a fixed point.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    kept = list(records)
    while True:
        item_counts = Counter(r.item for r in kept)
        kept = [r for r in kept if item_counts[r.item] >= min_count]
        user_counts = Counter(r.user for r in kept)
        kept = [r for r in kept if user_counts[r.user] >= min_count]
        if not kcore_iterate:
            break
        item_counts = Counter(r.item for r in kept)
        if all(c >= min_count for c in item_counts.values()):
            break
    if not kept:
        raise PreprocessError("no sequences survive preprocessing")

    by_user: dict[str, list[InteractionRecord]] = {}
    for r in kept:  # insertion order = first appearance in the file
        by_user.setdefault(r.user, []).append(r)

    item_index: dict[str, int] = {}
    item_ids: list[str] = []
    sequences, user_ids = [], []
    n_actions = 0
    for user, recs in by_user.items():
        recs = sorted(recs, key=lambda r: r.timestamp)  # stable: ties keep file order
        n_actions += len(recs)
        recs = recs[-max_len:]
        seq = []
        for r in recs:
            if r.item not in item_index:
                item_index[r.item] = len(item_ids) + 1
                item_ids.append(r.item)
            seq.append(item_index[r.item])
        sequences.append(seq)
        user_ids.append(user)
    return SequenceDataset(sequences=sequences, user_ids=user_ids,
                           item_ids=item_ids, n_actions=n_actions)


def split(dataset: SequenceDataset) -> DatasetSplits:
    """Leave-one-out views over every sequence of length >= 3.

    Training supervises only the final position of the prefix that excludes
    the validation and test targets, so it needs at least one history item
    before that; shorter prefixes are counted but skipped.
    """
    train, valid, test = [], [], []
    n_excluded = 0
    n_train_skipped = 0
    freqs = np.zeros(dataset.n_items + 1)
    for seq in dataset.sequences:
        if len(seq) < 3:
            n_excluded += 1
            continue
        prefix = seq[:-2]
        for item in prefix:
            freqs[item] += 1
        if len(prefix) >= 2:
            train.append(Sample(tuple(prefix[:-1]), prefix[-1]))
        else:
            n_train_skipped += 1
        valid.append(Sample(tuple(seq[:-2]), seq[-2]))
        test.append(Sample(tuple(seq[:-1]), seq[-1]))
    if n_excluded:
        warnings.warn(f"{n_excluded} sequences shorter than 3 excluded from splits")
    return DatasetSplits(train=train, valid=valid, test=test,
                         n_excluded=n_excluded, n_train_skipped=n_train_skipped,
                         train_freqs=freqs)


def synth(kind: str, n_users: int, n_items: int, seq_len: int,
          seed: int) -> SequenceDataset:
    """Synthetic datasets with known structure for desk-scale verification.

    cyclic: a uniform start item, then next = (current mod n_items) + 1.
    markov: a seeded transition matrix where each row routes to one dominant
    successor with probability 0.8 and spreads the rest uniformly.
    """
    if n_items < 2 or seq_len < 3 or n_users < 1:
        raise ValueError(
            f"need n_items >= 2, seq_len >= 3, n_users >= 1; "
            f"got {n_items}, {seq_len}, {n_users}")
    if n_items > MAX_SYNTH_ITEMS:
        raise ValueError(f"n_items must be at most {MAX_SYNTH_ITEMS} "
                         f"(data.MAX_SYNTH_ITEMS), got {n_items}")
    if n_users * seq_len > MAX_SYNTH_ACTIONS:
        raise ValueError(f"n_users * seq_len must be at most {MAX_SYNTH_ACTIONS} "
                         f"(data.MAX_SYNTH_ACTIONS), got {n_users} * {seq_len}")
    if kind not in ("cyclic", "markov"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    rng = RngStream(seed)
    if kind == "markov":
        dominant = rng.integers(1, n_items + 1, size=n_items)
    sequences = []
    for _ in range(n_users):
        cur = int(rng.integers(1, n_items + 1))
        seq = [cur]
        for _ in range(seq_len - 1):
            dom = (cur % n_items) + 1 if kind == "cyclic" else int(dominant[cur - 1])
            if kind == "cyclic" or float(rng.uniform(1)[0]) < 0.8:
                cur = dom
            else:  # uniform over the non-dominant successors
                pick = int(rng.integers(0, n_items - 1))
                cur = pick + 1 if pick + 1 < dom else pick + 2
            seq.append(cur)
        sequences.append(seq)
    user_ids = [f"u{i}" for i in range(n_users)]
    item_ids = [str(i) for i in range(1, n_items + 1)]
    n_actions = sum(len(s) for s in sequences)
    return SequenceDataset(sequences=sequences, user_ids=user_ids,
                           item_ids=item_ids, n_actions=n_actions)


def save_processed(dataset: SequenceDataset, out_dir) -> None:
    """Write `sequences.txt` (space-separated indices, one user per line)
    and `vocab.tsv` (`index<TAB>original_item_id`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sequences.txt", "w") as fh:
        for seq in dataset.sequences:
            fh.write(" ".join(str(i) for i in seq) + "\n")
    with open(out / "vocab.tsv", "w") as fh:
        for idx, item in enumerate(dataset.item_ids, start=1):
            fh.write(f"{idx}\t{item}\n")


def _index(token: str, path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataFormatError(
            f"{path}: line {lineno}: item index {token!r} is not an integer") from None


def load_processed(data_dir) -> SequenceDataset:
    base = Path(data_dir)
    seq_path = base / "sequences.txt"
    vocab_path = base / "vocab.tsv"
    if not seq_path.exists() or not vocab_path.exists():
        raise FileNotFoundError(
            f"{data_dir} must contain sequences.txt and vocab.tsv")
    sequences = []
    with open(seq_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                sequences.append([_index(tok, seq_path, lineno) for tok in line.split()])
    item_ids = []
    with open(vocab_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            idx_str, tab, item = line.rstrip("\n").partition("\t")
            if not tab:
                raise DataFormatError(f"{vocab_path}: line {lineno}: expected index<TAB>item_id")
            if _index(idx_str, vocab_path, lineno) != len(item_ids) + 1:
                raise DataFormatError(f"{vocab_path}: line {lineno}: non-contiguous index, "
                                      f"expected {len(item_ids) + 1}")
            item_ids.append(item)
    n_items = len(item_ids)
    for seq in sequences:
        if any(i < 1 or i > n_items for i in seq):
            raise DataFormatError(f"{seq_path}: item index outside [1, {n_items}]")
    user_ids = [f"u{i}" for i in range(len(sequences))]
    n_actions = sum(len(s) for s in sequences)
    return SequenceDataset(sequences=sequences, user_ids=user_ids,
                           item_ids=item_ids, n_actions=n_actions)
