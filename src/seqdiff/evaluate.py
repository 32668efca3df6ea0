"""Full-ranking evaluation, breakdowns, baselines, and the uncertainty probe.

Every target is ranked against the whole vocabulary (no sampled negatives).
Each sequence gets its own random stream derived from (base seed, sequence
index), and a row's representation does not depend on its batch, so
evaluation order and batching do not matter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .infer import ROWS_PER_CALL, Scorer, check_items, rank_items
from .metrics import DEFAULT_KS, EvalReport, report_from_ranks
from .rng import RngStream

MAX_REVERSALS = 100_000  # most reversals one probe takes; each holds a stream and a row


@dataclass(frozen=True)
class UncertaintyProbe:
    unique_item_count: int


def target_rank(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each row's target in a (B, V+1) score block: 1 + the higher
    scores + the ties in columns 1..target-1, so ties go to the lower index."""
    targets = np.asarray(targets)
    s_t = np.take_along_axis(scores, targets[:, None], axis=1)
    before = np.arange(1, scores.shape[1]) < targets[:, None]
    tied_before = np.sum((scores[:, 1:] == s_t) & before, axis=1)
    return 1 + np.sum(scores > s_t, axis=1) + tied_before


def rank_records(scorer: Scorer, samples: list[Sample], rng_base: RngStream,
                 mask_history: bool = False) -> list[int]:
    """The 1-based rank of each sample's target, in sample order, from one
    batch; sample i uses rng_base.derive(i).

    Every target must be in [1, n_items]. `mask_history` drops every item of
    the full history (not only the scorer's truncation window) from the
    candidates, so each must be in [1, n_items] too.
    """
    if not samples:
        raise ValueError("evaluation split is empty")
    targets = np.array([s.target for s in samples])
    bad = targets[(targets < 1) | (targets > scorer.n_items)]
    if bad.size:
        raise ValueError(f"target item {bad[0]} is outside [1, {scorer.n_items}]")
    if mask_history:
        for s in samples:
            check_items(s.history, scorer.n_items)
    vectors = scorer.represent_batch([s.history for s in samples],
                                     [rng_base.derive(i) for i in range(len(samples))])
    ranks = []
    for a in range(0, len(samples), ROWS_PER_CALL):
        chunk = samples[a:a + ROWS_PER_CALL]
        scores = scorer.score_vector(vectors[a:a + ROWS_PER_CALL])
        if mask_history:
            seen = [(i, item) for i, s in enumerate(chunk)
                    for item in s.history if item != s.target]
            if seen:
                scores[tuple(zip(*seen))] = -np.inf
        ranks.extend(target_rank(scores, targets[a:a + ROWS_PER_CALL]).tolist())
    return ranks


def evaluate(scorer: Scorer, samples: list[Sample], seed: int, ks=DEFAULT_KS) -> EvalReport:
    """Mean HR@K / NDCG@K of a scorer over an evaluation split."""
    return report_from_ranks(rank_records(scorer, samples, RngStream(seed)), ks=ks)


def head_items(train_freqs: np.ndarray, n_items: int) -> set[int]:
    """The 20% most frequent items; boundary ties go to the lower index."""
    return set(rank_items(train_freqs[: n_items + 1])[: int(0.2 * n_items)].tolist())


def head_tail_report(samples: list[Sample], ranks: list[int], train_freqs: np.ndarray,
                     n_items: int, ks=DEFAULT_KS) -> tuple[EvalReport, EvalReport]:
    """Split the samples' ranks by head/long-tail membership of the target item."""
    head = head_items(train_freqs, n_items)
    head_ranks = [r for s, r in zip(samples, ranks, strict=True) if s.target in head]
    tail_ranks = [r for s, r in zip(samples, ranks, strict=True) if s.target not in head]
    return (report_from_ranks(head_ranks, ks=ks, label="head"),
            report_from_ranks(tail_ranks, ks=ks, label="tail"))


def length_bucket_report(samples: list[Sample], ranks: list[int],
                         ks=DEFAULT_KS) -> list[EvalReport]:
    """The samples' ranks in five reports, cut at the 20/40/60/80 percentiles
    of their history lengths (short to long)."""
    if len(samples) < 5:
        warnings.warn("fewer than 5 sequences; falling back to a single bucket")
        return [report_from_ranks(ranks, ks=ks, label="all-lengths")]
    lengths = [len(s.history) for s in samples]
    bounds = np.percentile(lengths, [20, 40, 60, 80], method="lower")
    buckets: list[list[int]] = [[] for _ in range(5)]
    for length, rank in zip(lengths, ranks, strict=True):
        buckets[int(np.searchsorted(bounds, length, side="left"))].append(rank)
    labels = ["len_q1", "len_q2", "len_q3", "len_q4", "len_q5"]
    return [report_from_ranks(b, ks=ks, label=lab) for b, lab in zip(buckets, labels)]


def uncertainty_probe(scorer: Scorer, sequence, n_reverses: int = 100,
                      k: int = 20, base_seed: int = 0
                      ) -> tuple[UncertaintyProbe, np.ndarray]:
    """Reverse the same history n times under seeds base..base+n-1.

    Returns the union size of the top-k lists plus the raw reversed vectors
    (one row per reversal), which downstream projection tools can consume.
    """
    if n_reverses < 1:
        raise ValueError(f"the probe needs at least 1 reversal, got {n_reverses}")
    if n_reverses > MAX_REVERSALS:  # before the per-reversal inputs are built
        raise ValueError(f"the probe takes at most {MAX_REVERSALS} reversals "
                         f"(evaluate.MAX_REVERSALS), got {n_reverses}")
    if k < 1:
        raise ValueError(f"top-k must be at least 1, got {k}")
    vectors = scorer.represent_batch(
        [sequence] * n_reverses, [RngStream(base_seed + j) for j in range(n_reverses)])
    if k > scorer.n_items:  # after represent_batch, which names a bad history item first
        raise ValueError(f"top-k {k} exceeds the catalogue's {scorer.n_items} items")
    tops = [rank_items(scorer.score_vector(vectors[a:a + ROWS_PER_CALL]))[:, :k]
            for a in range(0, n_reverses, ROWS_PER_CALL)]
    return UncertaintyProbe(len(np.unique(np.concatenate(tops)))), vectors


class PopularityScorer(Scorer):
    """Scores items by training frequency (its representation); ignores the history."""

    def __init__(self, train_freqs: np.ndarray):
        self.freqs = np.asarray(train_freqs, dtype=float)
        if self.freqs[1:].sum() == 0:
            raise ValueError("no training interactions to rank by")
        self.n_items = len(self.freqs) - 1

    def represent(self, history, rng: RngStream | None = None) -> np.ndarray:
        return self.freqs

    def represent_batch(self, histories, rngs) -> np.ndarray:
        # a read-only view: B rows of the one frequency vector take no memory
        return np.broadcast_to(self.freqs, (len(histories), len(self.freqs)))

    def score_vector(self, vecs: np.ndarray) -> np.ndarray:
        scores = np.array(vecs, dtype=float)
        scores[:, 0] = -np.inf
        return scores
