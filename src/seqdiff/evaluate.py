"""Full-ranking evaluation, breakdowns, baselines, and the uncertainty probe.

Every target is ranked against the whole vocabulary (no sampled negatives).
Each sequence gets its own random stream derived from (base seed, sequence
index), and a row's representation does not depend on its batch, so
evaluation order and batching do not matter.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .infer import Scorer, rank_items
from .metrics import DEFAULT_KS, EvalReport, report_from_ranks
from .rng import RngStream


@dataclass(frozen=True)
class RankRecord:
    target: int
    rank: int
    hist_len: int


@dataclass(frozen=True)
class UncertaintyProbe:
    n_reverses: int
    k: int
    unique_item_count: int


def target_rank(scores: np.ndarray, target: int) -> int:
    """1-based rank of `target` under descending score, ties to lower index."""
    s_t = scores[target]
    higher = int(np.sum(scores > s_t))
    tied_before = int(np.sum(scores[1:target] == s_t))
    return 1 + higher + tied_before


def rank_records(scorer: Scorer, samples: list[Sample], rng_base: RngStream,
                 mask_history: bool = False) -> list[RankRecord]:
    """Rank each sample's target in one batch; sample i uses rng_base.derive(i)."""
    if not samples:
        raise ValueError("evaluation split is empty")
    vectors = scorer.represent_batch([s.history for s in samples],
                                     [rng_base.derive(i) for i in range(len(samples))])
    records = []
    for sample, vec in zip(samples, vectors):
        scores = scorer.score_vector(vec)
        if mask_history:
            seen = [it for it in set(sample.history) if it != sample.target]
            if seen:
                scores = scores.copy()
                scores[seen] = -np.inf
        records.append(RankRecord(target=sample.target,
                                  rank=target_rank(scores, sample.target),
                                  hist_len=len(sample.history)))
    return records


def evaluate(scorer: Scorer, samples: list[Sample], seed: int,
             ks=DEFAULT_KS, mask_history: bool = False) -> EvalReport:
    """Mean HR@K / NDCG@K of a scorer over an evaluation split."""
    start = time.perf_counter()
    records = rank_records(scorer, samples, RngStream(seed), mask_history)
    return report_from_ranks([r.rank for r in records], ks=ks,
                             seconds=time.perf_counter() - start)


def head_items(train_freqs: np.ndarray, n_items: int) -> set[int]:
    """The 20% most frequent items; boundary ties go to the lower index."""
    return set(rank_items(train_freqs[: n_items + 1])[: int(0.2 * n_items)].tolist())


def head_tail_report(records: list[RankRecord], train_freqs: np.ndarray,
                     n_items: int, ks=DEFAULT_KS) -> tuple[EvalReport, EvalReport]:
    """Split ranked targets by head/long-tail membership of the target item."""
    head = head_items(train_freqs, n_items)
    head_ranks = [r.rank for r in records if r.target in head]
    tail_ranks = [r.rank for r in records if r.target not in head]
    return (report_from_ranks(head_ranks, ks=ks, label="head"),
            report_from_ranks(tail_ranks, ks=ks, label="tail"))


def length_bucket_report(records: list[RankRecord], ks=DEFAULT_KS) -> list[EvalReport]:
    """Five reports cut at the 20/40/60/80 length percentiles (short to long)."""
    if len(records) < 5:
        warnings.warn("fewer than 5 sequences; falling back to a single bucket")
        return [report_from_ranks([r.rank for r in records], ks=ks, label="all-lengths")]
    lengths = np.array([r.hist_len for r in records])
    bounds = np.percentile(lengths, [20, 40, 60, 80], method="lower")
    buckets: list[list[int]] = [[] for _ in range(5)]
    for r in records:
        idx = int(np.searchsorted(bounds, r.hist_len, side="left"))
        buckets[idx].append(r.rank)
    labels = ["len_q1", "len_q2", "len_q3", "len_q4", "len_q5"]
    return [report_from_ranks(b, ks=ks, label=lab) for b, lab in zip(buckets, labels)]


def uncertainty_probe(scorer: Scorer, sequence, n_reverses: int = 100,
                      k: int = 20, base_seed: int = 0
                      ) -> tuple[UncertaintyProbe, np.ndarray]:
    """Reverse the same history n times under seeds base..base+n-1.

    Returns the union size of the top-k lists plus the raw reversed vectors
    (one row per reversal), which downstream projection tools can consume.
    """
    vectors = scorer.represent_batch(
        [sequence] * n_reverses, [RngStream(base_seed + j) for j in range(n_reverses)])
    union: set[int] = set()
    for vec in vectors:
        union.update(rank_items(scorer.score_vector(vec))[:k].tolist())
    probe = UncertaintyProbe(n_reverses=n_reverses, k=k,
                             unique_item_count=len(union))
    return probe, vectors


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

    def score_vector(self, vec: np.ndarray) -> np.ndarray:
        scores = np.array(vec, dtype=float)
        scores[0] = -np.inf
        return scores
