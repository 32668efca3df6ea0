import importlib

import numpy as np
import pytest

from conftest import desk_config
from seqdiff.data import Sample, split, synth
from seqdiff.evaluate import (PopularityScorer, RankRecord, evaluate,
                              head_items, head_tail_report,
                              length_bucket_report, rank_records, target_rank,
                              uncertainty_probe)
from seqdiff.infer import (DiffusionScorer, HistoryError, NextItemScorer, Scorer, infer,
                           rank_items)
from seqdiff.model import Approximator, init_params
from seqdiff.rng import RngStream

evaluate_mod = importlib.import_module("seqdiff.evaluate")


class FixedVectorScorer(Scorer):
    """Always reverses to the same vector against a fixed table."""

    def __init__(self, table, vec):
        self.table = np.asarray(table, dtype=float)
        self.vec = np.asarray(vec, dtype=float)
        self.n_items = len(table) - 1

    def represent(self, history, rng):
        return self.vec

    def represent_batch(self, histories, rngs):
        return np.tile(self.vec, (len(histories), 1))

    def score_vector(self, vecs):
        scores = np.asarray(vecs) @ self.table.T
        scores[:, 0] = -np.inf
        return scores


def _orthonormal_table(n):
    table = np.zeros((n + 1, n))
    table[1:] = np.eye(n)
    return table


def _oracle_scorer(item, n=6):
    return FixedVectorScorer(_orthonormal_table(n), _orthonormal_table(n)[item])


def test_target_rank_counts_higher_and_tied_lower_indices():
    scores = np.tile([-np.inf, 3.0, 5.0, 3.0, 1.0], (4, 1))
    # item 1 is tied with item 3: the lower index wins
    assert target_rank(scores, [2, 1, 3, 4]).tolist() == [1, 2, 3, 4]


def test_target_rank_is_one_plus_the_position_in_rank_items():
    rng = np.random.default_rng(11)
    scores = rng.integers(0, 4, size=(40, 13)).astype(float)  # many ties
    scores[:, 0] = -np.inf
    targets = rng.integers(1, 13, size=40)
    position = np.argmax(rank_items(scores) == targets[:, None], axis=1)
    assert target_rank(scores, targets).tolist() == (1 + position).tolist()


def _reference_rank_records(scorer, samples, rng_base, mask_history):
    """The per-row loop: represent, score, mask and rank one sample at a time."""
    records = []
    for i, sample in enumerate(samples):
        vec = scorer.represent(sample.history, rng_base.derive(i))
        if isinstance(scorer, PopularityScorer):
            scores = np.array(vec, dtype=float)
        else:
            scores = scorer.model.params["item_emb"].data @ vec
        scores[0] = -np.inf
        if mask_history:
            scores[[it for it in set(sample.history) if it != sample.target]] = -np.inf
        s_t = scores[sample.target]
        rank = 1 + int(np.sum(scores > s_t)) + int(np.sum(scores[1:sample.target] == s_t))
        records.append(RankRecord(target=sample.target, rank=rank,
                                  hist_len=len(sample.history)))
    return records


def _repeating_samples(n_items, n=23):
    # half the rows draw from items 1..5, so histories repeat items and
    # often hold their own target; lengths past max_len = 8 are truncated
    rng = np.random.default_rng(21)
    samples = []
    for i in range(n):
        top = 5 if i % 2 else n_items
        hist = rng.integers(1, top + 1, size=int(rng.integers(1, 11)))
        samples.append(Sample(tuple(int(x) for x in hist), int(rng.integers(1, top + 1))))
    return samples


@pytest.mark.parametrize("mask_history", [False, True])
@pytest.mark.parametrize("scorer_kind", ["diffusion-transformer", "diffusion-gru",
                                         "adversarial-transformer", "adversarial-gru",
                                         "popularity"])
def test_rank_records_equals_the_per_row_reference(scorer_kind, mask_history, monkeypatch):
    n_items = 30
    if scorer_kind == "popularity":
        freqs = np.random.default_rng(5).integers(0, 4, size=n_items + 1).astype(float)
        scorer = PopularityScorer(freqs)
    else:
        mode, approximator = scorer_kind.split("-")
        cfg = desk_config(dim=16, blocks=1, heads=2, t=4, max_len=8,
                          approximator=approximator)
        model = Approximator(init_params(n_items, cfg, RngStream(2)), cfg)
        scorer = DiffusionScorer(model) if mode == "diffusion" else NextItemScorer(model)
    samples = _repeating_samples(n_items)
    monkeypatch.setattr(evaluate_mod, "ROWS_PER_CALL", 5)  # chunks of 5, 5, ..., 3
    got = rank_records(scorer, samples, RngStream(8), mask_history)
    assert got == _reference_rank_records(scorer, samples, RngStream(8), mask_history)


def test_oracle_scorer_gets_perfect_metrics():
    samples = [Sample((1, 2), 3), Sample((4,), 3)]
    rep = evaluate(_oracle_scorer(3), samples, seed=0)
    assert rep.hr[5] == 1.0 and rep.ndcg[5] == 1.0
    assert rep.n_evaluated == 2


def test_evaluate_rejects_empty_split():
    with pytest.raises(ValueError):
        evaluate(_oracle_scorer(1), [], seed=0)


def test_evaluate_is_order_independent():
    cfg = desk_config(dim=16, blocks=1, heads=2, t=4, max_len=10)
    model = Approximator(init_params(10, cfg, RngStream(3)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    samples = [Sample((1, 2), 3), Sample((4, 5), 6), Sample((7,), 8)]
    recs = rank_records(scorer, samples, RngStream(5))
    # repeat with the same derivation indices: identical outcome
    again = rank_records(scorer, samples, RngStream(5))
    assert recs == again


def test_untrained_model_close_to_uniform_null():
    """With a large vocabulary an untrained model ranks targets uniformly."""
    n_items = 1000
    cfg = desk_config(dim=16, blocks=1, heads=2, t=2, max_len=6)
    model = Approximator(init_params(n_items, cfg, RngStream(1)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    rng = np.random.default_rng(0)
    samples = [Sample(tuple(rng.integers(1, n_items + 1, size=4)),
                      int(rng.integers(1, n_items + 1)))
               for _ in range(400)]
    rep = evaluate(scorer, samples, seed=9, ks=(10,))
    p = 10 / n_items
    sigma = np.sqrt(p * (1 - p) / len(samples))
    assert abs(rep.hr[10] - p) < 4 * sigma


def test_mask_history_excludes_seen_items_but_not_target():
    table = _orthonormal_table(4)
    vec = np.array([0.9, 1.0, 0.8, 0.7])  # favors item 2, then 1, 3, 4
    scorer = FixedVectorScorer(table, vec)
    plain = rank_records(scorer, [Sample((2, 3), 1)], RngStream(0))
    masked = rank_records(scorer, [Sample((2, 3), 1)], RngStream(0),
                          mask_history=True)
    assert plain[0].rank == 2
    assert masked[0].rank == 1  # items 2 and 3 drop out of the candidates
    repeat = rank_records(scorer, [Sample((2, 3), 2)], RngStream(0),
                          mask_history=True)
    assert repeat[0].rank == 1  # the target itself is never masked


@pytest.mark.parametrize("item", [99, -1, 0])
def test_mask_history_rejects_an_unknown_item_before_the_window(item):
    cfg = desk_config(dim=16, blocks=1, heads=2, t=2, max_len=10)
    scorer = DiffusionScorer(Approximator(init_params(50, cfg, RngStream(4)), cfg))
    sample = Sample((item,) + (1,) * 12, 2)  # the window holds only the 1s
    assert rank_records(scorer, [sample], RngStream(0))[0].rank >= 1
    with pytest.raises(HistoryError, match=f"history item {item} is outside"):
        rank_records(scorer, [sample], RngStream(0), mask_history=True)


@pytest.mark.parametrize("mask_history", [False, True])
@pytest.mark.parametrize("target", [7, 0, -1])
def test_rank_records_rejects_a_target_outside_the_vocabulary_before_reversing(
        target, mask_history):
    scorer = _oracle_scorer(1)  # items 1..6
    reversed_histories = []
    scorer.represent_batch = lambda histories, rngs: reversed_histories.extend(histories)
    samples = [Sample((1, 2), 3), Sample((2, 3), target), Sample((3, 4), 9)]
    with pytest.raises(ValueError, match=rf"target item {target} is outside \[1, 6\]"):
        rank_records(scorer, samples, RngStream(0), mask_history=mask_history)
    assert reversed_histories == []


def test_head_items_top_fifth_with_index_ties():
    freqs = np.array([0.0, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
    assert head_items(freqs, 10) == {1, 2}
    tied = np.array([0.0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5])
    assert head_items(tied, 10) == {1, 2}


def test_head_tail_partitions_exactly():
    freqs = np.zeros(11)
    freqs[1:] = np.arange(10, 0, -1)
    records = [RankRecord(target=t, rank=r, hist_len=3)
               for t, r in [(1, 1), (2, 30), (5, 2), (9, 4)]]
    head_rep, tail_rep = head_tail_report(records, freqs, 10)
    assert head_rep.label == "head" and tail_rep.label == "tail"
    assert head_rep.n_evaluated + tail_rep.n_evaluated == len(records)
    assert head_rep.n_evaluated == 2
    assert head_rep.hr[5] == pytest.approx(0.5)


def test_head_tail_empty_side_is_marked():
    freqs = np.zeros(11)
    freqs[1:] = np.arange(10, 0, -1)
    records = [RankRecord(target=1, rank=1, hist_len=2)]
    _, tail_rep = head_tail_report(records, freqs, 10)
    assert tail_rep.empty


def test_length_buckets_partition_uniform_lengths():
    records = [RankRecord(target=1, rank=1, hist_len=l) for l in range(1, 101)]
    reports = length_bucket_report(records)
    assert len(reports) == 5
    assert [r.n_evaluated for r in reports] == [20, 20, 20, 20, 20]
    assert sum(r.n_evaluated for r in reports) == 100


def test_length_buckets_degenerate_lengths_fall_into_one():
    records = [RankRecord(target=1, rank=1, hist_len=7) for _ in range(10)]
    reports = length_bucket_report(records)
    assert reports[0].n_evaluated == 10
    assert all(r.empty for r in reports[1:])


def test_length_buckets_fallback_below_five():
    records = [RankRecord(target=1, rank=1, hist_len=3)] * 3
    with pytest.warns(UserWarning):
        reports = length_bucket_report(records)
    assert len(reports) == 1 and reports[0].n_evaluated == 3


def test_uncertainty_probe_deterministic_scorer_hits_exactly_k():
    scorer = _oracle_scorer(2, n=30)
    probe, vectors = uncertainty_probe(scorer, [1, 2], n_reverses=10, k=20,
                                       base_seed=4)
    assert probe.unique_item_count == 20
    assert vectors.shape == (10, 30)


def test_uncertainty_probe_top_k_may_cover_the_catalogue_and_no_more():
    scorer = _oracle_scorer(2, n=6)
    probe, _ = uncertainty_probe(scorer, [1, 2], n_reverses=3, k=6)
    assert probe.unique_item_count == 6
    with pytest.raises(ValueError, match="top-k 7 exceeds the catalogue's 6 items"):
        uncertainty_probe(scorer, [1, 2], n_reverses=3, k=7)


def test_uncertainty_probe_monotone_in_reversals():
    cfg = desk_config(dim=16, blocks=1, heads=2, t=4, max_len=8, delta=0.01)
    model = Approximator(init_params(40, cfg, RngStream(6)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    counts = [uncertainty_probe(scorer, [1, 2, 3], n, 10, base_seed=0)[0]
              .unique_item_count for n in (1, 5, 20)]
    assert counts[0] == 10
    assert counts[0] <= counts[1] <= counts[2]
    assert all(10 <= c <= n * 10 for c, n in zip(counts, (1, 5, 20)))


def test_popularity_baseline_ordering_and_ties():
    freqs = np.array([0.0, 3, 1, 2])
    assert infer(PopularityScorer(freqs), [1], RngStream(0)) == [1, 3, 2]
    tied = np.array([0.0, 2, 2, 1])
    assert infer(PopularityScorer(tied), [1], RngStream(0)) == [1, 2, 3]
    with pytest.raises(ValueError, match="no training interactions"):
        PopularityScorer(np.zeros(4))


def test_popularity_scorer_hr_equals_topk_coverage():
    ds = synth("markov", 300, 25, 10, seed=13)
    splits = split(ds)
    scorer = PopularityScorer(splits.train_freqs)
    rep = evaluate(scorer, splits.test, seed=0, ks=(10,))
    top10 = set(rank_items(splits.train_freqs)[:10].tolist())
    expected = np.mean([s.target in top10 for s in splits.test])
    assert rep.hr[10] == pytest.approx(expected)
