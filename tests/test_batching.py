"""Batch invariance of the reversal: a row's bytes do not depend on its batch."""

import importlib
import math

import numpy as np
import pytest

from conftest import desk_config
from seqdiff.data import Sample
from seqdiff.evaluate import evaluate
from seqdiff.infer import DiffusionScorer, NextItemScorer, rank_items
from seqdiff.model import Approximator, init_params
from seqdiff.rng import RngStream

N_ITEMS = 30
# the package namespace binds `infer` to the function, so fetch the module
infer_mod = importlib.import_module("seqdiff.infer")


def _model(approximator, dim=16):
    cfg = desk_config(dim=dim, blocks=2, heads=2, t=4, max_len=8,
                      approximator=approximator)
    return Approximator(init_params(N_ITEMS, cfg, RngStream(2)), cfg)


def _histories():
    # lengths 1..10 with repeats; 9 and 10 are truncated to max_len = 8
    rng = np.random.default_rng(4)
    lengths = [3, 1, 5, 3, 8, 2, 10, 5, 1, 9, 3, 6]
    return [tuple(int(i) for i in rng.integers(1, N_ITEMS + 1, size=n)) for n in lengths]


def _streams(n):
    return [RngStream(17).derive(i) for i in range(n)]


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
@pytest.mark.parametrize("scorer_cls", [DiffusionScorer, NextItemScorer])
@pytest.mark.parametrize("batch", [1, 2, 5, None])
def test_each_row_matches_the_row_scored_alone(approximator, scorer_cls, batch):
    scorer = scorer_cls(_model(approximator))
    hists = _histories()
    rngs = _streams(len(hists))
    alone = [scorer.represent(h, r) for h, r in zip(hists, _streams(len(hists)))]
    size = batch or len(hists)
    for a in range(0, len(hists), size):
        got = scorer.represent_batch(hists[a:a + size], rngs[a:a + size])
        assert got.shape == (len(hists[a:a + size]), 16)
        for row, want in zip(got, alone[a:a + size]):
            assert row.tobytes() == want.tobytes()


def _assert_rows_match_alone(approximator, scorer_cls, dim):
    scorer = scorer_cls(_model(approximator, dim=dim))
    hists = _histories()
    alone = [scorer.represent(h, r) for h, r in zip(hists, _streams(len(hists)))]
    got = scorer.represent_batch(hists, _streams(len(hists)))
    assert got.shape == (len(hists), dim)
    for row, want in zip(got, alone):
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("scorer_cls", [DiffusionScorer, NextItemScorer])
def test_each_gru_row_matches_the_row_scored_alone_at_dim_128(scorer_cls):
    # wider rows take other BLAS kernels than dim 16
    _assert_rows_match_alone("gru", scorer_cls, 128)


@pytest.mark.parametrize("scorer_cls", [DiffusionScorer, NextItemScorer])
def test_each_gru_row_matches_the_row_scored_alone_at_dim_100(scorer_cls):
    # in a (B, dim) @ (dim, N) gemm a row's bytes depend on B when N is not a
    # multiple of 8, so dim 100 catches eval rows that take that product
    _assert_rows_match_alone("gru", scorer_cls, 100)


@pytest.mark.parametrize("dim", [100, 128])
@pytest.mark.parametrize("scorer_cls", [DiffusionScorer, NextItemScorer])
def test_each_transformer_row_matches_the_row_scored_alone_at_wide_dims(scorer_cls, dim):
    # the final block runs one-row products, which may take other BLAS
    # kernels than the (n, dim) products of the blocks before it
    _assert_rows_match_alone("transformer", scorer_cls, dim)


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_each_score_row_matches_the_row_scored_alone(approximator):
    # V+1 = 31 is not a multiple of 8, where one (B, dim) gemm is not batch-invariant
    scorer = NextItemScorer(_model(approximator))
    hists = _histories()
    vecs = scorer.represent_batch(hists, _streams(len(hists)))
    table = scorer.model.params["item_emb"].data
    for size in (1, 2, 5, len(vecs)):
        for a in range(0, len(vecs), size):
            block = scorer.score_vector(vecs[a:a + size])
            assert block.shape == (len(vecs[a:a + size]), N_ITEMS + 1)
            for vec, row in zip(vecs[a:a + size], block):
                alone = table @ vec  # the one-row product
                alone[0] = -np.inf
                assert row.tobytes() == alone.tobytes()


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_row_cap_splits_calls_without_changing_rows(approximator, monkeypatch):
    scorer = DiffusionScorer(_model(approximator))
    hists = _histories()
    whole = scorer.represent_batch(hists, _streams(len(hists)))
    monkeypatch.setattr(infer_mod, "ROWS_PER_CALL", 2)
    capped = scorer.represent_batch(hists, _streams(len(hists)))
    assert capped.tobytes() == whole.tobytes()
    assert scorer.represent_batch([], []).shape == (0, 16)


@pytest.mark.parametrize("cap", [4, 256])
def test_evaluate_makes_steps_times_chunks_approximator_calls(cap, monkeypatch):
    model = _model("transformer")
    scorer = DiffusionScorer(model)
    calls = []
    original = Approximator.reconstruct

    def counting(self, hist, mask, *args, **kwargs):
        calls.append(len(hist))
        return original(self, hist, mask, *args, **kwargs)

    monkeypatch.setattr(Approximator, "reconstruct", counting)
    monkeypatch.setattr(infer_mod, "ROWS_PER_CALL", cap)
    rng = np.random.default_rng(8)
    n = 10
    samples = [Sample(tuple(int(i) for i in rng.integers(1, N_ITEMS + 1, size=4)), 1)
               for _ in range(n)]
    evaluate(scorer, samples, seed=3)
    assert len(calls) == scorer.steps * math.ceil(n / cap)
    assert sum(calls) == scorer.steps * n


def test_bad_history_is_rejected_before_any_reversal(monkeypatch):
    scorer = DiffusionScorer(_model("transformer"))
    monkeypatch.setattr(Approximator, "reconstruct", None)  # any call would fail
    with pytest.raises(ValueError, match="999"):
        scorer.represent_batch([(1, 2), (3, 999)], _streams(2))
    with pytest.raises(ValueError, match="empty"):
        scorer.represent_batch([(1, 2), ()], _streams(2))


def test_rank_items_descending_ties_to_lower_index_padding_excluded():
    scores = np.array([np.inf, 1.0, 3.0, 1.0, 2.0])
    assert rank_items(scores).tolist() == [2, 4, 1, 3]
