"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything is offline and
desk-scale except the external-data check, which skips with a notice when
the raw interaction file is not present.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from conftest import desk_config, finite_diff_grad, max_rel_error
from seqdiff.checkpoint import model_from_checkpoint
from seqdiff.config import SCHEDULE_KINDS
from seqdiff.data import ingest, preprocess, split, synth
from seqdiff.diffusion import embed_to_x0, q_sample, reverse_step
from seqdiff.evaluate import (PopularityScorer, evaluate, uncertainty_probe)
from seqdiff.infer import DiffusionScorer, NextItemScorer
from seqdiff.metrics import metric_single
from seqdiff.model import Approximator, init_params
from seqdiff.rng import RngStream
from seqdiff.schedule import build_schedule
from seqdiff.tensor import Tape, Tensor, backward, embedding_lookup
from seqdiff.train import loss_batch, run_training

CYCLIC_DATA = dict(kind="cyclic", n_users=1000, n_items=50, seq_len=20, seed=7)
MARKOV_DATA = dict(kind="markov", n_users=1000, n_items=200, seq_len=20, seed=11)
CYCLIC_TRAIN_SEED = 0
MARKOV_TRAIN_SEED = 1
EVAL_SEED = 2
PROBE_SEED = 5


def _criterion(num, description, checks, elapsed=None, limit=None):
    if elapsed is not None and limit is not None:
        checks = checks + [(f"runtime {elapsed:.1f}s < {limit}s", elapsed < limit)]
    ok = all(passed for _, passed in checks)
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{suffix}")
    for name, passed in checks:
        if not passed:
            print(f"    failed: {name}")
    assert ok, f"criterion {num} failed: " + \
        "; ".join(name for name, passed in checks if not passed)


def _desk_train_config(seed):
    return desk_config(seed=seed)  # dim 32, 2 blocks, 2 heads, t=8, 50 epochs


@pytest.fixture(scope="session")
def cyclic_run():
    dataset = synth(**CYCLIC_DATA)
    start = time.perf_counter()
    result = run_training(dataset, _desk_train_config(CYCLIC_TRAIN_SEED))
    return dataset, result, time.perf_counter() - start


@pytest.fixture(scope="session")
def markov_run():
    dataset = synth(**MARKOV_DATA)
    start = time.perf_counter()
    result = run_training(dataset, _desk_train_config(MARKOV_TRAIN_SEED))
    return dataset, result, time.perf_counter() - start


def test_criterion_01_forward_marginal_equivalence():
    start = time.perf_counter()
    schedule = build_schedule("truncated-linear", t=8)
    n, dim = 100_000, 4
    x0 = np.ones((n, dim))
    rng = RngStream(2024)
    chained = x0.copy()
    for s in range(1, 9):
        beta = schedule.betas[s - 1]
        chained = (np.sqrt(1 - beta) * chained
                   + np.sqrt(beta) * rng.gaussian((n, dim)))
    direct = q_sample(Tensor(x0), 8, schedule, rng.gaussian((n, dim))).data
    mean_diff = np.abs(chained.mean(axis=0) - direct.mean(axis=0)).max()
    var_diff = np.abs(chained.var(axis=0) - direct.var(axis=0)).max()
    elapsed = time.perf_counter() - start
    _criterion(1, "iterated one-step corruption matches the closed form", [
        (f"per-coordinate mean difference {mean_diff:.4f} < 0.01", mean_diff < 0.01),
        (f"per-coordinate variance difference {var_diff:.4f} < 0.02", var_diff < 0.02),
    ], elapsed, 30)


def test_criterion_02_gradient_soundness():
    start = time.perf_counter()
    cfg = desk_config(dim=8, blocks=2, heads=2, t=4, max_len=4, delta=0.001)
    vocab = 8
    params = init_params(vocab, cfg, RngStream(17))
    model = Approximator(params, cfg)
    schedule = build_schedule(cfg.schedule_kind, cfg.t, cfg.schedule_a,
                              cfg.schedule_b, cfg.schedule_tau)
    hist = np.array([[1, 2, 3], [4, 5, 0], [6, 7, 8]])
    mask = (hist > 0).astype(float)
    targets = np.array([4, 6, 1])
    steps = np.array([1, 3, 4])

    def pipeline_loss():
        # a fresh identically-seeded stream freezes every noise and dropout
        # draw, so the train-mode loss is a deterministic function of params
        noise = RngStream(99)
        e_target = embedding_lookup(params["item_emb"], targets)
        x0 = embed_to_x0(e_target, schedule, noise)
        xs = q_sample(x0, steps, schedule, noise.gaussian(x0.shape))
        x0_hat = model.reconstruct(hist, mask, xs, steps, noise, train_mode=True)
        return loss_batch(x0_hat, targets, params["item_emb"])

    with Tape() as tape:
        backward(tape, pipeline_loss())
    worst = 0.0
    worst_name = ""
    for name, tensor in params.items():
        numeric = finite_diff_grad(lambda: pipeline_loss().item(), tensor, h=1e-5)
        analytic = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad
        err = max_rel_error(analytic, numeric)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.perf_counter() - start
    _criterion(2, "reverse-mode adjoints match central finite differences", [
        (f"max relative error {worst:.2e} ({worst_name}) < 1e-4", worst < 1e-4),
    ], elapsed, 120)


def test_criterion_03_posterior_degeneracy():
    start = time.perf_counter()
    schedule = build_schedule("truncated-linear", t=8)
    rng = RngStream(3)
    ok = True
    for _ in range(100):
        x_s = rng.gaussian((1, 16)) * 3
        x0_hat = rng.gaussian((1, 16)) * 3
        out = reverse_step(x_s, x0_hat, 1, schedule, rng.gaussian((1, 16)))
        ok = ok and out.tobytes() == x0_hat.tobytes()
    elapsed = time.perf_counter() - start
    _criterion(3, "the final reverse step returns the estimate bit-exactly", [
        ("100 random inputs bit-identical at s=1", ok),
    ], elapsed, 1)


def test_criterion_04_learnability_on_cyclic_data(cyclic_run):
    dataset, result, train_seconds = cyclic_run
    start = time.perf_counter()
    model = model_from_checkpoint(result.checkpoint)
    scorer = DiffusionScorer(model, result.checkpoint.config.t)
    report = evaluate(scorer, split(dataset).test, EVAL_SEED, ks=(1, 5, 10, 20))
    ratio = result.epoch_losses[-1] / result.epoch_losses[0]
    _criterion(4, "the deterministic successor pattern is learned", [
        (f"epochs run {result.epochs_run} <= 50", result.epochs_run <= 50),
        (f"test HR@1 {report.hr[1]:.3f} >= 0.8", report.hr[1] >= 0.8),
        (f"test HR@5 {report.hr[5]:.3f} >= 0.95", report.hr[5] >= 0.95),
        (f"final/first epoch loss {ratio:.3f} < 0.25", ratio < 0.25),
    ], train_seconds + (time.perf_counter() - start), 900)


def test_criterion_05_relative_ordering_on_markov_data(markov_run):
    dataset, result, train_seconds = markov_run
    start = time.perf_counter()
    splits = split(dataset)
    model = model_from_checkpoint(result.checkpoint)
    trained = evaluate(DiffusionScorer(model, result.checkpoint.config.t),
                       splits.test, EVAL_SEED, ks=(10,))
    popularity = evaluate(PopularityScorer(splits.train_freqs), splits.test,
                          EVAL_SEED, ks=(10,))
    cfg = result.checkpoint.config
    untrained_model = Approximator(init_params(dataset.n_items, cfg,
                                               RngStream(99)), cfg)
    untrained = evaluate(DiffusionScorer(untrained_model, cfg.t), splits.test,
                         EVAL_SEED, ks=(10,))
    elapsed = train_seconds + (time.perf_counter() - start)
    _criterion(5, "trained model dominates the reference baselines", [
        (f"trained NDCG@10 {trained.ndcg[10]:.4f} >= 2x popularity "
         f"{popularity.ndcg[10]:.4f}", trained.ndcg[10] >= 2 * popularity.ndcg[10]),
        (f"trained NDCG@10 {trained.ndcg[10]:.4f} >= 5x untrained "
         f"{untrained.ndcg[10]:.4f}", trained.ndcg[10] >= 5 * untrained.ndcg[10]),
    ], elapsed, 1200)


class _OracleApproximator(Approximator):
    def __init__(self, params, cfg, vec):
        super().__init__(params, cfg)
        self.vec = np.asarray(vec, dtype=float)

    def reconstruct(self, hist, mask, x, steps, rng, train_mode):
        return Tensor(np.tile(self.vec, (hist.shape[0], 1)))


def test_criterion_06_uncertainty_probe(markov_run):
    dataset, result, _ = markov_run
    start = time.perf_counter()
    model = model_from_checkpoint(result.checkpoint)
    scorer = DiffusionScorer(model, result.checkpoint.config.t)
    history = split(dataset).test[0].history
    probe, _vectors = uncertainty_probe(scorer, history, n_reverses=100, k=20,
                                        base_seed=PROBE_SEED)
    cfg = desk_config(dim=6, heads=2, t=2)
    oracle_params = init_params(6, cfg, RngStream(0))
    table = np.zeros((7, 6))
    table[1:] = np.eye(6)
    oracle_params["item_emb"].data = table
    oracle = DiffusionScorer(_OracleApproximator(oracle_params, cfg, table[3]), 2)
    control, _ = uncertainty_probe(oracle, [1, 2], n_reverses=100, k=5,
                                   base_seed=PROBE_SEED)
    elapsed = time.perf_counter() - start
    _criterion(6, "stochastic reversal spreads the top-20 beyond one list", [
        (f"trained model unique count {probe.unique_item_count} > 20",
         probe.unique_item_count > 20),
        (f"deterministic oracle unique count {control.unique_item_count} == 5",
         control.unique_item_count == 5),
    ], elapsed, 300)


def test_criterion_07_schedule_shapes():
    start = time.perf_counter()
    checks = []
    t = 32
    schedules = {kind: build_schedule(kind, t=t) for kind in SCHEDULE_KINDS}
    for kind, sch in schedules.items():
        bars = np.concatenate([[1.0], sch.alpha_bars])
        checks.append((f"{kind}: beta in (0,1)",
                       bool(np.all((sch.betas > 0) & (sch.betas < 1)))))
        checks.append((f"{kind}: alpha_bar strictly decreasing",
                       bool(np.all(np.diff(bars) < 0))))
    first = {kind: sch.alpha_bars[0] for kind, sch in schedules.items()}
    checks.append(("sqrt has the smallest alpha_bar_1",
                   min(first, key=first.get) == "sqrt"))
    bars = np.concatenate([[1.0], schedules["truncated-linear"].alpha_bars])
    drop_step = int(np.argmax(bars[:-1] - bars[1:])) + 1
    checks.append((f"truncated-linear max drop at step {drop_step} "
                   f"in ({t // 3}, {2 * t // 3}]", t // 3 < drop_step <= 2 * t // 3))
    _criterion(7, "the four schedule families reproduce the expected shapes",
               checks, time.perf_counter() - start, 1)


def test_criterion_08_metric_unit_oracle():
    start = time.perf_counter()
    checks = [
        ("rank 1, K=5 -> (1, 1)", metric_single(1, 5) == (1.0, 1.0)),
        ("rank 4, K=5 ndcg", abs(metric_single(4, 5)[1] - 0.43067655807339306) < 1e-12),
        ("rank 4, K=5 formula", abs(metric_single(4, 5)[1] - 1 / math.log2(5)) < 1e-15),
        ("rank 11, K=10 -> (0, 0)", metric_single(11, 10) == (0.0, 0.0)),
    ]
    _criterion(8, "single-target metrics match the closed forms", checks,
               time.perf_counter() - start, 1)


def test_criterion_09_adversarial_contract():
    start = time.perf_counter()
    dataset = synth("cyclic", 200, 30, 10, seed=3)
    base_cfg = desk_config(dim=16, blocks=1, heads=2, t=4, batch_size=64,
                           epochs=2, eval_every=0, mode="adversarial", seed=4)
    zero_eps = run_training(dataset, dataclasses.replace(
        base_cfg, epsilon_adv=0.0, gamma_adv=1.0))
    gamma = 1.0
    zero_ok = all(abs(e.loss - (1 + gamma) * e.base_loss) < 1e-10
                  for e in zero_eps.step_logs)
    zero_delta_ok = all(e.delta_norm == 0.0 for e in zero_eps.step_logs)
    half_eps = run_training(dataset, dataclasses.replace(
        base_cfg, epsilon_adv=0.5, gamma_adv=1.0))
    norm_ok = all(abs(e.delta_norm - 0.5) < 1e-10 for e in half_eps.step_logs)
    cyclic = synth(**CYCLIC_DATA)
    desk_cfg = dataclasses.replace(_desk_train_config(CYCLIC_TRAIN_SEED + 100),
                                   mode="adversarial")
    desk = run_training(cyclic, desk_cfg)
    desk_model = model_from_checkpoint(desk.checkpoint)
    desk_rep = evaluate(NextItemScorer(desk_model), split(cyclic).test,
                        EVAL_SEED, ks=(1,))
    elapsed = time.perf_counter() - start
    _criterion(9, "adversarial mode obeys its loss and perturbation contracts", [
        (f"eps=0: total = (1+gamma) * base at all {len(zero_eps.step_logs)} steps",
         zero_ok),
        ("eps=0: perturbation stays zero", zero_delta_ok),
        (f"eps=0.5: |Delta| = 0.5 after all {len(half_eps.step_logs)} updates",
         norm_ok),
        (f"desk-scale adversarial model HR@1 {desk_rep.hr[1]:.3f} >= 0.8",
         desk_rep.hr[1] >= 0.8),
    ], elapsed, 300)


def test_criterion_10_external_data_protocol():
    path = os.environ.get("SEQDIFF_BEAUTY_TSV", "data/beauty.tsv")
    if not os.path.exists(path):
        print("\n[SKIP] criterion 10: external interaction file not present "
              f"(set SEQDIFF_BEAUTY_TSV or place it at {path}); "
              "all other criteria run offline")
        pytest.skip("external interaction file not available")
    start = time.perf_counter()
    dataset = preprocess(ingest(path), min_count=5, max_len=50)
    _criterion(10, "published interaction file reproduces the known counts", [
        (f"sequences {dataset.n_sequences} == 22363", dataset.n_sequences == 22363),
        (f"items {dataset.n_items} == 12101", dataset.n_items == 12101),
        (f"actions {dataset.n_actions} == 198502", dataset.n_actions == 198502),
    ], time.perf_counter() - start, None)


def test_criterion_11_determinism(cyclic_run, markov_run):
    start = time.perf_counter()
    checks = []
    for label, (dataset, result, _), seed in (
            ("cyclic", cyclic_run, CYCLIC_TRAIN_SEED),
            ("markov", markov_run, MARKOV_TRAIN_SEED)):
        rerun = run_training(dataset, _desk_train_config(seed))
        same = all(rerun.checkpoint.tensors[name].tobytes() == arr.tobytes()
                   for name, arr in result.checkpoint.tensors.items())
        checks.append((f"{label}: retrained checkpoint bit-identical", same))
    dataset, result, _ = markov_run
    model = model_from_checkpoint(result.checkpoint)
    scorer = DiffusionScorer(model, result.checkpoint.config.t)
    samples = split(dataset).test
    rep_a = evaluate(scorer, samples, EVAL_SEED)
    rep_b = evaluate(scorer, samples, EVAL_SEED)
    checks.append(("evaluation report identical under the same seed",
                   rep_a.hr == rep_b.hr and rep_a.ndcg == rep_b.ndcg))
    probe_a, vec_a = uncertainty_probe(scorer, samples[0].history, 50, 20,
                                       PROBE_SEED)
    probe_b, vec_b = uncertainty_probe(scorer, samples[0].history, 50, 20,
                                       PROBE_SEED)
    checks.append(("probe identical under the same seeds",
                   probe_a == probe_b and vec_a.tobytes() == vec_b.tobytes()))
    _criterion(11, "training, evaluation, and probing are reproducible",
               checks, time.perf_counter() - start, None)
