import numpy as np
import pytest

from seqdiff.diffusion import embed_to_x0, q_sample, reverse_step, sample_steps
from seqdiff.rng import RngStream
from seqdiff.schedule import build_schedule, schedule_from_betas
from seqdiff.tensor import Tape, Tensor, backward
from conftest import sum_all


@pytest.fixture
def default_schedule():
    return build_schedule("truncated-linear", t=8)


def test_embed_to_x0_scales_signal(default_schedule):
    e = Tensor(np.full((2, 4), 2.0))
    a0 = default_schedule.alpha_0
    rng_a, rng_b = RngStream(3), RngStream(3)
    out = embed_to_x0(e, default_schedule, rng_a)
    eps = rng_b.gaussian((2, 4))
    assert np.allclose(out.data, np.sqrt(a0) * 2.0 + np.sqrt(1 - a0) * eps)


def test_embed_to_x0_monte_carlo_moments(default_schedule):
    a0 = 0.96
    e = Tensor(np.ones((100_000, 1)))
    out = embed_to_x0(e, schedule_from_betas("truncated-linear", [1 - a0]), RngStream(11)).data
    assert abs(out.mean() - np.sqrt(a0)) < 0.01
    assert abs(out.var() - (1 - a0)) < 0.005


def test_embed_to_x0_gradient_flows_to_embedding(default_schedule):
    e = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        out = embed_to_x0(e, default_schedule, RngStream(5))
        backward(tape, sum_all(out))
    assert np.allclose(e.grad, np.sqrt(default_schedule.alpha_0))


def test_q_sample_zero_noise_scales_by_sqrt_alpha_bar(default_schedule):
    x0 = Tensor(np.full((1, 4), 3.0))
    for s in (1, 4, 8):
        out = q_sample(x0, s, default_schedule, np.zeros((1, 4)))
        ab = default_schedule.alpha_bars[s - 1]
        assert np.allclose(out.data, np.sqrt(ab) * 3.0)


def test_q_sample_heavy_noise_limit():
    sch = schedule_from_betas("truncated-linear", [0.5] * 20)  # alpha_bar_20 ~ 1e-6
    x0 = Tensor(np.ones((1, 8)))
    eps = RngStream(1).gaussian((1, 8))
    out = q_sample(x0, 20, sch, eps)
    ab = sch.alpha_bars[-1]
    deviation = np.linalg.norm(out.data - eps)
    assert deviation < np.sqrt(ab) * np.linalg.norm(x0.data) + 1e-6


def test_q_sample_per_row_steps(default_schedule):
    x0 = Tensor(np.ones((3, 2)))
    steps = np.array([1, 4, 8])
    out = q_sample(x0, steps, default_schedule, np.zeros((3, 2)))
    expected = np.sqrt(default_schedule.alpha_bars[steps - 1])[:, None] * np.ones((3, 2))
    assert np.allclose(out.data, expected)


def test_q_sample_validates_step_and_shape(default_schedule):
    x0 = Tensor(np.ones((1, 2)))
    with pytest.raises(ValueError):
        q_sample(x0, 0, default_schedule, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        q_sample(x0, 9, default_schedule, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        q_sample(x0, 1, default_schedule, np.zeros((2, 2)))


def test_chain_iteration_matches_closed_form(default_schedule):
    """Stepping the one-step kernel s times agrees with the direct jump."""
    n = 100_000
    dim = 4
    x0 = np.ones((n, dim))
    rng = RngStream(2024)
    x = x0.copy()
    for s in range(1, 9):
        beta = default_schedule.betas[s - 1]
        x = np.sqrt(1 - beta) * x + np.sqrt(beta) * rng.gaussian((n, dim))
    direct = q_sample(Tensor(x0), 8, default_schedule, rng.gaussian((n, dim))).data
    assert np.abs(x.mean(axis=0) - direct.mean(axis=0)).max() < 0.01
    assert np.abs(x.var(axis=0) - direct.var(axis=0)).max() < 0.02


def test_reverse_step_returns_estimate_at_step_one(default_schedule):
    rng = RngStream(9)
    for _ in range(20):
        x_s = rng.gaussian((2, 4))
        x0_hat = rng.gaussian((2, 4))
        out = reverse_step(x_s, x0_hat, 1, default_schedule, rng.gaussian((2, 4)))
        assert out.tobytes() == x0_hat.tobytes()


def test_reverse_step_hand_values():
    sch = schedule_from_betas("truncated-linear", [0.1, 0.2])
    out = reverse_step(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), 2, sch,
                       np.zeros((1, 2)))
    coef_x0 = np.sqrt(0.9) * 0.2 / 0.28
    coef_xs = np.sqrt(0.8) * 0.1 / 0.28
    assert np.allclose(out, [[coef_x0, coef_xs]], atol=1e-12)
    assert np.allclose(out, [[0.6776, 0.3194]], atol=1e-4)


def test_reverse_step_deterministic_with_fixed_noise(default_schedule):
    x_s = np.ones((1, 3))
    x0_hat = np.zeros((1, 3))
    a = reverse_step(x_s, x0_hat, 4, default_schedule, np.zeros((1, 3)))
    b = reverse_step(x_s, x0_hat, 4, default_schedule, np.zeros((1, 3)))
    assert np.array_equal(a, b)


def test_reverse_step_noise_coefficient_literal_vs_sqrt():
    sch = schedule_from_betas("truncated-linear", [0.1, 0.2])
    eps = np.ones((1, 2))
    lit = reverse_step(np.zeros((1, 2)), np.zeros((1, 2)), 2, sch, eps)
    beta_tilde = 0.1 / 0.28 * 0.2
    # the noise is scaled by beta_tilde itself, not by its square root
    assert np.allclose(lit, beta_tilde)
    assert not np.allclose(lit, np.sqrt(beta_tilde))


def test_reverse_chain_with_oracle_recovers_x0(default_schedule):
    """A perfect estimator plus zero noise ends exactly at x0 from any start."""
    rng = RngStream(31)
    x0 = rng.gaussian((1, 6))
    for start in (1, 3, 8):
        x = rng.gaussian((1, 6))
        for s in range(start, 0, -1):
            x = reverse_step(x, x0, s, default_schedule, np.zeros((1, 6)))
        assert x.tobytes() == x0.tobytes()


def test_signal_to_noise_decreases(default_schedule):
    x0 = np.full(4, 2.0)
    snrs = []
    for s in range(1, 9):
        ab = default_schedule.alpha_bars[s - 1]
        snrs.append(np.linalg.norm(np.sqrt(ab) * x0) / np.sqrt(1 - ab))
    assert all(a > b for a, b in zip(snrs, snrs[1:]))


def test_sample_step_bounds_and_determinism():
    assert sample_steps(1, None, RngStream(0)) == 1
    a = [sample_steps(32, None, RngStream(5)) for _ in range(3)]
    b = [sample_steps(32, None, RngStream(5)) for _ in range(3)]
    assert a == b
    draws = sample_steps(32, 1000, RngStream(8))
    assert draws.min() >= 1 and draws.max() <= 32


def test_sample_step_frequencies_roughly_uniform():
    draws = sample_steps(32, 100_000, RngStream(123))
    counts = np.bincount(draws, minlength=33)[1:]
    freqs = counts / draws.size
    # 1.5 percentage points absolute, plus a chi-square sanity bound (df=31)
    assert np.abs(freqs - 1 / 32).max() < 0.015
    chi2 = float((((counts - draws.size / 32) ** 2) / (draws.size / 32)).sum())
    assert chi2 < 52.2


def test_sample_step_rejects_bad_horizon():
    with pytest.raises(ValueError):
        sample_steps(0, None, RngStream(0))
