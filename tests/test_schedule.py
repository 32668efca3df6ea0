import math
import re

import numpy as np
import pytest

from seqdiff.config import TrainConfig
from seqdiff.schedule import (KINDS, ScheduleValidityError, alpha_bar,
                              build_schedule, dump_schedule_csv, posterior,
                              respace, schedule_from_betas)


def test_truncated_linear_hand_values():
    sch = build_schedule("truncated-linear", t=4, a=0.08, b=0.02, tau=1.0)
    expected = [0.02 * s + 0.02 / s for s in (1, 2, 3, 4)]
    assert np.allclose(sch.betas, expected, atol=1e-15)
    assert np.allclose(sch.betas, [0.04, 0.05, 0.0666667, 0.085], atol=1e-4)


def test_truncation_replaces_large_beta_with_tenth():
    sch = build_schedule("truncated-linear", t=4, a=5.0, b=0.0, tau=1.0)
    raw = [1.25 * s for s in (1, 2, 3, 4)]
    assert np.allclose(sch.betas, [r / 10 for r in raw])
    assert sch.betas[3] == pytest.approx(0.5)


def test_truncation_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(2, 40))
        a = float(rng.uniform(0.01, 6.0))
        b = float(rng.uniform(0.0, 0.5))
        try:
            sch = build_schedule("truncated-linear", t=t, a=a, b=b, tau=1.0)
        except ScheduleValidityError:
            continue
        s = np.arange(1, t + 1)
        raw = (a / t) * s + b / s
        assert np.all(sch.betas <= np.maximum(1.0, raw / 10) + 1e-15)
        assert np.all(sch.betas[raw <= 1.0] <= 1.0)
        assert np.all(sch.betas[raw > 1.0] == raw[raw > 1.0] / 10)


@pytest.mark.parametrize("kind", KINDS)
def test_alpha_bar_strictly_decreasing_from_one(kind):
    sch = build_schedule(kind, t=32)
    assert np.all(sch.betas > 0) and np.all(sch.betas < 1)
    assert alpha_bar(sch, 0) == 1.0
    bars = np.concatenate([[1.0], sch.alpha_bars])
    assert np.all(np.diff(bars) < 0)
    assert np.all(np.diff(1.0 - bars) > 0)


@pytest.mark.parametrize("kind", KINDS)
def test_internal_consistency(kind):
    sch = build_schedule(kind, t=32)
    assert np.array_equal(sch.alphas, 1.0 - sch.betas)
    running = 1.0
    for s in range(1, 33):
        running *= sch.alphas[s - 1]
        assert sch.alpha_bars[s - 1] == pytest.approx(running, rel=1e-15)


def test_alpha_bar_two_term_product():
    sch = schedule_from_betas("truncated-linear", [0.1, 0.2])
    assert alpha_bar(sch, 2) == pytest.approx(0.72, rel=1e-15)
    assert alpha_bar(sch, 0) == 1.0


def test_alpha_bar_constant_beta_closed_form():
    beta = 0.05
    sch = schedule_from_betas("truncated-linear", [beta] * 10)
    for s in range(11):
        assert alpha_bar(sch, s) == pytest.approx((1 - beta) ** s, rel=1e-12)


def test_alpha_bar_range_check():
    sch = schedule_from_betas("truncated-linear", [0.1, 0.2])
    with pytest.raises(ValueError):
        alpha_bar(sch, 3)
    with pytest.raises(ValueError):
        alpha_bar(sch, -1)


def test_posterior_degenerates_at_step_one():
    for kind in KINDS:
        post = posterior(build_schedule(kind, t=32), 1)
        assert (post.coef_x0, post.coef_xs, post.beta_tilde) == (1.0, 0.0, 0.0)


def test_posterior_hand_values():
    sch = schedule_from_betas("truncated-linear", [0.1, 0.2])
    post = posterior(sch, 2)
    assert post.coef_x0 == pytest.approx(math.sqrt(0.9) * 0.2 / 0.28, rel=1e-12)
    assert post.coef_xs == pytest.approx(math.sqrt(0.8) * 0.1 / 0.28, rel=1e-12)
    assert post.beta_tilde == pytest.approx(0.1 / 0.28 * 0.2, rel=1e-12)
    assert post.coef_x0 == pytest.approx(0.6776, abs=1e-4)
    assert post.coef_xs == pytest.approx(0.3194, abs=1e-4)
    assert post.beta_tilde == pytest.approx(0.07143, abs=1e-5)


def test_posterior_linearity_on_equal_inputs():
    sch = build_schedule("truncated-linear", t=12)
    v = 1.7
    for s in range(1, 13):
        post = posterior(sch, s)
        mean = post.coef_x0 * v + post.coef_xs * v
        assert mean == pytest.approx((post.coef_x0 + post.coef_xs) * v, rel=1e-15)
        assert post.beta_tilde >= 0.0


def test_posterior_step_range():
    sch = build_schedule("truncated-linear", t=4)
    with pytest.raises(ValueError):
        posterior(sch, 0)
    with pytest.raises(ValueError):
        posterior(sch, 5)


def test_invalid_beta_reports_offending_step():
    with pytest.raises(ScheduleValidityError) as err:
        build_schedule("truncated-linear", t=4, a=0.0, b=0.0, tau=1.0)
    assert "beta_1" in str(err.value)


def test_linear_schedule_can_overflow_at_tiny_horizons():
    # the rescaled endpoints exceed 1 below t=20; the validity check owns that
    with pytest.raises(ScheduleValidityError):
        build_schedule("linear", t=8)
    build_schedule("linear", t=32)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_schedule("quadratic", t=8)


def test_schedule_dump_round_trips_through_csv(tmp_path):
    sch = build_schedule("truncated-linear", t=6)
    path = tmp_path / "schedule.csv"
    dump_schedule_csv(sch, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,beta,alpha,alpha_bar,coef_x0,coef_xs,beta_tilde"
    assert len(lines) == 7
    for s, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == s
        assert float(fields[1]) == pytest.approx(sch.betas[s - 1], rel=1e-11)
        assert float(fields[4]) == pytest.approx(sch.coef_x0[s - 1], rel=1e-11)


def test_schedule_shapes_match_reference_ordering():
    """sqrt noisiest at the start; truncated-linear drops hardest mid-process."""
    t = 32
    schedules = {kind: build_schedule(kind, t=t) for kind in KINDS}
    first_bars = {kind: alpha_bar(s, 1) for kind, s in schedules.items()}
    assert min(first_bars, key=first_bars.get) == "sqrt"
    bars = np.concatenate([[1.0], schedules["truncated-linear"].alpha_bars])
    drop_step = int(np.argmax(bars[:-1] - bars[1:])) + 1
    assert t // 3 < drop_step <= (2 * t) // 3


def _reference_posterior(schedule, s):
    """Step s's posterior from Python floats, one step at a time."""
    if s == 1:
        return 1.0, 0.0, 0.0
    ab_prev = float(schedule.alpha_bars[s - 2])
    beta = float(schedule.betas[s - 1])
    alpha = float(schedule.alphas[s - 1])
    denom = 1.0 - float(schedule.alpha_bars[s - 1])
    return (math.sqrt(ab_prev) * beta / denom,
            math.sqrt(alpha) * (1.0 - ab_prev) / denom,
            (1.0 - ab_prev) / denom * beta)


@pytest.mark.parametrize("kind", KINDS)
def test_posterior_table_equals_per_step_reference_exactly(kind):
    horizons = []
    for t in (1, 8, 32, 1000):
        try:
            sch = build_schedule(kind, t)
        except ScheduleValidityError:
            assert kind == "linear" and t == 8  # its rescaled endpoints overflow
            continue
        horizons.append(t)
        for s in range(1, t + 1):
            row = (sch.coef_x0[s - 1], sch.coef_xs[s - 1], sch.beta_tilde[s - 1])
            assert row == _reference_posterior(sch, s)
            post = posterior(sch, s)
            assert (post.coef_x0, post.coef_xs, post.beta_tilde) == row
    assert horizons == ([1, 32, 1000] if kind == "linear" else [1, 8, 32, 1000])


@pytest.mark.parametrize("kind", ["linear", "cosine", "sqrt"])
@pytest.mark.parametrize("option,value", [("a", 0.9), ("b", 0.0), ("tau", 0.01)])
def test_family_options_apply_only_to_truncated_linear(kind, option, value):
    build_schedule(kind, t=32, a=0.2, b=0.008, tau=1.0)  # the defaults
    with pytest.raises(ValueError, match=f"option {option}="):
        build_schedule(kind, t=32, **{option: value})
    build_schedule("truncated-linear", t=32, **{option: value})


@pytest.mark.parametrize("kind", KINDS)
def test_a_config_of_any_family_builds_with_its_default_options(kind):
    cfg = TrainConfig(schedule_kind=kind)
    sch = build_schedule(kind, cfg.t, cfg.schedule_a, cfg.schedule_b, cfg.schedule_tau)
    assert sch.t == cfg.t
    assert build_schedule(kind, cfg.t).betas.tobytes() == sch.betas.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_respaced_table_keeps_alpha_bar_at_the_visited_steps(kind):
    sch = build_schedule(kind, t=32)
    visited = np.array([4, 8, 16, 24, 32])
    resp = respace(sch, visited)
    assert resp.t == 5 and resp.kind == kind
    # beta' near 1 loses digits in 1 - beta', hence not 1e-15
    assert np.allclose(resp.alpha_bars, sch.alpha_bars[visited - 1], rtol=1e-10, atol=0)
    # the last reverse step still collapses onto the clean estimate
    assert (resp.coef_x0[0], resp.coef_xs[0], resp.beta_tilde[0]) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_horizon_over_the_ceiling_is_refused_before_any_column_is_built(kind, monkeypatch):
    from seqdiff.config import MAX_T_LIMIT

    monkeypatch.setattr(np, "empty", None)  # the cosine and sqrt loops' first array
    monkeypatch.setattr(np, "arange", None)
    monkeypatch.setattr(np, "linspace", None)
    with pytest.raises(ValueError, match=re.escape(
            f"horizon must be in [1, {MAX_T_LIMIT}] (config.MAX_T_LIMIT), got {10**9}")):
        build_schedule(kind, 10**9)


def test_sqrt_schedule_whose_alpha_bar_reaches_zero_caps_the_next_step():
    # 1 - sqrt(0.9999 + 1e-4) is exactly 0, so step 10,000 divides by zero
    sch = build_schedule("sqrt", 10_000)
    assert sch.betas[-2:].tolist() == [0.999, 0.999]
    with pytest.raises(ScheduleValidityError, match="beta_20000"):
        build_schedule("sqrt", 20_000)  # its last step has alpha_bar < 0 before it
