"""Noise schedules and the reverse-posterior coefficients they induce.

A schedule fixes per-step noise magnitudes beta_1..beta_t; everything else
(alpha_s = 1 - beta_s, the cumulative signal fraction alpha_bar_s, and the
one-step reverse posterior) derives from it, once, in `schedule_from_betas`:
a `NoiseSchedule` is that per-step table. alpha_bar_0 is defined as 1
(empty product), which forces the s=1 posterior to collapse onto the clean
estimate exactly.

Four families are supported:

* truncated-linear: beta_s = (a/t)*s + b/s, and any raw value above the
  threshold tau is replaced by one tenth of itself. Only this family reads
  a, b and tau; the others reject them away from `TrainConfig`'s defaults.
* linear: endpoints 1e-4..0.02 rescaled by 1000/t so short horizons still
  reach heavy noise.
* cosine: alpha_bar(u) = cos^2(((u + 0.008)/1.008) * pi/2) ratios, capped
  at beta <= 0.999.
* sqrt: alpha_bar(u) = 1 - sqrt(u + 1e-4) ratios, same cap (the closed form
  goes negative at u=1, so the cap is what keeps the last step valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_T_LIMIT, TrainConfig, check_schedule

_MAX_BETA = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step table: index s-1 of each column belongs to step s."""

    kind: str
    t: int
    betas: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    alpha_bars: np.ndarray = field(repr=False)
    coef_x0: np.ndarray = field(repr=False)
    coef_xs: np.ndarray = field(repr=False)
    beta_tilde: np.ndarray = field(repr=False)

    @property
    def alpha_0(self) -> float:
        """Signal fraction for the one-step corruption of the clean embedding."""
        return 1.0 - float(self.betas[0])


def _betas_from_alpha_bar_fn(fn, t: int) -> np.ndarray:
    betas = np.empty(t)
    prev = fn(0.0)
    for i in range(1, t + 1):
        cur = fn(i / t)
        # sqrt's alpha_bar is exactly 0 at u = 0.9999 when t is a multiple of
        # 10,000; at the next step cur < 0 = prev, and 1 - cur/prev, +inf as
        # an IEEE division, takes the cap
        betas[i - 1] = min(1.0 - cur / prev, _MAX_BETA) if prev else _MAX_BETA
        prev = cur
    return betas


def build_schedule(kind: str, t: int, a: float = TrainConfig.schedule_a,
                   b: float = TrainConfig.schedule_b,
                   tau: float = TrainConfig.schedule_tau) -> NoiseSchedule:
    """Construct and validate a schedule of the given family and horizon."""
    if not 1 <= t <= MAX_T_LIMIT:
        raise ValueError(f"horizon must be in [1, {MAX_T_LIMIT}] (config.MAX_T_LIMIT), got {t}")
    check_schedule(kind, a, b, tau)
    if kind == "truncated-linear":
        s = np.arange(1, t + 1, dtype=float)
        raw = (a / t) * s + b / s
        betas = np.where(raw > tau, raw / 10.0, raw)
    elif kind == "linear":
        scl = 1000.0 / t
        betas = np.linspace(1e-4 * scl, 0.02 * scl, t)
    elif kind == "cosine":
        betas = _betas_from_alpha_bar_fn(
            lambda u: math.cos((u + 0.008) / 1.008 * math.pi / 2.0) ** 2, t)
    else:
        betas = _betas_from_alpha_bar_fn(lambda u: 1.0 - math.sqrt(u + 1e-4), t)
    return schedule_from_betas(kind, betas)


def schedule_from_betas(kind: str, betas) -> NoiseSchedule:
    """Check every beta is in (0, 1), then derive the rest of the table.

    Posterior at step s: mean = coef_x0 * x0_hat + coef_xs * x_s, variance
    beta_tilde. Row 1 is exactly (1, 0, 0), so the final reverse step
    reproduces the clean estimate bit for bit.
    """
    betas = np.asarray(betas, dtype=float)
    bad = np.nonzero((betas <= 0.0) | (betas >= 1.0))[0]
    if bad.size:
        s0 = int(bad[0]) + 1
        raise ValueError(
            f"{kind} schedule invalid: beta_{s0} = {betas[bad[0]]:.6g} not in (0, 1)")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    ab_prev, beta = alpha_bars[:-1], betas[1:]  # steps 2..t; alpha_bar_0 = 1 gives row 1
    denom = 1.0 - alpha_bars[1:]
    return NoiseSchedule(
        kind=kind, t=len(betas), betas=betas, alphas=alphas, alpha_bars=alpha_bars,
        coef_x0=np.concatenate(([1.0], np.sqrt(ab_prev) * beta / denom)),
        coef_xs=np.concatenate(([0.0], np.sqrt(alphas[1:]) * (1.0 - ab_prev) / denom)),
        beta_tilde=np.concatenate(([0.0], (1.0 - ab_prev) / denom * beta)))


def respace(schedule: NoiseSchedule, steps) -> NoiseSchedule:
    """Table of a reversal that visits only the increasing trained `steps`.

    Row i has beta'_i = 1 - alpha_bar[steps_i] / alpha_bar[steps_{i-1}], with
    the alpha_bar before the first visited step taken as 1, so the respaced
    alpha_bar matches the trained one at every visited step (timestep
    respacing, Nichol & Dhariwal, Improved DDPM, section 4).
    """
    ab = schedule.alpha_bars[np.asarray(steps) - 1]
    return schedule_from_betas(schedule.kind, 1.0 - ab / np.concatenate(([1.0], ab[:-1])))


def posterior(schedule: NoiseSchedule, s: int) -> tuple[float, float, float]:
    """Row s of the schedule's one-step reverse posterior: (coef_x0, coef_xs, beta_tilde)."""
    if not 1 <= s <= schedule.t:
        raise ValueError(f"step {s} out of range [1, {schedule.t}]")
    return (float(schedule.coef_x0[s - 1]), float(schedule.coef_xs[s - 1]),
            float(schedule.beta_tilde[s - 1]))


def dump_schedule_csv(schedule: NoiseSchedule, path) -> None:
    """Write `s,beta,alpha,alpha_bar,coef_x0,coef_xs,beta_tilde` rows, 12 sig digits."""
    columns = (schedule.betas, schedule.alphas, schedule.alpha_bars,
               schedule.coef_x0, schedule.coef_xs, schedule.beta_tilde)
    with open(path, "w") as fh:
        fh.write("s,beta,alpha,alpha_bar,coef_x0,coef_xs,beta_tilde\n")
        for s, row in enumerate(zip(*columns), start=1):
            fh.write(f"{s}," + ",".join(f"{v:.12g}" for v in row) + "\n")
