"""Noise schedules and the reverse-posterior coefficients they induce.

A schedule fixes per-step noise magnitudes beta_1..beta_t; everything else
(alpha_s = 1 - beta_s, the cumulative signal fraction alpha_bar_s, and the
one-step reverse posterior) derives from it. alpha_bar_0 is defined as 1
(empty product), which forces the s=1 posterior to collapse onto the clean
estimate exactly.

Four families are supported:

* truncated-linear: beta_s = (a/t)*s + b/s, and any raw value above the
  threshold tau is replaced by one tenth of itself. A `b_constant` variant
  uses a flat offset b instead of b/s.
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

KINDS = ("truncated-linear", "linear", "cosine", "sqrt")

_MAX_BETA = 0.999


class ScheduleValidityError(ValueError):
    """A constructed schedule has a step with beta outside (0, 1)."""


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str
    t: int
    betas: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    alpha_bars: np.ndarray = field(repr=False)

    @property
    def alpha_0(self) -> float:
        """Signal fraction for the one-step corruption of the clean embedding."""
        return 1.0 - float(self.betas[0])


@dataclass(frozen=True)
class PosteriorCoeffs:
    coef_x0: float
    coef_xs: float
    beta_tilde: float


def _betas_from_alpha_bar_fn(fn, t: int) -> np.ndarray:
    betas = np.empty(t)
    prev = fn(0.0)
    for i in range(1, t + 1):
        cur = fn(i / t)
        betas[i - 1] = min(1.0 - cur / prev, _MAX_BETA)
        prev = cur
    return betas


def build_schedule(kind: str, t: int, a: float = 0.2, b: float = 0.008,
                   tau: float = 1.0, b_constant: bool = False) -> NoiseSchedule:
    """Construct and validate a schedule of the given family and horizon."""
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    if kind == "truncated-linear":
        s = np.arange(1, t + 1, dtype=float)
        offset = b if b_constant else b / s
        raw = (a / t) * s + offset
        betas = np.where(raw > tau, raw / 10.0, raw)
    elif kind == "linear":
        scl = 1000.0 / t
        betas = np.linspace(1e-4 * scl, 0.02 * scl, t)
    elif kind == "cosine":
        betas = _betas_from_alpha_bar_fn(
            lambda u: math.cos((u + 0.008) / 1.008 * math.pi / 2.0) ** 2, t)
    elif kind == "sqrt":
        betas = _betas_from_alpha_bar_fn(lambda u: 1.0 - math.sqrt(u + 1e-4), t)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {KINDS}")

    bad = np.nonzero((betas <= 0.0) | (betas >= 1.0))[0]
    if bad.size:
        s0 = int(bad[0]) + 1
        raise ScheduleValidityError(
            f"{kind} schedule invalid: beta_{s0} = {betas[bad[0]]:.6g} not in (0, 1)")
    alphas = 1.0 - betas
    return NoiseSchedule(kind=kind, t=t, betas=betas, alphas=alphas,
                         alpha_bars=np.cumprod(alphas))


def alpha_bar(schedule: NoiseSchedule, s: int) -> float:
    """Cumulative signal fraction after s steps; s=0 is the empty product 1."""
    if not 0 <= s <= schedule.t:
        raise ValueError(f"step {s} out of range [0, {schedule.t}]")
    if s == 0:
        return 1.0
    return float(schedule.alpha_bars[s - 1])


def posterior(schedule: NoiseSchedule, s: int) -> PosteriorCoeffs:
    """One-step reverse posterior weights at step s.

    mean = coef_x0 * x0_hat + coef_xs * x_s, variance beta_tilde. At s=1 the
    coefficients are exactly (1, 0, 0) so the final reverse step reproduces
    the clean estimate bit for bit.
    """
    if not 1 <= s <= schedule.t:
        raise ValueError(f"step {s} out of range [1, {schedule.t}]")
    if s == 1:
        return PosteriorCoeffs(1.0, 0.0, 0.0)
    ab_prev = alpha_bar(schedule, s - 1)
    ab_cur = float(schedule.alpha_bars[s - 1])
    beta = float(schedule.betas[s - 1])
    alpha = float(schedule.alphas[s - 1])
    denom = 1.0 - ab_cur
    return PosteriorCoeffs(
        coef_x0=math.sqrt(ab_prev) * beta / denom,
        coef_xs=math.sqrt(alpha) * (1.0 - ab_prev) / denom,
        beta_tilde=(1.0 - ab_prev) / denom * beta,
    )


def schedule_rows(schedule: NoiseSchedule) -> list[dict]:
    """Per-step table of the schedule and its posterior, for the CSV dump."""
    rows = []
    for s in range(1, schedule.t + 1):
        post = posterior(schedule, s)
        rows.append({
            "s": s,
            "beta": float(schedule.betas[s - 1]),
            "alpha": float(schedule.alphas[s - 1]),
            "alpha_bar": float(schedule.alpha_bars[s - 1]),
            "coef_x0": post.coef_x0,
            "coef_xs": post.coef_xs,
            "beta_tilde": post.beta_tilde,
        })
    return rows


def dump_schedule_csv(schedule: NoiseSchedule, path) -> None:
    """Write `s,beta,alpha,alpha_bar,coef_x0,coef_xs,beta_tilde` rows, 12 sig digits."""
    with open(path, "w") as fh:
        fh.write("s,beta,alpha,alpha_bar,coef_x0,coef_xs,beta_tilde\n")
        for row in schedule_rows(schedule):
            vals = [f"{row[k]:.12g}" for k in
                    ("beta", "alpha", "alpha_bar", "coef_x0", "coef_xs", "beta_tilde")]
            fh.write(f"{row['s']}," + ",".join(vals) + "\n")
