"""Forward corruption and single-step reverse of target representations.

The forward side (used in training) is differentiable: gradients flow from
the loss back into the clean target embedding through the reparameterized
noise. The reverse side (used in inference only) works on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream
from .schedule import NoiseSchedule, posterior
from .tensor import Tensor, add, mul, scale

__all__ = ["embed_to_x0", "q_sample", "reverse_step", "sample_steps"]


def embed_to_x0(e_target: Tensor, schedule: NoiseSchedule, rng: RngStream) -> Tensor:
    """One-step corruption of the target embedding into the chain's x_0.

    x_0 = sqrt(alpha_0) * e + sqrt(1 - alpha_0) * eps with alpha_0 = 1 - beta_1
    taken from the schedule.
    """
    a0 = schedule.alpha_0
    eps = rng.gaussian(e_target.shape)
    return add(scale(e_target, np.sqrt(a0)), Tensor(np.sqrt(1.0 - a0) * eps))


def q_sample(x_0: Tensor, s, schedule: NoiseSchedule, eps: np.ndarray) -> Tensor:
    """Closed-form jump to step s: x_s = sqrt(ab_s) x_0 + sqrt(1-ab_s) eps.

    `s` may be a scalar step or a per-row integer array for batched
    training; `eps` must match x_0's shape.
    """
    s_arr = np.asarray(s)
    if s_arr.size and (s_arr.min() < 1 or s_arr.max() > schedule.t):
        raise ValueError(f"step {s} out of range [1, {schedule.t}]")
    if eps.shape != x_0.shape:
        raise ValueError(f"eps shape {eps.shape} != x_0 shape {x_0.shape}")
    ab = schedule.alpha_bars[s_arr - 1]
    if s_arr.ndim == 1:
        ab = ab[:, None]
    signal = mul(x_0, Tensor(np.broadcast_to(np.sqrt(ab), x_0.shape).copy()))
    return add(signal, Tensor(np.sqrt(1.0 - ab) * eps))


def reverse_step(x_s: np.ndarray, x0_hat: np.ndarray, s: int,
                 schedule: NoiseSchedule, eps_prime: np.ndarray) -> np.ndarray:
    """One reverse step: the posterior mean plus eps_prime scaled by beta_tilde
    itself, not its square root. At s=1 the posterior degenerates to x0_hat."""
    if x_s.shape != x0_hat.shape:
        raise ValueError(f"shape mismatch: x_s {x_s.shape} vs x0_hat {x0_hat.shape}")
    coef_x0, coef_xs, beta_tilde = posterior(schedule, s)  # validates the step range
    if s == 1:
        return x0_hat.copy()
    return coef_x0 * x0_hat + coef_xs * x_s + beta_tilde * eps_prime


def sample_steps(t: int, size: int | None, rng: RngStream):
    """Uniform step indices in [1, t]: an array of `size`, or one value if None."""
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    return rng.integers(1, t + 1, size=size)
