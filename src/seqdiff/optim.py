"""Adam optimizer over tracked tensors."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeMismatchError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moments' decay rates; the denominator's offset


class Adam:
    """Standard Adam with bias correction.

    Reads `.grad` of each parameter on `step()`; a missing gradient is
    treated as zero (which, from a cold start, leaves the parameter
    untouched exactly). The moments are updated in place, and each
    parameter's update is computed in one scratch buffer kept across
    steps. For a gradient of the parameter's dtype these are the
    floating-point operations, in the same order, of `m = BETA1*m + (1-BETA1)*g`,
    `v = BETA2*v + (1-BETA2)*(g*g)` and `p -= lr * (m/bc1) / (sqrt(v/bc2) + EPS)`.
    """

    def __init__(self, params: list[Tensor], lr: float = 0.001):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # per parameter: the numerator and the denominator of its update
        self._scratch = [np.empty((2,) + p.data.shape, p.data.dtype) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, m, v, (num, den) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad
            if g is None:
                g = 0.0
            elif g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=num)
            v *= BETA2
            np.multiply(g, g, out=den)
            den *= 1.0 - BETA2
            v += den
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            np.divide(m, bc1, out=num)
            num *= self.lr
            num /= den
            p.data -= num

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
