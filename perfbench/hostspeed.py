"""Host-speed reference for the seqdiff benchmark.

The benchmark runs on shared hosts whose speed moves under it: on a 2-core
shared VM, one fixed loop of small numpy ops switched between about 3.5 and
6.5 ms per block within seconds, and whole runs a few minutes apart
differed by about 1.5x. No statistic over one run removes a slowdown that
lasts the whole run.

So the benchmark times each short unit of work (a training epoch, an
`evaluate()` call on a few sequences, a block of `infer()` calls, a probe,
a set-up) between two runs of a fixed reference kernel, and reports the
unit's time at the reference speed:

    t_ref = t_wall * NOMINAL_S[kernel] / sqrt(ref_before * ref_after)

Each kernel runs the ops the program runs: matmul, softmax and layer norm,
with backward steps. Code on a few rows, bound by call overhead, gains more
from a quiet host than code on batch-sized arrays, so there are two: the
dispatch kernel for set-up and the 1-history paths (evaluation, inference,
probes) and the batch kernel for training. On the host above, the batch
kernel cut the coefficient of variation of 1 s training runs within a run
from 15.5% (wall clock) to 6.8%, where the dispatch kernel left 10.5%; for blocks of infer
calls the dispatch kernel cut 28% to 9.9%. The kernels do not call
`seqdiff`, so a change to the program moves the scaled times in full, and
the tracer never sees them. Wall-clock times are recorded beside the
scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(0)
_ROW = _rng.standard_normal((16, 32))  # a few rows, as in a 1-history reversal
_BATCH = _rng.standard_normal((2560, 32))  # 128 rows x 20 positions, as in a training batch
_W = [_rng.standard_normal((32, 32)) / 6 for _ in range(4)]


class _Node:
    __slots__ = ("data", "parents", "fn")

    def __init__(self, data, parents, fn):
        self.data = data
        self.parents = parents
        self.fn = fn


def dispatch_kernel_s() -> float:
    """Small-array kernel, bound by Python and numpy call overhead."""
    start = time.perf_counter()
    for _ in range(45):
        tape = []
        x = _ROW
        for w in _W:
            h = x @ w
            tape.append(_Node(h, (x, w), lambda g, w=w: g @ w.T))
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            e = e / e.sum(axis=-1, keepdims=True)
            tape.append(_Node(e, (h,), lambda g, e=e: e * (g - (g * e).sum(-1, keepdims=True))))
            mu = e.mean(-1, keepdims=True)
            var = ((e - mu) ** 2).mean(-1, keepdims=True)
            x = (e - mu) / np.sqrt(var + 1e-5) + x
        g = np.ones_like(x)
        for node in reversed(tape[-2:]):
            g = node.fn(g)
    return time.perf_counter() - start


def batch_kernel_s() -> float:
    """The same ops on batch-sized arrays, bound by array arithmetic."""
    start = time.perf_counter()
    x = _BATCH
    for w in _W:
        h = x @ w
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        e = e / e.sum(axis=-1, keepdims=True)
        g = (e * (h - (h * e).sum(-1, keepdims=True))) @ w.T
        mu = e.mean(-1, keepdims=True)
        var = ((e - mu) ** 2).mean(-1, keepdims=True)
        x = (e - mu) / np.sqrt(var + 1e-5) + x + g
    return time.perf_counter() - start


# Nominal time of each kernel. Scaled times are "seconds on a host where
# the kernel takes this long". They are fixed constants, so scaled times
# compare across commits; their values only set the scale.
NOMINAL_S = {dispatch_kernel_s: 0.008, batch_kernel_s: 0.010}


class ReferenceClock:
    """Scales the wall time of consecutive units of work to reference speed.

    Call `factor()` right after each unit: it runs the kernel once more and
    returns the factor for the unit that just ended, from the kernel runs on
    either side of it. Call `restart()` before a unit that does not follow
    the previous unit of this clock directly.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.nominal = NOMINAL_S[kernel]
        for _ in range(5):  # the first runs in a process are slow
            kernel()
        self.refs: list[float] = []
        self._last = self._reference()

    def _reference(self) -> float:
        seconds = self.kernel()
        self.refs.append(seconds)
        return seconds

    def restart(self) -> None:
        """Take a fresh 'before' reference, after untimed work."""
        self._last = self._reference()

    def factor(self) -> float:
        after = self._reference()
        scale = self.nominal / math.sqrt(self._last * after)
        self._last = after
        return scale
