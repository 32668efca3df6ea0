"""Seeded random streams.

Every stochastic piece of the library (noise injection, step sampling,
dropout, batch shuffling) draws from an RngStream, so any result is a pure
function of (seed, derivation key, call sequence). Parallel consumers must
not share a stream; they take derived child streams instead.
"""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 1 << 64  # seeds and derivation keys are 64-bit words


def _word(value: int, what: str) -> int:
    value = int(value)
    if not 0 <= value < SEED_LIMIT:  # masking would alias it to another seed
        raise ValueError(f"{what} must be in [0, 2**64), got {value}")
    return value


class RngStream:
    """A deterministic PCG64 stream identified by a seed plus a derivation key.

    Two streams built from equal (seed, key) pairs produce identical draws;
    a seed or key outside [0, 2**64) is refused.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = _word(seed, "seed")
        self._key = tuple(_word(k, "derivation key") for k in _key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, *self._key]))
        )

    def derive(self, k: int) -> "RngStream":
        """Child stream for worker/sequence `k`; independent of this stream's state."""
        return RngStream(self.seed, self._key + (k,))

    def gaussian(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """I.i.d. normal draws; std=0 yields a constant array equal to `mean`."""
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        return mean + std * self._gen.standard_normal(shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in the half-open range [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self._key})"


def gaussian_rows(streams, row_shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """One (1, *row_shape) draw from each stream, stacked in stream order.

    Row i equals `streams[i].gaussian((1, *row_shape), mean, std)`, so a
    row's values do not depend on the other streams in the batch. Each
    stream fills its own row of one preallocated float64 block, which is
    then scaled by `std` and shifted by `mean` in place: the products and
    sums of `mean + std * z`, taken in the other order, so the same bytes.
    """
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    out = np.empty((len(streams), *row_shape))
    for s, row in zip(streams, out):
        s._gen.standard_normal(out=row)
    out *= std
    out += mean
    return out
