"""Inference: iterative reversal from noise, then scoring and ranking every item.

Scorers share one contract: `represent_batch(histories, rngs)` gives a (B, dim)
block, one target representation per history and stream (`represent` is the
one-row case), and `score_vector` turns it into (B, V+1) item scores by inner
product against the embedding table (column 0, padding, pinned to -inf). The
diffusion scorer reverses a Gaussian sample through the trained approximator;
the next-item scorer (adversarial baseline) encodes the history once. Rows run
in unpadded groups of one length and each is scored by its own product, so a
row's bytes do not depend on the rows batched with it.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import ModelCheckpoint, model_from_checkpoint
from .diffusion import reverse_step
from .model import Approximator
from .rng import RngStream, gaussian_rows
from .schedule import build_schedule, respace

ROWS_PER_CALL = 256  # most histories one approximator call takes; bounds memory


class HistoryError(ValueError):
    """A history the model cannot score: empty, or an item outside the vocabulary."""


def check_items(history, n_items: int) -> None:
    """Raise HistoryError naming the first item of `history` outside [1, n_items]."""
    hist = np.asarray(history)
    bad = hist[(hist < 1) | (hist > n_items)]
    if bad.size:
        raise HistoryError(f"history item {bad[0]} is outside [1, {n_items}]")


def rank_items(scores) -> np.ndarray:
    """Items 1..V by descending score (last axis), ties to the lower index; no padding (0)."""
    return np.argsort(-np.asarray(scores)[..., 1:], axis=-1, kind="stable") + 1


class Scorer:
    """Common surface for ranking models and reference baselines."""

    n_items: int

    def represent(self, history, rng: RngStream) -> np.ndarray:
        raise NotImplementedError

    def score_vector(self, vecs: np.ndarray) -> np.ndarray:
        """(B, dim) representations -> fresh (B, n_items + 1) scores, column 0 = -inf."""
        raise NotImplementedError

    def score(self, history, rng: RngStream) -> np.ndarray:
        return self.score_vector(self.represent(history, rng)[None])[0]


class _EmbeddingScorer(Scorer):
    def __init__(self, model: Approximator):
        self.model = model
        self.n_items = model.vocab_size

    def score_vector(self, vecs: np.ndarray) -> np.ndarray:
        # One product per row: in a single (B, dim) @ (dim, V+1) gemm a row's
        # bytes depend on B unless V+1 is a multiple of 8.
        vecs = np.ascontiguousarray(vecs)
        scores = np.matmul(self.model.params["item_emb"].data, vecs[:, :, None])[:, :, 0]
        if not np.all(np.isfinite(scores[:, 1:])):
            raise ValueError("the model produced non-finite item scores")
        scores[:, 0] = -np.inf
        return scores

    def _history(self, history) -> np.ndarray:
        hist = np.asarray(list(history)[-self.model.cfg.max_len:])
        if hist.size == 0:
            raise HistoryError("history is empty after truncation")
        check_items(hist, self.n_items)  # before the int cast, which overflows on huge items
        return hist.astype(int, copy=False)

    def represent_batch(self, histories, rngs) -> np.ndarray:
        """Checks every history, then runs `_represent_rows` per (B, n) group."""
        hists = [self._history(h) for h in histories]
        if not hists:
            return np.empty((0, self.model.cfg.dim))
        by_len: dict[int, list[int]] = {}
        for i, hist in enumerate(hists):
            by_len.setdefault(hist.size, []).append(i)
        chunks = [rows[a:a + ROWS_PER_CALL] for rows in by_len.values()
                  for a in range(0, len(rows), ROWS_PER_CALL)]
        parts = [self._represent_rows(np.stack([hists[i] for i in c]), [rngs[i] for i in c])
                 for c in chunks]
        return np.concatenate(parts)[np.argsort([i for c in chunks for i in c])]


class DiffusionScorer(_EmbeddingScorer):
    """Reverses pure noise into a target representation with the trained model.

    `steps` below the trained horizon t reverses along the evenly spaced
    trained steps `self.trained_steps` (ending at t), on the table
    `respace` derives for them; `steps == t` walks the trained table itself.
    `self.schedule` is the table the reversal walks.

    Each row's stream is consumed in a fixed order: the (1, dim) initial
    Gaussian, then per reverse step the row's (1, n, dim) mixing noise
    (inside the approximator) and its (1, dim) posterior noise.
    """

    def __init__(self, model: Approximator, steps: int | None = None):
        super().__init__(model)
        cfg = model.cfg
        self.steps = cfg.t if steps is None else int(steps)
        if not 1 <= self.steps <= cfg.t:
            raise ValueError(f"reverse steps must be in [1, {cfg.t}] (the trained "
                             f"horizon t), got {self.steps}")
        self.trained_steps = np.arange(1, self.steps + 1) * cfg.t // self.steps
        self.schedule = build_schedule(cfg.schedule_kind, cfg.t, cfg.schedule_a,
                                       cfg.schedule_b, cfg.schedule_tau)
        if self.steps < cfg.t:
            self.schedule = respace(self.schedule, self.trained_steps)

    def represent(self, history, rng: RngStream) -> np.ndarray:
        return self.represent_batch([history], [rng])[0]

    def _represent_rows(self, hist: np.ndarray, rngs: list) -> np.ndarray:
        b, dim = len(hist), self.model.cfg.dim
        mask = np.ones(hist.shape)
        x = gaussian_rows(rngs, (dim,))
        for i in range(self.steps, 0, -1):
            trained = np.full(b, self.trained_steps[i - 1])
            x0_hat = self.model.reconstruct(hist, mask, x, trained, rngs,
                                            train_mode=False).data
            x = reverse_step(x, x0_hat, i, self.schedule, gaussian_rows(rngs, (dim,)))
        return x


class NextItemScorer(_EmbeddingScorer):
    """Deterministic encoder scoring for the plain next-item (adversarial) model."""

    def represent(self, history, rng: RngStream | None = None) -> np.ndarray:
        return self.represent_batch([history], [rng])[0]

    def _represent_rows(self, hist: np.ndarray, rngs: list) -> np.ndarray:
        return self.model.encode_history(hist, np.ones(hist.shape), train_mode=False).data


def build_scorer(ckpt: ModelCheckpoint, steps: int | None = None) -> Scorer:
    model = model_from_checkpoint(ckpt)
    if ckpt.config.mode == "adversarial":
        if steps is not None:
            raise ValueError("reverse steps (--steps) apply only to diffusion checkpoints")
        return NextItemScorer(model)
    return DiffusionScorer(model, steps)


def infer(scorer: Scorer, sequence, rng: RngStream) -> list[int]:
    """Full ranked item list for one history."""
    return rank_items(scorer.score(sequence, rng)).tolist()
