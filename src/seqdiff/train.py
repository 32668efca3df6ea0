"""Training loops: the diffusion objective and the adversarial baseline.

Both modes share the epoch driver: shuffled mini-batches, per-epoch mean
loss, periodic validation NDCG@10 with best-checkpoint tracking, and early
stop after `patience` non-improving evaluations. A run is a pure function
of (dataset, config, seed); checkpoints from identical runs are bit-exact.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import ModelCheckpoint
from .config import MAX_PARAMS, TrainConfig
from .data import DatasetSplits, Sample, SequenceDataset, split
from .diffusion import embed_to_x0, q_sample, sample_steps
from .evaluate import rank_records
from .infer import DiffusionScorer, NextItemScorer
from .metrics import metric_single
from .model import Approximator, init_params, param_shapes
from .optim import Adam
from .rng import RngStream
from .tensor import (Tape, Tensor, add, backward, cross_entropy_rows,
                     embedding_lookup, matmul, scale, transpose)


class TrainingDivergedError(RuntimeError):
    """A training batch produced a non-finite loss."""


@dataclass
class StepLog:
    epoch: int
    batch: int
    loss: float
    base_loss: float | None = None
    delta_norm: float | None = None


@dataclass
class TrainResult:
    checkpoint: ModelCheckpoint
    epoch_losses: list[float] = field(default_factory=list)
    step_logs: list[StepLog] = field(default_factory=list)
    best_val_ndcg10: float | None = None
    epochs_run: int = 0


def loss_batch(x0_hat: Tensor, targets, item_embeddings: Tensor) -> Tensor:
    """Mean cross entropy of each reconstruction against the full vocabulary.

    Logits are inner products with every embedding row; the padding row is
    excluded from the denominator and never receives gradient.
    """
    tgt = np.asarray(targets)
    if tgt.size == 0:
        raise ValueError("empty target batch")
    logits = matmul(x0_hat, transpose(item_embeddings, (1, 0)))
    return cross_entropy_rows(logits, tgt)


def _assemble(samples: list[Sample], idx: np.ndarray, max_len: int):
    """Right-padded history matrix, mask, and target vector for one batch."""
    hists = [samples[i].history[-max_len:] for i in idx]
    width = max(len(h) for h in hists)
    hist = np.zeros((len(hists), width), dtype=int)
    mask = np.zeros((len(hists), width))
    for r, h in enumerate(hists):
        hist[r, : len(h)] = h
        mask[r, : len(h)] = 1.0
    targets = np.array([samples[i].target for i in idx])
    return hist, mask, targets


def _validation_ndcg10(scorer, samples, rng_base: RngStream) -> float:
    # position-sensitive, so it keeps improving while top-1 accuracy does;
    # a hit-rate signal saturates long before convergence on easy data
    records = rank_records(scorer, samples, rng_base)
    return float(np.mean([metric_single(r.rank, 10)[1] for r in records]))


def _fit(splits: DatasetSplits, cfg: TrainConfig, model: Approximator,
         train_rng: RngStream, val_rng: RngStream, batch_step, scorer,
         log_fn) -> TrainResult:
    if not splits.train:
        raise ValueError("no trainable sequences (need >= 1 history item "
                         "before the training target)")
    n = len(splits.train)
    epoch_losses: list[float] = []
    step_logs: list[StepLog] = []
    best: dict[str, np.ndarray] | None = None
    best_metric: float | None = None
    best_epoch = 0
    strikes = 0
    epochs_run = 0
    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        order = train_rng.permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            hist, mask, targets = _assemble(splits.train, idx, cfg.max_len)
            entry = batch_step(hist, mask, targets, epoch, bi)
            if not np.isfinite(entry.loss):
                raise TrainingDivergedError(
                    f"training diverged: loss={entry.loss} at epoch {epoch} batch {bi}")
            step_logs.append(entry)
            loss_sum += entry.loss * len(idx)
        epoch_losses.append(loss_sum / n)
        if log_fn:
            log_fn(f"epoch {epoch}: mean loss {epoch_losses[-1]:.4f}")
        if splits.valid and cfg.eval_every > 0 and epoch % cfg.eval_every == 0:
            score = _validation_ndcg10(scorer, splits.valid,
                                       val_rng.derive(epoch))
            if log_fn:
                log_fn(f"epoch {epoch}: validation NDCG@10 {score:.4f}")
            if best_metric is None or score > best_metric:
                best_metric = score
                best_epoch = epoch
                best = {name: t.data.copy() for name, t in model.params.items()}
                strikes = 0
            else:
                strikes += 1
                if strikes >= cfg.patience:
                    if log_fn:
                        log_fn(f"early stop at epoch {epoch} "
                               f"(best NDCG@10 {best_metric:.4f} at epoch {best_epoch})")
                    break
    if best is None:
        best = {name: t.data.copy() for name, t in model.params.items()}
        best_epoch = epochs_run
    ckpt = ModelCheckpoint(config=cfg, vocab_size=model.vocab_size, epoch=best_epoch,
                           tensors=best)
    return TrainResult(checkpoint=ckpt, epoch_losses=epoch_losses,
                       step_logs=step_logs, best_val_ndcg10=best_metric,
                       epochs_run=epochs_run)


# glibc's mallopt parameters (malloc.h) and the values training sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # the largest value glibc accepts on 64-bit hosts
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def keep_freed_memory() -> bool:
    """Fix glibc's heap thresholds so freed batch memory stays mapped.

    Each training batch frees its tape's arrays together (about 12 MB for
    the bench's gru-markov batch). By default glibc maps arrays from 128 KB
    up on their own, and returns the freed top of the heap to the OS; both
    thresholds move with the sizes of earlier frees, and whether the top
    can be trimmed depends on where long-lived objects landed. So on a
    2-core VM one gru-markov training epoch took 6,185 minor faults and
    about 50 ms, or none and about 34 ms, depending on the work that the
    process ran before it. With arrays up to 32 MB taken from the heap and
    up to 64 MB of free heap kept, every batch after the first reuses the
    pages of the one before. The setting is process-wide and stays after
    training; it changes where memory comes from, not any value computed.
    Returns False, changing nothing, where the C library is not glibc.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc_version = ""
    if not libc_version.startswith("glibc"):
        return False
    libc = ctypes.CDLL(None)
    return bool(libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def _setup(dataset: SequenceDataset, cfg: TrainConfig, mode: str):
    """Checks shared by both modes, then the splits, a fresh model, its Adam,
    and the training and validation streams, all derived from cfg.seed."""
    cfg.validate()
    keep_freed_memory()
    if cfg.mode != mode:
        raise ValueError(f"expected mode {mode!r}, got {cfg.mode!r}")
    if not dataset.sequences:
        raise ValueError("dataset is empty")
    n_params = sum(math.prod(s) for s in param_shapes(dataset.n_items, cfg).values())
    if n_params > MAX_PARAMS:
        raise ValueError(f"the model would have {n_params:,} parameters, above "
                         f"{MAX_PARAMS:,} (config.MAX_PARAMS)")
    root = RngStream(cfg.seed)
    model = Approximator(init_params(dataset.n_items, cfg, root.derive(0)), cfg)
    adam = Adam(list(model.params.values()), lr=cfg.learning_rate)
    return split(dataset), model, adam, root.derive(1), root.derive(2)


def train(dataset: SequenceDataset, cfg: TrainConfig, log_fn=None) -> TrainResult:
    """Fit the diffusion recommender: per batch, sample a step, corrupt the
    target embedding to that step, reconstruct it from the mixed history,
    and minimize full-vocabulary cross entropy with Adam."""
    splits, model, adam, train_rng, val_rng = _setup(dataset, cfg, "diffusion")
    item_emb = model.params["item_emb"]
    scorer = DiffusionScorer(model)  # reads the live parameters at each validation
    schedule = scorer.schedule

    def batch_step(hist, mask, targets, epoch, bi) -> StepLog:
        steps = sample_steps(cfg.t, len(targets), train_rng)
        with Tape() as tape:
            e_target = embedding_lookup(item_emb, targets)
            x0 = embed_to_x0(e_target, schedule, train_rng)
            eps = train_rng.gaussian(x0.shape)
            xs = q_sample(x0, steps, schedule, eps)
            x0_hat = model.reconstruct(hist, mask, xs, steps, train_rng,
                                       train_mode=True)
            loss = loss_batch(x0_hat, targets, item_emb)
            loss_val = loss.item()
            if np.isfinite(loss_val):
                backward(tape, loss)
        adam.step()
        adam.zero_grad()
        return StepLog(epoch=epoch, batch=bi, loss=loss_val)

    return _fit(splits, cfg, model, train_rng, val_rng, batch_step, scorer, log_fn)


def adversarial_train(dataset: SequenceDataset, cfg: TrainConfig,
                      log_fn=None) -> TrainResult:
    """Fit the plain next-item transformer with an adversarial regularizer.

    Total loss is L(params) + gamma * L(params with the item table shifted
    by Delta). After each optimizer step Delta moves to epsilon times the
    unit gradient of the perturbed loss, starting from zero. Both passes of
    a batch reuse the same dropout masks, so epsilon=0 makes the perturbed
    pass bit-identical to the base pass.
    """
    splits, model, adam, train_rng, val_rng = _setup(dataset, cfg, "adversarial")
    item_emb = model.params["item_emb"]
    delta = np.zeros_like(item_emb.data)

    def batch_step(hist, mask, targets, epoch, bi) -> StepLog:
        nonlocal delta
        drop_seed = int(train_rng.integers(0, 2**62))
        with Tape() as tape:
            h = model.encode_history(hist, mask, train_mode=True,
                                     rng=RngStream(drop_seed))
            base = loss_batch(h, targets, item_emb)
            delta_t = Tensor(delta, requires_grad=True)
            shifted = add(item_emb, delta_t)
            h_adv = model.encode_history(hist, mask, train_mode=True,
                                         rng=RngStream(drop_seed),
                                         item_table=shifted)
            perturbed = loss_batch(h_adv, targets, shifted)
            total = add(base, scale(perturbed, cfg.gamma_adv))
            base_val = base.item()
            total_val = total.item()
            if np.isfinite(total_val):
                backward(tape, total)
        adam.step()
        adam.zero_grad()
        # gradient direction is what matters; the gamma factor cancels in the norm
        grad = delta_t.grad
        if cfg.epsilon_adv > 0 and grad is not None:
            norm = float(np.linalg.norm(grad))
            if norm > 0:
                delta = cfg.epsilon_adv * grad / norm
        return StepLog(epoch=epoch, batch=bi, loss=total_val,
                       base_loss=base_val,
                       delta_norm=float(np.linalg.norm(delta)))

    return _fit(splits, cfg, model, train_rng, val_rng, batch_step,
                NextItemScorer(model), log_fn)


def run_training(dataset: SequenceDataset, cfg: TrainConfig, log_fn=None) -> TrainResult:
    """Dispatch on cfg.mode."""
    if cfg.mode == "adversarial":
        return adversarial_train(dataset, cfg, log_fn)
    return train(dataset, cfg, log_fn)
