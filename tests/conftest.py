import dataclasses
import json
import struct

import numpy as np
import pytest

from seqdiff.config import TrainConfig
from seqdiff.rng import RngStream
from seqdiff.tensor import Tensor, _record, tracked


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element as a scalar tensor: the loss the gradient tests reduce to."""
    out = Tensor(a.data.sum())
    if tracked(a):
        shape = a.shape
        _record(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))
    return out


def markov_transition_matrix(n_items: int, seed: int) -> np.ndarray:
    """The row-stochastic matrix a `synth("markov", ...)` dataset samples from."""
    rng = RngStream(seed)
    dominant = rng.integers(1, n_items + 1, size=n_items)
    mat = np.full((n_items, n_items), 0.2 / (n_items - 1))
    for i in range(n_items):
        mat[i, dominant[i] - 1] = 0.8
    return mat


def format_config(cfg: TrainConfig) -> str:
    """The config file text that `parse_config` reads back as `cfg`."""
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def replace_metadata(ckpt_bytes: bytes, encoded: bytes) -> bytes:
    """Checkpoint bytes with the metadata block (after the 8-byte magic, u32
    version and u32 length) replaced by `encoded`; the payloads are left as they are."""
    (meta_len,) = struct.unpack("<I", ckpt_bytes[12:16])
    return ckpt_bytes[:12] + struct.pack("<I", len(encoded)) + encoded + ckpt_bytes[16 + meta_len:]


def with_metadata(ckpt_bytes: bytes, edit) -> bytes:
    """Checkpoint bytes with `edit(meta)` applied to the parsed JSON metadata."""
    (meta_len,) = struct.unpack("<I", ckpt_bytes[12:16])
    meta = json.loads(ckpt_bytes[16:16 + meta_len])
    edit(meta)
    return replace_metadata(ckpt_bytes, json.dumps(meta).encode())


def finite_diff_grad(loss_fn, tensor, h=1e-5):
    """Central-difference gradient of a scalar loss w.r.t. one tensor.

    `loss_fn` must re-run the forward pass (reading tensor.data) and return
    a float; the tensor is restored element by element.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        f_plus = loss_fn()
        flat[j] = orig - h
        f_minus = loss_fn()
        flat[j] = orig
        gflat[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    """Largest deviation, relative to the gradient scale of the tensor."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def desk_config(**overrides) -> TrainConfig:
    """Small-model profile used throughout the tests."""
    base = dict(dim=32, blocks=2, heads=2, t=8, batch_size=128, epochs=50,
                max_len=50, delta=0.001, eval_every=5, patience=3)
    base.update(overrides)
    return TrainConfig(**base).validate()


@pytest.fixture
def rng_seed():
    return 12345


def pytest_configure(config):
    np.seterr(over="raise", invalid="raise")
