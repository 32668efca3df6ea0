"""Versioned binary checkpoints.

Layout: 8-byte magic, uint32 format version, uint32 metadata length, a JSON
metadata block (config snapshot, vocabulary size, epoch reached), uint32
tensor count, then one record per tensor: uint32 name length, utf-8 name,
uint32 rank, uint64 dims, and the row-major little-endian float64 payload.
The records are the model's parameters by name, in `model.param_shapes`
order. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .config import TrainConfig, config_from_dict
from .model import Approximator, param_shapes
from .tensor import Tensor

MAGIC = b"SEQDIF01"
FORMAT_VERSION = 1

_MAX_RANK = 8
_MAX_DIM = 1 << 40


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Magic bytes, container structure or tensor values are wrong."""


class CheckpointVersionError(CheckpointError):
    """File was written by an unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before a declared record is complete."""


class CheckpointShapeError(CheckpointError):
    """A tensor record declares an inconsistent shape table."""


@dataclass
class ModelCheckpoint:
    config: TrainConfig
    vocab_size: int
    epoch: int
    tensors: dict[str, np.ndarray]


def model_from_checkpoint(ckpt: ModelCheckpoint) -> Approximator:
    """Rebuild an Approximator whose parameters are copies of the checkpoint tensors.

    The stored names and shapes must be those the metadata implies; they are
    checked before any parameter is allocated, so metadata that disagrees
    with the tensors costs no memory. Loading draws no random numbers.
    """
    shapes = param_shapes(ckpt.vocab_size, ckpt.config)
    for name, shape in shapes.items():
        if name not in ckpt.tensors:
            raise CheckpointShapeError(f"checkpoint is missing tensor {name!r}")
        stored = ckpt.tensors[name]
        if stored.shape != shape:
            raise CheckpointShapeError(
                f"tensor {name!r} has shape {stored.shape}, expected {shape}")
    extra = next((name for name in ckpt.tensors if name not in shapes), None)
    if extra is not None:
        raise CheckpointShapeError(f"checkpoint holds tensor {extra!r}, which its metadata "
                                   "does not imply")
    return Approximator({name: Tensor(ckpt.tensors[name].copy(), requires_grad=True)
                         for name in shapes}, ckpt.config)


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    meta = json.dumps({
        "config": asdict(ckpt.config),
        "vocab_size": ckpt.vocab_size,
        "epoch": ckpt.epoch,
    }).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(ckpt.tensors)))
        for name, arr in ckpt.tensors.items():
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes; a length past the end of the file is refused before reading,
    so a declared length costs no memory beyond the file's size."""
    buf = fh.read(n) if n <= os.fstat(fh.fileno()).st_size - fh.tell() else b""
    if len(buf) != n:
        raise CheckpointTruncatedError(f"file ends inside {what}")
    return buf


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic bytes {magic!r}")
        version = struct.unpack("<I", _read_exact(fh, 4, "version field"))[0]
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"format version {version}, this build reads {FORMAT_VERSION}")
        meta_len = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))[0]
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata block"))
        except json.JSONDecodeError as exc:
            raise CheckpointFormatError(f"metadata is not valid JSON: {exc}") from None
        n_tensors = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))[0]
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            name_len = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))[0]
            name = _read_exact(fh, name_len, "tensor name").decode()
            rank = struct.unpack("<I", _read_exact(fh, 4, f"rank of {name!r}"))[0]
            if rank > _MAX_RANK:
                raise CheckpointShapeError(f"tensor {name!r} declares rank {rank}")
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, f"dims of {name!r}"))
            if any(d == 0 or d > _MAX_DIM for d in dims):
                raise CheckpointShapeError(f"tensor {name!r} declares dims {dims}")
            if name in tensors:
                raise CheckpointShapeError(f"duplicate tensor name {name!r}")
            count = math.prod(dims)
            payload = _read_exact(fh, 8 * count, f"data of {name!r}")
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            if not np.all(np.isfinite(tensors[name])):
                raise CheckpointFormatError(f"tensor {name!r} holds non-finite values")
        if fh.read(1):
            raise CheckpointFormatError("trailing bytes after the last tensor")
    try:
        cfg = config_from_dict(meta["config"])
        vocab_size, epoch = meta["vocab_size"], meta["epoch"]
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"metadata missing field: {exc}") from None
    for field, value, least in (("vocab_size", vocab_size, 1), ("epoch", epoch, 0)):
        if type(value) is not int or value < least:  # a JSON bool, float or string is not one
            raise CheckpointFormatError(
                f"metadata field {field!r} must be an integer >= {least}, got {value!r}")
    return ModelCheckpoint(config=cfg, vocab_size=vocab_size, epoch=epoch,
                           tensors=tensors)
