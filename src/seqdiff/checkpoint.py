"""Versioned binary checkpoints.

Layout: 8-byte magic, uint32 format version, uint32 metadata length, a JSON
metadata block (config snapshot, vocabulary size, epoch reached, and the
tensor listing `[[name, [dims...]], ...]`), then each listed tensor's
row-major little-endian float64 payload, back to back. The listing must be
`model.param_shapes` of the metadata's config and vocabulary size, in that
order; loading checks it before it reads any value. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from .config import TrainConfig, config_from_dict
from .model import Approximator, param_shapes
from .tensor import Tensor

MAGIC = b"SEQDIF01"
FORMAT_VERSION = 2


@dataclass
class ModelCheckpoint:
    config: TrainConfig
    vocab_size: int
    epoch: int
    tensors: dict[str, np.ndarray]


def model_from_checkpoint(ckpt: ModelCheckpoint) -> Approximator:
    """An Approximator holding copies of the tensors, which `load_checkpoint`
    checked against the metadata; it draws no random numbers."""
    return Approximator({name: Tensor(arr.copy(), requires_grad=True)
                         for name, arr in ckpt.tensors.items()}, ckpt.config)


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    listing = [[name, list(arr.shape)] for name, arr in ckpt.tensors.items()]
    meta = json.dumps({"config": asdict(ckpt.config), "vocab_size": ckpt.vocab_size,
                       "epoch": ckpt.epoch, "tensors": listing}).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta)) + meta)
        for arr in ckpt.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes; a length past the end of the file is refused before reading,
    so a declared length costs no memory beyond the file's size."""
    buf = fh.read(n) if n <= os.fstat(fh.fileno()).st_size - fh.tell() else b""
    if len(buf) != n:
        raise ValueError(f"file ends inside {what}")
    return buf


def _check_listing(listing, shapes: dict[str, tuple[int, ...]]) -> None:
    """Refuse a tensor listing other than `shapes`, naming its first difference."""
    if type(listing) is not list or not all(
            type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is list
            and all(type(d) is int for d in e[1]) for e in listing):
        raise ValueError("metadata field 'tensors' is not a list of [name, dims] pairs")
    implied = [[name, list(shape)] for name, shape in shapes.items()]
    for i, (listed, want) in enumerate(zip_longest(listing, implied)):
        if listed != want:  # None past the end of the shorter list
            raise ValueError(
                f"tensor {i} is listed as {json.dumps(listed)} where the metadata implies "
                f"{json.dumps(want)} ({len(listing)} listed, {len(implied)} implied)")


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic bytes {magic!r}")
        version = struct.unpack("<I", _read_exact(fh, 4, "version field"))[0]
        if version != FORMAT_VERSION:
            raise ValueError(
                f"format version {version}, this build reads {FORMAT_VERSION}")
        meta_len = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))[0]
        meta_bytes = _read_exact(fh, meta_len, "metadata block")
        try:  # bad UTF-8, deep nesting and long ints raise too; cut a long int's sys.* advice
            meta = json.loads(meta_bytes)
        except (ValueError, RecursionError) as exc:
            raise ValueError(
                f"checkpoint metadata does not parse: {str(exc).split(';')[0]}") from None
        if type(meta) is not dict:
            raise ValueError("checkpoint metadata is not a JSON object")
        try:
            if type(meta["config"]) is not dict:
                raise ValueError("metadata field 'config' is not a JSON object")
            try:
                cfg = config_from_dict(meta["config"])
            except ValueError as exc:
                raise ValueError(f"metadata field 'config': {exc}") from None
            vocab_size, epoch, listing = meta["vocab_size"], meta["epoch"], meta["tensors"]
        except KeyError as exc:
            raise ValueError(f"metadata missing field: {exc}") from None
        for field, value, least in (("vocab_size", vocab_size, 1), ("epoch", epoch, 0)):
            if type(value) is not int or value < least:  # a JSON bool, float or string is not one
                raise ValueError(
                    f"metadata field {field!r} must be an integer >= {least}, got {value!r}")
        shapes = param_shapes(vocab_size, cfg)
        _check_listing(listing, shapes)
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            payload = _read_exact(fh, 8 * math.prod(shape), f"data of {name!r}")
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            if not np.all(np.isfinite(tensors[name])):
                raise ValueError(f"tensor {name!r} holds non-finite values")
        if fh.read(1):
            raise ValueError("trailing bytes after the last tensor")
    return ModelCheckpoint(config=cfg, vocab_size=vocab_size, epoch=epoch, tensors=tensors)
