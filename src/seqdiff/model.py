"""The learnable reconstruction network.

Historical item embeddings are blended with the (noised or partially
reversed) target representation plus a sinusoidal step embedding, run
through a stack of bidirectional post-norm transformer blocks (or a single
GRU layer, kept for comparison), and the representation at the last valid
position is emitted as the reconstructed target. The final transformer
block computes only that row; its keys and values still cover every valid
position. `train_mode` alone picks the forward: training records a taped
forward with dropout, eval runs it without dropout on plain arrays.

Training rows are right-padded, and only the encoders handle padding: padded
positions are excluded as keys and the output is read at each row's last valid
position, so the ids behind the padding change no byte and get zero gradient.
Eval rows are unpadded (scorers group histories by length); eval refuses padding.
Attention is unmasked: the network reconstructs one target from a completed
history, so there is no causal constraint; learned positional embeddings keep
the encoder order-aware.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TrainConfig
from .rng import RngStream, gaussian_rows
from .tensor import (Tensor, add, default_dtype, dropout, embedding_lookup, gather_rows,
                     layer_norm, layer_norm_array, matmul, mul, relu, reshape, scale, sigmoid,
                     sigmoid_array, softmax, softmax_array, split, stack, tanh, tracked,
                     transpose)

_NEG_INF = -1e9


def step_embedding_batch(steps, dim: int) -> np.ndarray:
    """(B,) step indices -> (B, dim): out[:, 2i] = sin(s / 10000^(2i/dim)),
    out[:, 2i+1] = cos of the same angle."""
    if dim % 2 != 0:
        raise ValueError(f"step embedding needs an even dim, got {dim}")
    s = np.asarray(steps, dtype=float).reshape(-1, 1)
    freqs = 1.0 / np.power(10000.0, np.arange(0, dim, 2) / dim)
    angles = s * freqs
    out = np.empty((s.shape[0], dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def mix(e_seq: Tensor, x, d, delta: float, rng: RngStream | list[RngStream],
        scalar_lambda: bool = False) -> Tensor:
    """Blend the target representation into every history position.

    z_i = e_i + lambda_i * (x + d) with lambda drawn i.i.d. from a normal
    with mean `delta` and variance `delta` (per position and, unless
    `scalar_lambda`, per dimension). delta=0 reduces to the raw embeddings.
    `rng` is one stream, or a list of one stream per row that each draw
    that row's lambda block.

    When no tape records `e_seq` or `x`, the blend runs on the `.data`
    arrays, cast to the default dtype as `Tensor()` casts them, and only z
    is wrapped: the taped ops' bytes, since z = e + lambda·u is summed the
    other way round into the product, which IEEE addition allows.
    """
    b, n, dim = e_seq.shape
    x = x if isinstance(x, Tensor) else Tensor(x)
    d = np.asarray(d, dtype=default_dtype()).reshape(b, 1, dim)
    lam_shape = (n, 1) if scalar_lambda else (n, dim)
    if isinstance(rng, RngStream):
        lam = rng.gaussian((b, *lam_shape), mean=delta, std=np.sqrt(delta))
    else:
        lam = gaussian_rows(rng, lam_shape, delta, np.sqrt(delta))
    if not tracked(e_seq, x):
        z = lam.astype(default_dtype(), copy=False) * (x.data.reshape(b, 1, dim) + d)
        z += e_seq.data
        return Tensor(z)
    return add(e_seq, mul(Tensor(lam), add(reshape(x, (b, 1, dim)), Tensor(d))))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def param_shapes(vocab_size: int, cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order of the parameter table
    and of the checkpoint listing, without allocating any of them.

    The transformer has the item and positional tables, then per block the
    attention and feed-forward weights. The GRU has the item table, then its
    biases and weights, each holding the r, z and n gates side by side: the
    recurrent bh and wh (dim, 3·dim), then the input-side bi and wi (dim, 3·dim).
    """
    dim = cfg.dim
    shapes = {"item_emb": (vocab_size + 1, dim)}
    if cfg.approximator == "gru":
        shapes.update({"gru.bh": (3 * dim,), "gru.bi": (3 * dim,),
                       "gru.wh": (dim, 3 * dim), "gru.wi": (dim, 3 * dim)})
        return shapes
    shapes["pos_emb"] = (cfg.max_len, dim)
    block = {"wq": (dim, dim), "wk": (dim, dim), "wv": (dim, dim), "wo": (dim, dim),
             "w1": (dim, 4 * dim), "b1": (4 * dim,), "w2": (4 * dim, dim), "b2": (dim,),
             "ln1_g": (dim,), "ln1_b": (dim,), "ln2_g": (dim,), "ln2_b": (dim,)}
    for i in range(cfg.blocks):
        shapes.update((f"block{i}.{k}", shape) for k, shape in block.items())
    return shapes


def init_params(vocab_size: int, cfg: TrainConfig, rng: RngStream) -> dict[str, Tensor]:
    """A fresh parameter table, in `param_shapes` order.

    Embedding tables are normal with std 1/sqrt(dim), other matrices
    Xavier-normal, biases zero and layer-norm gains one. The transformer
    draws its matrices in table order. The GRU's draws are not: after
    item_emb they are one (dim, dim) block per gate and side, in the order
    input r, recurrent r, input z, recurrent z, input n, recurrent n, and
    each side's three blocks sit side by side in gru.wi and gru.wh.
    """
    shapes = param_shapes(vocab_size, cfg)

    def xavier(shape):
        return rng.gaussian(shape, std=np.sqrt(2.0 / sum(shape)))

    drawn = {name: rng.gaussian(shapes[name], std=1.0 / np.sqrt(cfg.dim))
             for name in ("item_emb", "pos_emb") if name in shapes}
    if cfg.approximator == "gru":
        gates = [xavier((cfg.dim, cfg.dim)) for _ in range(6)]
        drawn["gru.wi"] = np.concatenate(gates[0::2], axis=1)
        drawn["gru.wh"] = np.concatenate(gates[1::2], axis=1)
    for name, shape in shapes.items():
        if name not in drawn:
            drawn[name] = (xavier(shape) if len(shape) == 2
                           else np.ones(shape) if name.endswith("_g") else np.zeros(shape))
    return {name: Tensor(drawn[name], requires_grad=True) for name in shapes}


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _check_mask(mask: np.ndarray, b: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a right-padded (B, n) mask; return it and each row's last valid position."""
    mask = np.asarray(mask, dtype=float).reshape(b, n)
    valid = mask.sum(axis=1)
    if np.any(valid == 0):
        raise ValueError("sequence with no valid positions (all padding)")
    rises = mask[:, 1:] > mask[:, :-1]
    if rises.any():
        raise ValueError(f"padding mask row {int(np.argmax(rises.any(axis=1)))} has a "
                         "valid position after padding; sequences must be right-padded")
    return mask, valid.astype(int) - 1


def transformer_forward(z_seq: Tensor, mask: np.ndarray, last: np.ndarray,
                        params: dict[str, Tensor], cfg: TrainConfig, rng: RngStream) -> Tensor:
    """Training forward of the bidirectional encoder: (B, n, dim) -> (B, dim).

    The final block computes only the row it returns: one query per
    sequence, from its last valid position, attends to keys and values at
    every valid position, and the residuals, layer norms and feed-forward
    run on (B, 1, dim).
    """
    b, n, dim = z_seq.shape
    heads = cfg.heads
    dh = dim // heads
    key_bias = Tensor(((1.0 - mask) * _NEG_INF).reshape(b, 1, 1, n))

    h = add(z_seq, embedding_lookup(params["pos_emb"], np.arange(n)))
    h = dropout(h, cfg.dropout_emb, rng)
    for i in range(cfg.blocks):
        w = f"block{i}."
        # queries: every position, or in the final block each sequence's last valid row
        rows = h if i < cfg.blocks - 1 else reshape(gather_rows(h, last), (b, 1, dim))
        m = rows.shape[1]
        q = _split_heads(matmul(rows, params[w + "wq"]), b, m, heads, dh)
        k = _split_heads(matmul(h, params[w + "wk"]), b, n, heads, dh)
        v = _split_heads(matmul(h, params[w + "wv"]), b, n, heads, dh)
        scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        probs = dropout(softmax(add(scores, key_bias)), cfg.dropout_block, rng)
        ctx = reshape(transpose(matmul(probs, v), (0, 2, 1, 3)), (b, m, dim))
        attn_out = dropout(matmul(ctx, params[w + "wo"]), cfg.dropout_block, rng)
        h = layer_norm(add(rows, attn_out), params[w + "ln1_g"], params[w + "ln1_b"])
        ff = matmul(relu(add(matmul(h, params[w + "w1"]), params[w + "b1"])), params[w + "w2"])
        ff = dropout(add(ff, params[w + "b2"]), cfg.dropout_block, rng)
        h = layer_norm(add(h, ff), params[w + "ln2_g"], params[w + "ln2_b"])
    return reshape(h, (b, dim)) if cfg.blocks else gather_rows(h, last)


def _split_heads(x: Tensor, b: int, n: int, heads: int, dh: int) -> Tensor:
    return transpose(reshape(x, (b, n, heads, dh)), (0, 2, 1, 3))


def _transformer_eval_arrays(z: np.ndarray, params: dict[str, Tensor],
                             cfg: TrainConfig) -> np.ndarray:
    """Eval forward of the transformer on unpadded rows: (B, n, dim) -> (B, dim).

    `transformer_forward` without dropout on a mask of ones: the same
    operations in the same order on the same shapes, less the key padding
    bias, which is -0.0 there. The split heads stay strided views; only the
    transposed keys are copied. Scaling, biases, relu and residual sums run
    in place on the products this function made, each sum's operands swapped
    where that saves an array (IEEE addition commutes). `tests/test_model.py`
    checks the bytes against the taped forward, so a BLAS build that breaks
    them fails there.
    """
    b, n, dim = z.shape
    heads = cfg.heads
    dh = dim // heads
    p = {name: t.data for name, t in params.items()}

    def split_heads(x: np.ndarray, m: int) -> np.ndarray:
        return x.reshape(b, m, heads, dh).transpose(0, 2, 1, 3)

    h = z + p["pos_emb"][:n]
    for i in range(cfg.blocks):
        w = f"block{i}."
        rows = h if i < cfg.blocks - 1 else h[:, -1:]
        m = rows.shape[1]
        q = split_heads(rows @ p[w + "wq"], m)
        k = split_heads(h @ p[w + "wk"], n)
        v = split_heads(h @ p[w + "wv"], n)
        scores = q @ np.ascontiguousarray(k.transpose(0, 1, 3, 2))
        scores *= 1.0 / math.sqrt(dh)
        ctx = (softmax_array(scores) @ v).transpose(0, 2, 1, 3).reshape(b, m, dim)
        attn = ctx @ p[w + "wo"]
        attn += rows
        h, _, _ = layer_norm_array(attn, p[w + "ln1_g"], p[w + "ln1_b"])
        ff = h @ p[w + "w1"]
        ff += p[w + "b1"]
        ff = np.maximum(ff, 0.0, out=ff) @ p[w + "w2"]
        ff += p[w + "b2"]
        ff += h
        h, _, _ = layer_norm_array(ff, p[w + "ln2_g"], p[w + "ln2_b"])
    return h[:, -1]


def gru_forward(z_seq: Tensor, mask: np.ndarray, last: np.ndarray,
                params: dict[str, Tensor], cfg: TrainConfig, rng: RngStream) -> Tensor:
    """Training forward of the single-layer GRU: (B, n, dim) -> (B, dim).

    The input side of all three gates, z @ wi + bi, is computed for all n
    positions before the loop (one (n, 3·dim) product per row) and cut with
    one `split` into its 3n per-position, per-gate parts. The loop holds one
    h-side product per position, h @ wh + bh on the (B, dim) state, split
    into the three gates' parts. It runs over padded positions too; with
    right padding, the state at position mask.sum(1) - 1 is picked.
    """
    b, n, dim = z_seq.shape
    z_seq = dropout(z_seq, cfg.dropout_emb, rng)
    x = add(matmul(z_seq, params["gru.wi"]), params["gru.bi"])
    parts = split(reshape(x, (b, 3 * n * dim)), (dim,) * (3 * n))
    xr, xz, xn = parts[0::3], parts[1::3], parts[2::3]
    wh, bh = params["gru.wh"], params["gru.bh"]
    h = Tensor(np.zeros((b, dim)))
    states = []
    for i in range(n):
        hr, hz, hn = split(add(matmul(h, wh), bh), (dim, dim, dim))
        r = sigmoid(add(xr[i], hr))
        u = sigmoid(add(xz[i], hz))
        cand = tanh(add(xn[i], mul(r, hn)))
        h = add(cand, mul(u, add(h, scale(cand, -1.0))))
        states.append(h)
    return gather_rows(stack(states), last)


def _gru_eval_arrays(z: np.ndarray, params: dict[str, Tensor], cfg: TrainConfig) -> np.ndarray:
    """Eval forward of the GRU on unpadded rows: (B, n, dim) -> last state (B, dim).

    `gru_forward` without dropout, with each row's state kept (1, dim): each
    h-side product is one vector-matrix product per row, so a row's bytes
    do not depend on its batch and equal the taped loop's run one row per
    call. The input side of all three gates is one (B, n, 3·dim) product,
    biased in place; the r and z gates' input parts are added into their
    columns of the h-side product, which takes one sigmoid. The bias, tanh
    and state update run in place on arrays the loop made.
    """
    b, n, dim = z.shape
    x = z @ params["gru.wi"].data
    x += params["gru.bi"].data
    x = x.transpose(1, 0, 2)[:, :, None]  # x[i] is position i's (B, 1, 3·dim) part
    wh, bh = params["gru.wh"].data, params["gru.bh"].data
    h = np.zeros((b, 1, dim), dtype=z.dtype)
    for i in range(n):
        hs = h @ wh
        hs += bh
        hs[..., :2 * dim] += x[i, ..., :2 * dim]
        rz = sigmoid_array(hs[..., :2 * dim])
        cand = rz[..., :dim] * hs[..., 2 * dim:]
        cand += x[i, ..., 2 * dim:]
        np.tanh(cand, out=cand)
        h_new = cand * -1.0
        h_new += h
        h_new *= rz[..., dim:]
        h_new += cand
        h = h_new
    return h[:, 0]


class Approximator:
    """The parameter table (name -> Tensor, in `param_shapes` order) plus
    architecture config, with the blended forward pass."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.vocab_size = params["item_emb"].shape[0] - 1

    def forward(self, z_seq: Tensor, mask: np.ndarray, train_mode: bool,
                rng: RngStream | None = None) -> Tensor:
        """(B, n, dim) -> (B, dim). train_mode runs the taped forward on
        right-padded rows, with dropout from `rng`; eval takes unpadded rows
        only, runs the array forward and records nothing, even under a tape."""
        if train_mode and rng is None:
            raise ValueError("train_mode forward requires an rng for dropout")
        b, n, _ = z_seq.shape
        if n > self.cfg.max_len:
            raise ValueError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        gru = self.cfg.approximator == "gru"
        if train_mode:
            fwd = gru_forward if gru else transformer_forward
            return fwd(z_seq, *_check_mask(mask, b, n), self.params, self.cfg, rng)
        if n == 0 or not np.all(np.asarray(mask).reshape(b, n) == 1):
            raise ValueError("eval rows must be unpadded: every mask entry must be 1")
        arrays = _gru_eval_arrays if gru else _transformer_eval_arrays
        return Tensor(arrays(z_seq.data, self.params, self.cfg))

    def reconstruct(self, hist: np.ndarray, mask: np.ndarray, x, steps,
                    rng: RngStream | list[RngStream], train_mode: bool) -> Tensor:
        """Full estimate: embed history, lambda-mix with (x + step encoding), encode."""
        e_seq = embedding_lookup(self.params["item_emb"], hist)
        d = step_embedding_batch(steps, self.cfg.dim)
        z = mix(e_seq, x, d, self.cfg.delta, rng, self.cfg.lambda_scalar)
        return self.forward(z, mask, train_mode, rng)

    def encode_history(self, hist: np.ndarray, mask: np.ndarray,
                       train_mode: bool, rng: RngStream | None = None,
                       item_table: Tensor | None = None) -> Tensor:
        """Plain next-item encoding (no mixing); used by the adversarial mode."""
        table = self.params["item_emb"] if item_table is None else item_table
        return self.forward(embedding_lookup(table, hist), mask, train_mode, rng)
