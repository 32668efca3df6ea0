"""Dense tensors with tape-based reverse-mode differentiation.

A Tensor wraps a row-major numpy array (float64 by default, float32 mode
available for speed). While a Tape is active (`with Tape() as tape:`), every
op whose inputs are tracked appends a backward closure to the tape; the
recording order is a valid topological order of the computation, so
`backward(tape, loss)` replays the tape once in reverse. It frees each
node, with its saved arrays and its output's adjoint, as the walk passes
it, and accumulates adjoints into `.grad` of the leaves only: the tracked
tensors that no op on the tape produced, such as parameters.

Every op returns through `record`, the one place that decides whether the
active tape records it. Outside a tape an op records nothing, but it still
wraps its result in a new `Tensor`. So the model's eval forwards run on the
`.data` arrays. Sigmoid, softmax and layer norm keep their arithmetic in
`sigmoid_array`, `softmax_array` and `layer_norm_array`, which both the ops
and those forwards run, so both share one formula and its bytes.
These helpers work in place on the temporaries they make themselves and
never write into their inputs; their outputs share no memory with them.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

_DEFAULT_DTYPE = np.float64

_TAPE_STACK: list["Tape"] = []


def set_default_dtype(dtype) -> None:
    """Select float64 (the default) or float32 for the tensors made from now on."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


class Tensor:
    """n-dimensional float array, optionally tracked for differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered log of executed primitive ops and their saved intermediates.

    Single-owner: one tape per forward/backward pass. `backward` takes the
    nodes off one by one as it runs them; a tape it never walks releases
    the arrays its closures captured when it is dropped.
    """

    def __init__(self):
        # (output, inputs, backward); the output is a tuple for `split`
        self._nodes: list[tuple[Tensor | tuple[Tensor, ...], tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.remove(self)


def record(out, inputs: tuple[Tensor, ...], backward_fn):
    """Return `out`; every op returns through here, which alone decides
    whether the active tape records it. It does when a tape is active and an
    input requires grad: then `out` (a tuple for `split`, one node for all
    its parts) is marked as requiring grad and the node is appended."""
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        for o in out if type(out) is tuple else (out,):
            o.requires_grad = True
        _TAPE_STACK[-1]._nodes.append((out, inputs, backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate into `.grad` of every leaf reachable from `loss`.

    Walks the tape in reverse recording order (a reverse topological order),
    taking each node off the tape as it runs. By then every consumer of the
    node's output has run, so the output's adjoint is final: it is taken out
    of the walk's one dict and freed with the node's closure and saved
    arrays. The adjoints left at the end belong to leaves, tracked tensors
    that no node on this tape produced (parameters, test inputs); only
    they get `.grad`. Gradients accumulate across calls; `Adam.zero_grad`
    resets them between steps. The tape is empty afterwards.
    """
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    adjoints: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
    nodes = tape._nodes
    while nodes:
        out, inputs, fn = nodes.pop()
        if type(out) is tuple:  # one node, several outputs: None for those off the path
            g = [adjoints.pop(id(o), (None, None))[1] for o in out]
            if all(gi is None for gi in g):
                continue
        else:
            entry = adjoints.pop(id(out), None)
            if entry is None:
                continue  # not on a path to the loss
            g = entry[1]
        for t, gi in zip(inputs, fn(g)):
            if gi is None or not t.requires_grad:
                continue
            key = id(t)
            entry = adjoints.get(key)
            adjoints[key] = (t, gi) if entry is None else (t, entry[1] + gi)
    for t, g in adjoints.values():
        if t.requires_grad:
            t.grad = g.copy() if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    return record(Tensor(a.data + b.data), (a, b),
                  lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)  # a NumPy float64 scalar would promote float32 data
    return record(Tensor(a.data * c), (a,), lambda g: (g * c,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (_unbroadcast(g * b_data, a_data.shape),
                _unbroadcast(g * a_data, b_data.shape))

    return record(Tensor(a_data * b_data), (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes must match or be absent.

    The forward is a product over rows, so a row's bytes do not depend on its
    batch. When a 2-D `b` is shared by every row of an `a` of three or more
    axes, the backward folds the leading axes into rows and forms both
    gradients as single 2-D GEMMs, not a (B, k, n) stack summed afterwards.
    """
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a_data.shape, b_data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ValueError(f"inner dimensions disagree: {a_shape} @ {b_shape}")
    if len(a_shape) > 2 and len(b_shape) > 2 and a_shape[:-2] != b_shape[:-2]:
        raise ValueError(f"leading dimensions disagree: {a_shape} @ {b_shape}")

    def bwd(g):
        if b_data.ndim == 2 and a_data.ndim > 2:
            k, n = b_shape
            g_rows = g.reshape(-1, n)
            return (g_rows @ b_data.T).reshape(a_shape), a_data.reshape(-1, k).T @ g_rows
        ga = g @ np.swapaxes(b_data, -1, -2)
        gb = np.swapaxes(a_data, -1, -2) @ g
        return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)

    return record(Tensor(a_data @ b_data), (a, b), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    return record(Tensor(np.transpose(a.data, axes)), (a,),
                  lambda g: (np.transpose(g, np.argsort(axes)),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return record(Tensor(a.data.reshape(shape)), (a,), lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    a_data = a.data
    return record(Tensor(np.maximum(a_data, 0.0)), (a,), lambda g: (g * (a_data > 0),))


def sigmoid_array(a: np.ndarray) -> np.ndarray:
    """Element-wise logistic function of a plain array; `sigmoid` runs this."""
    # clamping keeps exp in range; the output is already saturated beyond +/-500.
    # np.minimum(np.maximum(...)) gives np.clip's bytes without its wrapper's cost;
    # asarray keeps a 0-d result an array, which the in-place steps need.
    y = np.asarray(np.maximum(a, -500.0))
    np.minimum(y, 500.0, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)
    y += 1.0
    return np.divide(1.0, y, out=y)


def sigmoid(a: Tensor) -> Tensor:
    y = sigmoid_array(a.data)
    return record(Tensor(y), (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return record(Tensor(y), (a,), lambda g: (g * (1.0 - y * y),))


def softmax_array(a: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax of a plain array over its last axis; `softmax` runs this."""
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(a: Tensor) -> Tensor:
    """Max-stabilized softmax over the last axis; rows sum to one."""
    p = softmax_array(a.data)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return record(Tensor(p), (a,), bwd)


def layer_norm_array(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of a plain array over its last axis; `layer_norm` runs this.

    Returns the output, the normalized input and 1 / std, which the backward
    of `layer_norm` reads.
    """
    d = x.shape[-1]
    # sum / d is the reduction and division np.mean runs, without its wrapper
    xc = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    y, xhat, inv = layer_norm_array(x.data, gain.data, bias.data, eps)
    g_data = gain.data

    def bwd(g):
        dxhat = g * g_data
        # standard layer-norm backward over the last axis
        gx = inv / d * (d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        lead = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return record(Tensor(y), (x, gain, bias), bwd)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of `table` (V x D) at integer `indices` (any shape)."""
    idx = np.asarray(indices)
    shape = table.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise ValueError(
            f"index out of range [0, {shape[0]}) in embedding lookup")

    def bwd(g):
        gt = np.zeros(shape, dtype=g.dtype)
        np.add.at(gt, idx, g)
        return (gt,)

    return record(Tensor(table.data[idx]), (table,), bwd)


def gather_rows(x: Tensor, positions: np.ndarray) -> Tensor:
    """Pick x[b, positions[b]] for each batch row b: (B,n,...) -> (B,...)."""
    pos = np.asarray(positions)
    shape = x.shape
    b_idx = np.arange(shape[0])

    def bwd(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[b_idx, pos] = g
        return (gx,)

    return record(Tensor(x.data[b_idx, pos]), (x,), bwd)


def stack(tensors: list[Tensor]) -> Tensor:
    """n tensors of shape (B, ...) -> (B, n, ...); the backward hands each
    input a view of the output gradient."""
    n = len(tensors)
    return record(Tensor(np.stack([t.data for t in tensors], axis=1)), tuple(tensors),
                  lambda g: tuple(g[:, i] for i in range(n)))


def split(x: Tensor, sizes: tuple[int, ...]) -> tuple[Tensor, ...]:
    """Cut the last axis of x into consecutive parts of the given sizes.

    One tape node covers every part; its backward joins the part gradients
    in one concatenate, with zeros for parts off the loss path.
    """
    data = x.data
    if sum(sizes) != data.shape[-1]:
        raise ValueError(
            f"split sizes {sizes} do not add up to the last axis {data.shape[-1]}")
    parts, start = [], 0
    for k in sizes:
        parts.append(Tensor(data[..., start:start + k]))
        start += k
    lead, dtype = data.shape[:-1], data.dtype

    def bwd(gs):
        return (np.concatenate([np.zeros(lead + (k,), dtype=dtype) if g is None else g
                                for k, g in zip(sizes, gs)], axis=-1),)

    return record(tuple(parts), (x,), bwd)


def dropout(x: Tensor, p: float, rng: RngStream) -> Tensor:
    """Training's inverted dropout: kept units scale by 1/(1-p); p = 0 returns x."""
    if p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    mask = ((rng.uniform(x.shape) >= p) / (1.0 - p)).astype(_DEFAULT_DTYPE, copy=False)
    return record(Tensor(x.data * mask), (x,), lambda g: (g * mask,))


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(row)[target], with column 0 (the padding
    slot) removed from the denominator; that column receives zero gradient
    and may not be a target.
    """
    if logits.ndim != 2:
        raise ValueError(f"expected 2-d logits, got shape {logits.shape}")
    b, n = logits.shape
    tgt = np.asarray(targets)
    if tgt.shape != (b,):
        raise ValueError(f"targets shape {tgt.shape} != ({b},)")
    if tgt.min() < 1 or tgt.max() >= n:
        raise ValueError(f"target index out of range [1, {n})")
    z = logits.data.copy()
    z[:, 0] = -np.inf
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    denom = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(denom[:, 0])

    def bwd(g):
        gl = e / denom  # exp(-inf) = 0 keeps the padding column at zero
        gl[np.arange(b), tgt] -= 1.0
        return (gl * (g / b),)

    return record(Tensor(np.mean(lse - z[np.arange(b), tgt])), (logits,), bwd)
