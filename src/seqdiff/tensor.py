"""Dense tensors with tape-based reverse-mode differentiation.

A Tensor wraps a row-major numpy array (float64 by default, float32 mode
available for speed). While a Tape is active (`with Tape() as tape:`), every
op whose inputs are tracked appends a backward closure to the tape; the
recording order is a valid topological order of the computation, so
`backward(tape, loss)` replays the tape once in reverse. It frees each
node, with its saved arrays and its output's adjoint, as the walk passes
it, and accumulates adjoints into `.grad` of the leaves only: the tracked
tensors that no op on the tape produced, such as parameters.

Outside a tape an op records nothing, but it still wraps its result in a
new `Tensor`. So the model's eval forwards run on the `.data` arrays, as
`model.mix` does when nothing is `tracked`. Sigmoid, softmax and layer norm
keep their arithmetic in `sigmoid_array`, `softmax_array` and
`layer_norm_array`, which both the ops and such code run, so the two paths
share one formula and its bytes.
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


class ShapeMismatchError(ValueError):
    """Operands have shapes the requested op cannot combine."""


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


def tracked(*tensors: Tensor) -> bool:
    """True when a tape is active and an op on `tensors` would record on it."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in tensors)


def _record(out, inputs: tuple[Tensor, ...], backward_fn) -> None:
    """Append one node to the active tape; every op records through here."""
    if type(out) is tuple:  # `split`: one node, several outputs
        for o in out:
            o.requires_grad = True
    else:
        out.requires_grad = True
    _TAPE_STACK[-1]._nodes.append((out, inputs, backward_fn))


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
    out = Tensor(a.data + b.data)
    if tracked(a, b):
        a_shape, b_shape = a.shape, b.shape

        def bwd(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        _record(out, (a, b), bwd)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)  # a NumPy float64 scalar would promote float32 data
    out = Tensor(a.data * c)
    if tracked(a):
        _record(out, (a,), lambda g: (g * c,))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    if tracked(a, b):
        a_data, b_data = a.data, b.data

        def bwd(g):
            return (_unbroadcast(g * b_data, a_data.shape),
                    _unbroadcast(g * a_data, b_data.shape))

        _record(out, (a, b), bwd)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes must match or be absent.

    The forward is a product over rows, so a row's bytes do not depend on its
    batch. When a 2-D `b` is shared by every row of an `a` of three or more
    axes, the backward folds the leading axes into rows and forms both
    gradients as single 2-D GEMMs, not a (B, k, n) stack summed afterwards.
    """
    a_shape, b_shape = a.data.shape, b.data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeMismatchError(f"matmul needs >=2-d operands, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeMismatchError(f"inner dimensions disagree: {a_shape} @ {b_shape}")
    if len(a_shape) > 2 and len(b_shape) > 2 and a_shape[:-2] != b_shape[:-2]:
        raise ShapeMismatchError(f"leading dimensions disagree: {a_shape} @ {b_shape}")
    out = Tensor(a.data @ b.data)
    if tracked(a, b):
        a_data, b_data = a.data, b.data

        def bwd(g):
            if b_data.ndim == 2 and a_data.ndim > 2:
                k, n = b_data.shape
                g_rows = g.reshape(-1, n)
                return (g_rows @ b_data.T).reshape(a_data.shape), a_data.reshape(-1, k).T @ g_rows
            ga = g @ np.swapaxes(b_data, -1, -2)
            gb = np.swapaxes(a_data, -1, -2) @ g
            return _unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)

        _record(out, (a, b), bwd)
    return out


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(a.data, axes))
    if tracked(a):
        inv = tuple(np.argsort(axes))
        _record(out, (a,), lambda g: (np.transpose(g, inv),))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if tracked(a):
        old = a.shape
        _record(out, (a,), lambda g: (g.reshape(old),))
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if tracked(a):
        mask = a.data > 0
        _record(out, (a,), lambda g: (g * mask,))
    return out


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
    out = Tensor(y)
    if tracked(a):
        _record(out, (a,), lambda g: (g * y * (1.0 - y),))
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    if tracked(a):
        _record(out, (a,), lambda g: (g * (1.0 - y * y),))
    return out


def softmax_array(a: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax of a plain array over its last axis; `softmax` runs this."""
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(a: Tensor) -> Tensor:
    """Max-stabilized softmax over the last axis; rows sum to one."""
    p = softmax_array(a.data)
    out = Tensor(p)
    if tracked(a):

        def bwd(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            return (p * (g - dot),)

        _record(out, (a,), bwd)
    return out


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
        raise ShapeMismatchError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    y, xhat, inv = layer_norm_array(x.data, gain.data, bias.data, eps)
    out = Tensor(y)
    if tracked(x, gain, bias):
        g_data = gain.data

        def bwd(g):
            dxhat = g * g_data
            # standard layer-norm backward over the last axis
            gx = inv / d * (d * dxhat
                            - dxhat.sum(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
            lead = tuple(range(g.ndim - 1))
            return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

        _record(out, (x, gain, bias), bwd)
    return out


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of `table` (V x D) at integer `indices` (any shape)."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"index out of range [0, {table.shape[0]}) in embedding lookup")
    out = Tensor(table.data[idx])
    if tracked(table):
        shape = table.shape

        def bwd(g):
            gt = np.zeros(shape, dtype=g.dtype)
            np.add.at(gt, idx, g)
            return (gt,)

        _record(out, (table,), bwd)
    return out


def gather_rows(x: Tensor, positions: np.ndarray) -> Tensor:
    """Pick x[b, positions[b]] for each batch row b: (B,n,...) -> (B,...)."""
    pos = np.asarray(positions)
    b_idx = np.arange(x.shape[0])
    out = Tensor(x.data[b_idx, pos])
    if tracked(x):
        shape = x.shape

        def bwd(g):
            gx = np.zeros(shape, dtype=g.dtype)
            gx[b_idx, pos] = g
            return (gx,)

        _record(out, (x,), bwd)
    return out


def stack(tensors: list[Tensor]) -> Tensor:
    """n tensors of shape (B, ...) -> (B, n, ...); the backward hands each
    input a view of the output gradient."""
    out = Tensor(np.stack([t.data for t in tensors], axis=1))
    if tracked(*tensors):
        n = len(tensors)
        _record(out, tuple(tensors), lambda g: tuple(g[:, i] for i in range(n)))
    return out


def split(x: Tensor, sizes: tuple[int, ...]) -> list[Tensor]:
    """Cut the last axis of x into consecutive parts of the given sizes.

    One tape node covers every part; its backward joins the part gradients
    in one concatenate, with zeros for parts off the loss path.
    """
    data = x.data
    if sum(sizes) != data.shape[-1]:
        raise ShapeMismatchError(
            f"split sizes {sizes} do not add up to the last axis {data.shape[-1]}")
    parts, start = [], 0
    for k in sizes:
        parts.append(Tensor(data[..., start:start + k]))
        start += k
    if tracked(x):
        lead, dtype = data.shape[:-1], data.dtype

        def bwd(gs):
            return (np.concatenate([np.zeros(lead + (k,), dtype=dtype) if g is None else g
                                    for k, g in zip(sizes, gs)], axis=-1),)

        _record(tuple(parts), (x,), bwd)
    return parts


def dropout(x: Tensor, p: float, rng: RngStream) -> Tensor:
    """Training's inverted dropout: kept units scale by 1/(1-p); p = 0 returns x."""
    if p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    mask = ((rng.uniform(x.shape) >= p) / (1.0 - p)).astype(_DEFAULT_DTYPE, copy=False)
    out = Tensor(x.data * mask)
    if tracked(x):
        _record(out, (x,), lambda g: (g * mask,))
    return out


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(row)[target], with column 0 (the padding
    slot) removed from the denominator; that column receives zero gradient
    and may not be a target.
    """
    if logits.ndim != 2:
        raise ShapeMismatchError(f"expected 2-d logits, got shape {logits.shape}")
    b, n = logits.shape
    tgt = np.asarray(targets)
    if tgt.shape != (b,):
        raise ShapeMismatchError(f"targets shape {tgt.shape} != ({b},)")
    if tgt.min() < 1 or tgt.max() >= n:
        raise ValueError(f"target index out of range [1, {n})")
    z = logits.data.copy()
    z[:, 0] = -np.inf
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    denom = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(denom[:, 0])
    out = Tensor(np.mean(lse - z[np.arange(b), tgt]))
    if tracked(logits):
        p = e / denom  # exp(-inf) = 0 keeps the padding column at zero

        def bwd(g):
            gl = p.copy()
            gl[np.arange(b), tgt] -= 1.0
            return (gl * (g / b),)

        _record(out, (logits,), bwd)
    return out
