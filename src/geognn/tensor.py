"""Dense tensors with reverse-mode automatic differentiation.

A ``Tape`` records every primitive applied while it is active; calling
``Tape.backward`` on a scalar result replays the record in reverse and
accumulates gradients into every tensor that requires them. Recording
order is a topological order by construction, so each op is visited
exactly once and accumulation order is deterministic. Once its record
has run, an intermediate's gradient is dropped; only leaves (parameters
and other tensors made with ``requires_grad=True``) keep theirs.

``add``, ``sub``, ``mul`` and ``div`` share one elementwise path,
``_binary``: each states only its forward and its pair of gradients. Their
operands have the same shape, or one is a scalar, or one is an ``[n, 1]``
column against an ``[n, k]`` matrix; backward sums each gradient back over
what its operand was broadcast along.

``segment_sum``'s forward and ``gather_rows``' backward scatter-add rows
with one flattened ``np.bincount``, which adds in index order (in float64,
cast back to the input dtype), so reordering one segment's rows may move
its sum in the last bits.

Every op validates that its output is finite and raises
``NumericalError`` otherwise; NaN/Inf never propagate silently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .rng import Rng

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Contiguous real values of a fixed shape, optionally tracked for grads."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if type(data) is not np.ndarray or dtype is not None:
            data = np.asarray(data, dtype=dtype)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive ops for one forward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate .grad for every recorded tensor reachable from loss."""
        if loss.size != 1:
            raise ShapeError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        for out, inputs, grad_fn in reversed(self._records):
            if out.grad is None:
                continue
            grads = grad_fn(out.grad)
            out.grad = None  # every record's output is an intermediate
            for tensor, grad in zip(inputs, grads):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor.grad is None:
                    tensor.grad = grad.copy() if grad.base is not None else grad
                else:
                    tensor.grad = tensor.grad + grad


import math as _math


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # fast path: a non-finite element makes the sum non-finite; the exact
    # (slower) check then rules out pure accumulator overflow
    if not _math.isfinite(float(arr.sum())) and not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by {op}")
    return arr


def _emit(data: np.ndarray, inputs: tuple[Tensor, ...], grad_fn: Callable, op: str,
          check: bool = True) -> Tensor:
    # ops that only move data (gather, concat, reshape) pass check=False:
    # they cannot create non-finite values from finite inputs
    if check:
        _finite(data, op)
    out = Tensor(data)
    if _TAPE_STACK:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                _TAPE_STACK[-1]._records.append((out, inputs, grad_fn))
                break
    return out


def _coerce(value, like: Tensor | None = None) -> Tensor:
    if type(value) is Tensor:
        return value
    return Tensor(value, dtype=like.dtype if like is not None else None)


def _reduce_to(grad: np.ndarray, tensor: Tensor) -> np.ndarray:
    if grad.shape == tensor.shape:
        return grad
    if tensor.size != 1:  # a column broadcast over the row
        return grad.sum(axis=1, keepdims=True)
    return np.full(tensor.shape, grad.sum(), dtype=grad.dtype)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions {a.shape[1]} and {b.shape[0]} differ")

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _emit(a.data @ b.data, (a, b), grad_fn, "matmul")


def _binary(op: str, a, b, forward: Callable, grads: Callable) -> Tensor:
    """The one elementwise path: forward(x, y) on the operands' data, and
    grads(g, x, y) giving both gradients at the output's shape, each then
    summed back over what its operand was broadcast along."""
    # a Python scalar takes the dtype of the Tensor operand, first or second
    a = _coerce(a, like=b if type(b) is Tensor else None)
    b = _coerce(b, like=a)
    # exact shapes, a scalar, or an [n, 1] column against an [n, k] matrix
    if not (a.shape == b.shape or a.size == 1 or b.size == 1
            or (a.data.ndim == b.data.ndim == 2 and a.shape[0] == b.shape[0]
                and 1 in (a.shape[1], b.shape[1]))):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")

    def grad_fn(g):
        ga, gb = grads(g, a.data, b.data)
        return _reduce_to(ga, a), _reduce_to(gb, b)

    return _emit(forward(a.data, b.data), (a, b), grad_fn, op)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: (g, g))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def _divide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if np.any(y == 0.0):
        raise NumericalError("div: zero divisor")
    return x / y


def div(a, b) -> Tensor:
    return _binary("div", a, b, _divide, lambda g, x, y: (g / y, -g * x / (y * y)))


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)

    def grad_fn(g):
        return (g * (x.data > 0),)

    return _emit(np.maximum(x.data, 0.0), (x,), grad_fn, "relu")


def exp(x: Tensor) -> Tensor:
    x = _coerce(x)
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)

    def grad_fn(g):
        return (g * out_data,)

    return _emit(out_data, (x,), grad_fn, "exp")


def log(x: Tensor) -> Tensor:
    x = _coerce(x)
    if np.any(x.data <= 0.0):
        raise NumericalError("log: non-positive input")

    def grad_fn(g):
        return (g / x.data,)

    return _emit(np.log(x.data), (x,), grad_fn, "log")


def reshape(x: Tensor, shape) -> Tensor:
    x = _coerce(x)

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _emit(x.data.reshape(shape), (x,), grad_fn, "reshape", check=False)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def grad_fn(g):
        return np.split(g, cuts, axis=axis)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _emit(data, tuple(tensors), grad_fn, "concat", check=False)


def _check_ids(ids, bound: int, what: str, rows: int | None = None) -> np.ndarray:
    """1-D integer ids in [0, bound), one per row when rows is given."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ShapeError(f"{what} must be 1-D")
    if rows is not None and ids.shape[0] != rows:
        raise ShapeError(f"{what}: {ids.shape[0]} ids for {rows} rows")
    if ids.dtype.kind not in "iu":
        raise ShapeError(f"{what} must be integers")
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= bound):
        raise ShapeError(f"{what} out of range")
    return ids


def _scatter_add(values: np.ndarray, ids: np.ndarray, num_out: int, dtype) -> np.ndarray:
    """Row i of the result is the sum of value rows whose id is i, added in index order."""
    width = values.shape[1]
    flat = (ids.astype(np.intp)[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=num_out * width)
    return out.reshape(num_out, width).astype(dtype, copy=False)


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Row i of the result is the sum of value rows whose id equals i."""
    values = _coerce(values)
    if values.data.ndim != 2:
        raise ShapeError("segment_sum expects a 2-D value tensor")
    ids = _check_ids(segment_ids, num_segments, "segment ids", rows=values.shape[0])

    def grad_fn(g):
        return (g[ids],)

    data = _scatter_add(values.data, ids, num_segments, values.dtype)
    return _emit(data, (values,), grad_fn, "segment_sum")


def gather_rows(values: Tensor, ids) -> Tensor:
    """Select rows by index; backward scatter-adds into the source."""
    values = _coerce(values)
    if values.data.ndim != 2:
        raise ShapeError("gather_rows expects a 2-D value tensor")
    ids = _check_ids(ids, values.shape[0], "row ids")

    def grad_fn(g):
        return (_scatter_add(g, ids, values.shape[0], values.dtype),)

    return _emit(values.data[ids], (values,), grad_fn, "gather_rows", check=False)


def sum_all(x: Tensor) -> Tensor:
    x = _coerce(x)

    def grad_fn(g):
        return (np.full(x.shape, float(g), dtype=x.dtype),)

    return _emit(np.asarray(x.data.sum(), dtype=x.dtype), (x,), grad_fn, "sum_all")


def mean_rows(x: Tensor) -> Tensor:
    """Column means of a 2-D tensor; the mean-pooling readout."""
    x = _coerce(x)
    if x.data.ndim != 2:
        raise ShapeError("mean_rows expects a 2-D tensor")
    n = x.shape[0]
    if n == 0:
        raise ShapeError("mean_rows of an empty tensor")

    def grad_fn(g):
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _emit(x.data.mean(axis=0), (x,), grad_fn, "mean_rows")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias broadcast over rows (one fused primitive)."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("affine expects x[n,k], w[k,m], b[m]")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape}, {w.shape}, {b.shape}")

    def grad_fn(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _emit(x.data @ w.data + b.data, (x, w, b), grad_fn, "affine")


def pair_affine_relu(x: Tensor, counts, w: Tensor, b: Tensor) -> Tensor:
    """relu(concat(x[i], x[j]) @ w + b) for every ordered pair (i, j) of rows
    within each run of counts[m] consecutive rows of x, runs in turn, each
    run's pairs in i-major order; one output row per pair.

    concat(x[i], x[j]) @ w equals x[i] @ w[:k] + x[j] @ w[k:], so each row is
    projected once and the pair rows are sums of two projections; the
    [pairs, 2k] input is never built. Backward reduces each run's masked
    [n, n, m] gradient block over j and over i."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("pair_affine_relu expects x[n,k], w[2k,m], b[m]")
    k = x.shape[1]
    if w.shape[0] != 2 * k or w.shape[1] != b.shape[0]:
        raise ShapeError(f"pair_affine_relu: incompatible shapes {x.shape}, {w.shape}, {b.shape}")
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.dtype.kind not in "iu" or (counts.size and counts.min() < 0):
        raise ShapeError("pair_affine_relu: counts must be 1-D non-negative integers")
    if int(counts.sum()) != x.shape[0]:
        raise ShapeError(f"pair_affine_relu: counts sum to {int(counts.sum())}, x has "
                         f"{x.shape[0]} rows")
    counts = counts.astype(np.intp)
    rows = np.concatenate([[0], np.cumsum(counts)])
    pairs = np.concatenate([[0], np.cumsum(counts * counts)])
    wa, wb = w.data[:k], w.data[k:]
    a = x.data @ wa + b.data
    c = x.data @ wb
    out = np.empty((int(pairs[-1]), w.shape[1]), dtype=np.result_type(a, c))
    for n, r, p in zip(counts, rows, pairs):
        np.add(a[r : r + n, None], c[None, r : r + n], out=out[p : p + n * n].reshape(n, n, -1))
    np.maximum(out, 0.0, out=out)

    def grad_fn(g):
        da, dc = np.empty_like(a), np.empty_like(c)
        for n, r, p in zip(counts, rows, pairs):
            block = (g[p : p + n * n] * (out[p : p + n * n] > 0)).reshape(n, n, -1)
            da[r : r + n] = block.sum(axis=1)
            dc[r : r + n] = block.sum(axis=0)
        dw = np.concatenate([x.data.T @ da, x.data.T @ dc])
        return da @ wa.T + dc @ wb.T, dw, da.sum(axis=0)

    return _emit(out, (x, w, b), grad_fn, "pair_affine_relu")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then scale+shift."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    if x.data.ndim != 2:
        raise ShapeError("layer_norm expects a 2-D tensor")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm gain/bias must match the feature width")
    # centered about the float64 row mean: a float32 mean's rounding error is
    # not small against eps for rows far from zero
    mu = x.data.mean(axis=1, keepdims=True, dtype=np.float64)
    centered = (x.data - mu).astype(x.dtype, copy=False)
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def grad_fn(g):
        # d xhat_j / d x_i = inv_std * (delta_ij - 1/d - xhat_i * xhat_j / d)
        gx = g * gain.data
        gx = inv_std * (gx - gx.mean(axis=1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=1, keepdims=True))
        return gx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _emit(xhat * gain.data + bias.data, (x, gain, bias), grad_fn, "layer_norm")


def dropout(x: Tensor, rate: float, rng: Rng | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is zero."""
    x = _coerce(x)
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ShapeError("dropout rate must lie in [0, 1)")
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = (rng.uniform_array(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)

    def grad_fn(g):
        return (g * keep,)

    return _emit(x.data * keep, (x,), grad_fn, "dropout")


def _loss_weights(weights, shape: tuple[int, ...], dtype, what: str) -> np.ndarray:
    """Loss weights of the given shape; none means the plain mean, 1/size each."""
    if weights is None:
        return np.full(shape, 1.0 / max(int(np.prod(shape)), 1), dtype=dtype)
    weights = np.asarray(weights, dtype=dtype)
    if weights.shape != shape:
        raise ShapeError(f"{what}: weights of shape {weights.shape} for shape {shape}")
    return weights


def softmax_cross_entropy(logits: Tensor, labels, weights=None) -> Tensor:
    """Sum over rows of weights[row] * -log softmax(logits)[row, labels[row]];
    without weights, the mean over rows."""
    logits = _coerce(logits)
    if logits.data.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects 2-D logits")
    n, c = logits.shape
    labels = _check_ids(labels, c, "class labels", rows=n)
    weights = _loss_weights(weights, (n,), logits.dtype, "softmax_cross_entropy")
    _finite(logits.data, "softmax_cross_entropy")
    rows = np.arange(n)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def grad_fn(g):
        glogits = np.exp(log_probs)
        glogits[rows, labels] -= 1.0
        return (glogits * (weights * float(g))[:, None],)

    loss = -(log_probs[rows, labels] * weights).sum()
    return _emit(np.asarray(loss, dtype=logits.dtype), (logits,), grad_fn, "softmax_cross_entropy")


def bce_with_logits(logits: Tensor, targets: Tensor, weights=None) -> Tensor:
    """Sum of weights * binary cross-entropy with logits over the elements;
    without weights, the mean over the elements."""
    logits, targets = _coerce(logits), _coerce(targets)
    if logits.shape != targets.shape:
        raise ShapeError("bce_with_logits expects matching shapes")
    weights = _loss_weights(weights, logits.shape, logits.dtype, "bce_with_logits")
    x, t = logits.data, targets.data
    elem = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def grad_fn(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        return ((sig - t) * weights * float(g), None)

    loss = (elem * weights).sum()
    return _emit(np.asarray(loss, dtype=logits.dtype), (logits, targets), grad_fn, "bce_with_logits")
