"""Dense tensors with reverse-mode automatic differentiation.

A ``Tape`` records every primitive applied while it is active; calling
``Tape.backward`` on a scalar result replays the record in reverse and
accumulates gradients into every tensor that requires them. Recording
order is a topological order by construction, so each op is visited
exactly once and accumulation order is deterministic. Once its record
has run, an intermediate's gradient is dropped; only leaves (parameters
and other tensors made with ``requires_grad=True``) keep theirs.

The tape holds model ops and fused losses only, each op on the shapes it
states, with no broadcasting: ``add`` of equal shapes, ``relu``, ``concat``,
``gather_rows``, ``affine``, the two halves of a block update, the readout
``segment_mean``, the losses ``squared_error``, ``pair_mlp_cross_entropy``
and ``bce_with_logits``, and their batch total ``scaled_sum``.

``pair_mlp_cross_entropy``, the distance objective, is a 2-layer MLP that
reads a row pair in either order alike, and its cross-entropy over the
unordered row pairs of each run of rows, each scored once. It scores a run a
tile of whole rows at a time, each tile's pair block no larger than
``TILE_BYTES``, so its buffers stay in cache and grow with the run's rows, not
their square.

``aggregate`` and ``node_update`` are the two halves of a GeoGNN block
update, each one op: the sum of edge messages at both ends of every edge
of an ``Edges`` list, then MLP, layer norm, graph-size scale, residual and
dropout. Each gives the values of the chain of primitives it replaces,
bit for bit, and keeps only what its backward reads.

``segment_mean``'s forward, ``gather_rows``' backward and ``aggregate``
scatter-add rows with one flattened ``np.bincount`` per scatter, which adds
in index order (in float64, cast back to the input dtype), so reordering
one segment's rows may move its sum in the last bits.

Every op validates that its output is finite and raises
``NumericalError`` otherwise; NaN/Inf never propagate silently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .rng import BlockRng, Rng

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


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # fast path: a non-finite element makes the sum non-finite; the exact
    # (slower) check then rules out pure accumulator overflow
    if not math.isfinite(float(arr.sum())) and not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by {op}")
    return arr


def _emit(data: np.ndarray, inputs: tuple[Tensor, ...], grad_fn: Callable, op: str,
          check: bool = True) -> Tensor:
    # ops that only move data (gather, concat) pass check=False:
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


def _coerce(value) -> Tensor:
    return value if type(value) is Tensor else Tensor(value)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of equal shapes."""
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    with np.errstate(over="ignore", invalid="ignore"):  # raised by _emit's check
        return _emit(a.data + b.data, (a, b), lambda g: (g, g), "add")


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)

    def grad_fn(g):
        return (g * (x.data > 0),)

    return _emit(np.maximum(x.data, 0.0), (x,), grad_fn, "relu")


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


def _flat_index(ids: np.ndarray, width: int) -> np.ndarray:
    """Where each element of width-wide rows with these row ids goes in a
    flattened [num_out, width] result."""
    return (ids.astype(np.intp)[:, None] * width + np.arange(width)).ravel()


def _scatter_add(values: np.ndarray, flat: np.ndarray, num_out: int, dtype) -> np.ndarray:
    """Row i of the result is the sum of the value rows sent to row i by the
    ``_flat_index`` flat, added in index order."""
    width = values.shape[1]
    out = np.bincount(flat, weights=values.ravel(), minlength=num_out * width)
    return out.reshape(num_out, width).astype(dtype, copy=False)


def _check_counts(counts, rows: int, what: str, least: int = 0) -> np.ndarray:
    """Lengths, each at least ``least``, of consecutive runs that cover ``rows`` rows."""
    counts = _check_ids(counts, rows + 1, f"{what}: counts").astype(np.intp)
    if int(counts.sum()) != rows or int(counts.min(initial=least)) < least:
        raise ShapeError(f"{what}: counts {counts.tolist()} are not runs of at least {least} "
                         f"rows that cover {rows}")
    return counts


def segment_mean(values: Tensor, counts) -> Tensor:
    """Row m of the result is the mean of the m-th run of counts[m] >= 1
    consecutive value rows: their ``_scatter_add`` sum over counts[m]."""
    values = _coerce(values)
    if values.data.ndim != 2:
        raise ShapeError("segment_mean expects a 2-D value tensor")
    counts = _check_counts(counts, values.shape[0], "segment_mean", least=1)
    ids = np.repeat(np.arange(counts.size), counts)
    col = counts[:, None].astype(values.dtype)

    def grad_fn(g):
        return ((g / col)[ids],)

    sums = _scatter_add(values.data, _flat_index(ids, values.shape[1]), counts.size, values.dtype)
    return _emit(sums / col, (values,), grad_fn, "segment_mean")


def gather_rows(values: Tensor, ids) -> Tensor:
    """Select rows by index; backward scatter-adds into the source."""
    values = _coerce(values)
    if values.data.ndim != 2:
        raise ShapeError("gather_rows expects a 2-D value tensor")
    ids = _check_ids(ids, values.shape[0], "row ids")

    def grad_fn(g):
        return (_scatter_add(g, _flat_index(ids, g.shape[1]), values.shape[0], values.dtype),)

    return _emit(values.data[ids], (values,), grad_fn, "gather_rows", check=False)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias broadcast over rows (one fused primitive)."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("affine expects x[n,k], w[k,m], b[m]")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape}, {w.shape}, {b.shape}")

    def grad_fn(g):  # a constant x, such as a feature matrix, needs no gradient
        return g @ w.data.T if x.requires_grad else None, x.data.T @ g, g.sum(axis=0)

    with np.errstate(over="ignore", invalid="ignore"):  # raised by _emit's check
        return _emit(x.data @ w.data + b.data, (x, w, b), grad_fn, "affine")


def _normalize(x: np.ndarray, eps: float, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm's (xhat, inv_std) of the rows of x; op names it in errors."""
    # centered about the float64 row mean: a float32 mean's rounding error is
    # not small against eps for rows far from zero
    mu = x.mean(axis=1, keepdims=True, dtype=np.float64)
    xhat = (x - mu).astype(x.dtype, copy=False)
    with np.errstate(over="ignore"):  # raised below: inv_std 0 would silently give the bias
        var = (xhat * xhat).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(_finite(var, op) + eps)
    xhat *= inv_std
    return xhat, inv_std


def _layer_norm_grads(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray):
    """Gradients of xhat * gain + bias with respect to (x, gain, bias) at g."""
    # d xhat_j / d x_i = inv_std * (delta_ij - 1/d - xhat_i * xhat_j / d)
    gx = g * gain
    tmp = gx * xhat
    gx_xhat = tmp.mean(axis=1, keepdims=True)
    gx -= gx.mean(axis=1, keepdims=True)
    gx -= np.multiply(xhat, gx_xhat, out=tmp)
    gx *= inv_std
    return gx, np.multiply(g, xhat, out=tmp).sum(axis=0), g.sum(axis=0)


def _dropout_keep(shape, dtype, rate: float, rng, training: bool) -> np.ndarray | None:
    """Inverted dropout's multiplier, 0 or 1 / (1 - rate) per element from
    ``rng.keep_mask``; None where dropout is the identity."""
    if not training or rate == 0.0:
        return None
    if not 0.0 <= rate < 1.0:
        raise ShapeError("dropout rate must lie in [0, 1)")
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = rng.keep_mask(shape, rate).astype(dtype)
    keep /= 1.0 - rate
    return keep


class Edges:
    """Edge i joins nodes pairs[i, 0] and pairs[i, 1] of num_nodes: the ids,
    checked, and the flat indices that scatter width-wide rows to either
    end, built once for every ``aggregate`` over the edges."""

    def __init__(self, pairs, num_nodes: int, width: int):
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ShapeError(f"edge pairs must be [E, 2], got shape {pairs.shape}")
        self.u, self.v = (_check_ids(pairs[:, j], num_nodes, "edge ends") for j in (0, 1))
        self.flat_u, self.flat_v = _flat_index(self.u, width), _flat_index(self.v, width)
        self.node_shape = (num_nodes, width)


def aggregate(h: Tensor, edges: Edges, x: Tensor) -> Tensor:
    """GIN-style sum aggregation: edge i sends the message
    (h[u_i] + h[v_i]) + x[i] to both its ends, and row j of the result is
    the sum of the messages node j receives as an edge's first end plus
    the sum it receives as a second end. An empty edge list gives zeros."""
    h, x = _coerce(h), _coerce(x)
    n, w = edges.node_shape
    if h.shape != (n, w) or x.shape != (edges.u.size, w):
        raise ShapeError(f"aggregate: shapes {h.shape} and {x.shape} for {edges.u.size} edges "
                         f"over nodes {edges.node_shape}")
    msg = h.data[edges.u]
    msg += h.data[edges.v]
    msg += x.data
    out = _scatter_add(msg, edges.flat_u, n, h.dtype)
    out += _scatter_add(msg, edges.flat_v, n, h.dtype)

    def grad_fn(g):
        gmsg = g[edges.v]
        gmsg += g[edges.u]
        # h is listed once per end: the second-end scatter is accumulated
        # first, then the first-end one, as two gathers would be
        return (_scatter_add(gmsg, edges.flat_v, n, h.dtype),
                _scatter_add(gmsg, edges.flat_u, n, h.dtype), gmsg)

    return _emit(out, (h, h, x), grad_fn, "aggregate")


def node_update(x: Tensor, residual: Tensor, scale: np.ndarray, w1: Tensor, b1: Tensor,
                w2: Tensor, b2: Tensor, gain: Tensor, bias: Tensor, rate: float,
                rng: Rng | BlockRng | None, training: bool) -> Tensor:
    """dropout(layer_norm(relu(x @ w1 + b1) @ w2 + b2) * scale + residual)
    for x[n,k], residual[n,d], w1[k,h], b1[h], w2[h,d], b2[d], gain[d],
    bias[d] and a plain column scale[n,1]. It checks for non-finite values
    at the first layer's output (relu(-inf) is 0), the variance and the
    result."""
    x, residual, w1, b1, w2, b2, gain, bias = params = tuple(
        _coerce(t) for t in (x, residual, w1, b1, w2, b2, gain, bias))
    if ([t.data.ndim for t in params] != [2, 2, 2, 1, 2, 1, 1, 1]
            or w1.shape != (x.shape[1], b1.shape[0]) or w2.shape[0] != b1.shape[0]
            or residual.shape != (x.shape[0], w2.shape[1]) or np.shape(scale) != (x.shape[0], 1)
            or not b2.shape == gain.shape == bias.shape == w2.shape[1:]):
        raise ShapeError(f"node_update: shapes {[t.shape for t in params]}, {np.shape(scale)} "
                         "are not x, residual, w1, b1, w2, b2, gain, bias, scale")
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(_finite(hidden, "affine in node_update"), 0.0, out=hidden)
    pre_norm = hidden @ w2.data
    pre_norm += b2.data
    xhat, inv_std = _normalize(pre_norm, 1e-5, "layer_norm in node_update")
    out = xhat * gain.data
    out += bias.data
    out *= scale
    out += residual.data
    keep = _dropout_keep(out.shape, out.dtype, rate, rng, training)
    if keep is not None:
        out *= keep

    def grad_fn(g):
        g_res = g if keep is None else g * keep
        g_mid, g_gain, g_bias = _layer_norm_grads(g_res * scale, gain.data, xhat, inv_std)
        g_hidden = g_mid @ w2.data.T
        g_hidden *= hidden > 0
        return (g_hidden @ w1.data.T, g_res, x.data.T @ g_hidden, g_hidden.sum(axis=0),
                hidden.T @ g_mid, g_mid.sum(axis=0), g_gain, g_bias)

    return _emit(out, params, grad_fn, "node_update")


def _loss_array(values, shape, dtype, what: str, name: str = "weights") -> np.ndarray:
    """A loss's weights or targets of the given shape, as an array of ``dtype``."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != shape:
        raise ShapeError(f"{what}: {name} of shape {values.shape} for shape {shape}")
    return values


def squared_error(pred: Tensor, targets, weights) -> Tensor:
    """Sum over the elements of weights * (pred - targets)^2, targets and
    weights of pred's shape cast to its dtype. The gradient is a + a, what
    each factor of the square sends: a = (upstream * weights) * (pred - targets)."""
    pred = _coerce(pred)
    targets = _loss_array(targets, pred.shape, pred.dtype, "squared_error", "targets")
    weights = _loss_array(weights, pred.shape, pred.dtype, "squared_error")
    with np.errstate(over="ignore", invalid="ignore"):  # raised by _emit's check
        diff = pred.data - targets
        sq = diff * diff
        sq *= weights
        loss = np.asarray(sq.sum(), dtype=pred.dtype)

    def grad_fn(g):
        a = np.full(diff.shape, float(g), dtype=diff.dtype) * weights
        a *= diff
        return (a + a,)

    return _emit(loss, (pred,), grad_fn, "squared_error")


def scaled_sum(terms: Sequence[Tensor], scale: float) -> Tensor:
    """((terms[0] + terms[1]) + ...) * scale of one or more scalar terms,
    the scale cast to the first term's dtype."""
    terms = tuple(_coerce(t) for t in terms)
    if not terms or any(t.shape != () for t in terms):
        raise ShapeError(f"scaled_sum: terms of shapes {[t.shape for t in terms]}, not scalars")
    factor = np.asarray(scale, dtype=terms[0].dtype)
    total = terms[0].data
    with np.errstate(over="ignore", invalid="ignore"):  # raised by _emit's check
        for term in terms[1:]:
            total = total + term.data
        total = total * factor
    return _emit(total, terms, lambda g: (g * factor,) * len(terms), "scaled_sum")


# bytes of one tile's [pairs, h] hidden block. The block, its gradient and
# the relu mask then take about 0.5 MiB and stay in a 2 MiB L2 cache next to
# w2 and the logits: 256 KiB is 128 pairs at h = 256 in f64, the fastest of a
# 32-512-pair sweep; a whole 30-atom block and its gradient need 3.7 MB
TILE_BYTES = 256 * 1024


def pair_mlp_cross_entropy(x: Tensor, counts, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                           labels, weights) -> Tensor:
    """Sum over pairs of weights[pair] * -log softmax(logits)[labels[pair]].
    The pairs are the unordered row pairs of each run of counts[m]
    consecutive rows of x, runs in turn: a run's pairs (i, j) with j >= i,
    i-major, n * (n + 1) / 2 of them for n rows. A pair's logits are
    relu(x[i] @ w1 + x[j] @ w1 + b1) @ w2 + b2, the same for (i, j) and
    (j, i); so weights of 2 / n^2 off the diagonal and 1 / n^2 on it give
    the mean over a run's n^2 ordered pairs. p = x @ w1 is computed once.

    A run is scored a tile at a time: the most whole rows i whose [rows * n,
    h] hidden block fits ``TILE_BYTES``, at least one. The tile of rows
    [i, i + rows) spans columns [i, n), one broadcast add, and its few cells
    (i', j) with j < i' weigh 0. The result is a scalar, so a taped call sums
    its gradients at upstream 1 tile by tile (da's rows are set, dc, dw2 and
    db2 add up across tiles), and backward only scales them."""
    x, w1, b1, w2, b2 = inputs = tuple(_coerce(t) for t in (x, w1, b1, w2, b2))
    if ([t.data.ndim for t in inputs] != [2, 2, 1, 2, 1] or b2.shape != w2.shape[1:]
            or w1.shape != (x.shape[1], w2.shape[0]) or b1.shape != w2.shape[:1]):
        raise ShapeError(f"pair_mlp_cross_entropy: shapes {[t.shape for t in inputs]} are not "
                         "x[n,k], w1[k,h], b1[h], w2[h,c], b2[c]")
    counts = _check_counts(counts, x.shape[0], "pair_mlp_cross_entropy")
    h, num_classes = w2.shape
    labels = _check_ids(labels, num_classes, "class labels",
                        rows=int((counts * (counts + 1) // 2).sum()))
    weights = _loss_array(weights, labels.shape, x.dtype, "pair_mlp_cross_entropy")
    taped = bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)
    p = x.data @ w1.data
    a = p + b1.data
    dtype = np.result_type(a, w2.data)
    row_bytes = np.maximum(counts * h * dtype.itemsize, 1)
    tile_rows = np.clip(TILE_BYTES // row_bytes, 1, np.maximum(counts, 1))
    # the tiles' cells, row by row: row i of a run of n rows whose tile starts
    # at row s has the cells (i, s .. n - 1). Its cells (i, i ..) are its
    # pairs, so the cells with j >= i are the pairs in order; the rest weigh 0
    local = np.arange(x.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    diag = local % np.repeat(tile_rows, counts)  # (i, i)'s column in its tile
    width = np.repeat(counts, counts) - local + diag
    cell_starts = np.cumsum(width) - width
    real = np.arange(int(width.sum())) >= np.repeat(cell_starts + diag, width)
    cell_labels, cell_weights = (np.zeros(real.shape, dtype=v.dtype) for v in (labels, weights))
    cell_labels[real], cell_weights[real] = labels, weights
    cell_starts = cell_starts.tolist()
    picked = np.empty(real.shape, dtype=dtype)
    # one set of buffers for every tile: fresh ones would cost page faults
    most = int((tile_rows * counts).max(initial=0))
    hidden_buf, logits_buf = (np.empty(most * size, dtype=dtype) for size in (h, num_classes))
    tile_ids, ones = np.arange(most), np.ones(int(counts.max(initial=0)), dtype=dtype)
    if taped:
        grad_buf, mask_buf = np.empty_like(hidden_buf), np.empty(most * h, dtype=bool)
        da, dc = np.empty_like(a), np.zeros_like(p)
        dw2, db2 = np.zeros_like(w2.data), np.zeros_like(b2.data)
    for n, t, end in zip(counts.tolist(), tile_rows.tolist(), np.cumsum(counts).tolist()):
        for i in range(end - n, end, t):
            rows, cols = min(t, end - i), end - i  # rows i .. i + rows, columns i .. end
            m, q = rows * cols, cell_starts[i]  # cells q .. q + m
            hidden = hidden_buf[: m * h].reshape(m, h)
            np.add(a[i : i + rows, None], p[None, i:end], out=hidden.reshape(rows, cols, h))
            np.maximum(hidden, 0.0, out=hidden)
            z = np.matmul(hidden, w2.data, out=logits_buf[: m * num_classes].reshape(m, -1))
            z += b2.data
            _finite(z, "pair_mlp_cross_entropy")
            z -= z.max(axis=1, keepdims=True)
            pick = tile_ids[:m], cell_labels[q : q + m]
            picked[q : q + m] = z[pick]
            e = np.exp(z, out=z)
            total = e.sum(axis=1, keepdims=True)
            picked[q : q + m] -= np.log(total[:, 0])
            if not taped:
                continue
            # e becomes the logits' gradient, gh the hidden block's
            mask = np.greater(hidden, 0.0, out=mask_buf[: m * h].reshape(m, h))
            w = cell_weights[q : q + m]
            e *= (w / total[:, 0])[:, None]
            e[pick] -= w
            dw2 += hidden.T @ e
            db2 += e.sum(axis=0)
            gh = np.matmul(e, w2.data.T, out=grad_buf[: m * h].reshape(m, h))
            gh *= mask
            # row sums as products with ones: BLAS sums them faster than np.sum
            np.matmul(ones[:cols], gh.reshape(rows, cols, h), out=da[i : i + rows])
            dc[i:end] += np.matmul(ones[:rows], gh.reshape(rows, cols * h)).reshape(cols, h)

    def grad_fn(g):
        dp = da + dc
        return tuple(d * float(g) for d in (dp @ w1.data.T, x.data.T @ dp, da.sum(axis=0),
                                             dw2, db2))

    loss = np.asarray(-(picked * cell_weights).sum(), dtype=x.dtype)
    return _emit(loss, inputs, grad_fn, "pair_mlp_cross_entropy")


def bce_with_logits(logits: Tensor, targets: Tensor, weights) -> Tensor:
    """Sum of weights * binary cross-entropy with logits over the elements."""
    logits, targets = _coerce(logits), _coerce(targets)
    if logits.shape != targets.shape:
        raise ShapeError("bce_with_logits expects matching shapes")
    weights = _loss_array(weights, logits.shape, logits.dtype, "bce_with_logits")
    x, t = logits.data, targets.data
    elem = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def grad_fn(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        return ((sig - t) * weights * float(g), None)

    loss = (elem * weights).sum()
    return _emit(np.asarray(loss, dtype=logits.dtype), (logits, targets), grad_fn, "bce_with_logits")


# names of deleted ops, kept only because bench/tracing.py patches them by string;
# the fused ops above replaced the first eight, and squared_error, scaled_sum and
# segment_mean the rest. ROADMAP item 1 (a tracer of live ops only) deletes them
matmul = exp = log = reshape = mean_rows = softmax_cross_entropy = layer_norm = dropout = None
sub = mul = div = sum_all = segment_sum = None
