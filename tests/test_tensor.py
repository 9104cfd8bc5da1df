import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn import tensor as T
from geognn.errors import NumericalError, ShapeError
from geognn.rng import Rng
from geognn.tensor import Tape, Tensor

from oracles import (central_difference, layer_norm_reference, relative_error,
                     segment_sum_reference, softmax_ce_reference)


def grad_of(f, *arrays, h=1e-5):
    """Analytic grads of f(tensors...) next to central-difference oracles."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = f(*tensors)
    tape.backward(loss)
    analytic = [t.grad for t in tensors]
    numeric = []
    for i, arr in enumerate(arrays):
        def probe(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return f(*args).item()
        numeric.append(central_difference(probe, np.array(arr, dtype=float), h=h))
    return analytic, numeric


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_selection_row(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [3.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_of_sum_vs_closed_form(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.matmul(ta, Tensor(b)))
        tape.backward(loss)
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T, rtol=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        analytic, numeric = grad_of(lambda x, y: T.sum_all(T.matmul(x, y)), a, b)
        assert relative_error(analytic[0], numeric[0]) < 1e-4
        assert relative_error(analytic[1], numeric[1]) < 1e-4


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_exp_zero(self):
        assert T.exp(Tensor([0.0])).data[0] == 1.0

    def test_log_grad_at_two(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.log(x))
        tape.backward(loss)
        numeric = central_difference(lambda v: math.log(v[0]), np.array([2.0]))
        assert abs(x.grad[0] - 0.5) < 1e-12
        assert relative_error(x.grad, numeric) < 1e-4

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericalError):
            T.log(Tensor([0.0]))

    def test_div_rejects_zero(self):
        with pytest.raises(NumericalError):
            T.div(Tensor([1.0]), Tensor([0.0]))

    def test_exact_shape_rule(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_scalar_broadcast(self):
        out = T.mul(Tensor([[1.0, 2.0]]), 3.0)
        np.testing.assert_array_equal(out.data, [[3.0, 6.0]])

    def test_column_broadcast(self):
        out = T.mul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[2.0], [0.5]]))
        np.testing.assert_array_equal(out.data, [[2.0, 4.0], [1.5, 2.0]])
        with pytest.raises(ShapeError):  # a row is not a column
            T.mul(Tensor(np.ones((2, 2))), Tensor(np.ones((1, 2)) * 2.0))

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_column_grads_vs_finite_differences(self, op):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(3, 4))
        col = rng.normal(size=(3, 1)) + 3.0  # keep divisors away from zero
        for x, y in ((a, col), (col, a)):
            analytic, numeric = grad_of(lambda u, v: T.sum_all(T.mul(op(u, v), op(u, v))), x, y)
            assert analytic[1].shape == y.shape
            assert relative_error(analytic[0], numeric[0]) < 1e-4
            assert relative_error(analytic[1], numeric[1]) < 1e-4

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_binary_grads_vs_finite_differences(self, op):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 3.0  # keep divisors away from zero
        analytic, numeric = grad_of(lambda x, y: T.sum_all(T.mul(op(x, y), op(x, y))), a, b)
        assert relative_error(analytic[0], numeric[0]) < 1e-4
        assert relative_error(analytic[1], numeric[1]) < 1e-4

    @pytest.mark.parametrize("op", [T.relu, T.exp, T.log])
    def test_unary_grads_vs_finite_differences(self, op):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, size=(4, 2))
        analytic, numeric = grad_of(lambda t: T.sum_all(T.mul(op(t), op(t))), x)
        assert relative_error(analytic[0], numeric[0]) < 1e-4


def _reduce_like(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A broadcast gradient summed back to an operand's shape: over each row
    for a column, over everything for a scalar."""
    if grad.shape == shape:
        return grad
    if math.prod(shape) != 1:
        return grad.sum(axis=1, keepdims=True)
    return np.full(shape, grad.sum(), dtype=grad.dtype)


ELEMENTWISE = {  # op: its forward and its gradient pair in plain numpy
    T.add: (lambda x, y: x + y, lambda g, x, y: (g, g)),
    T.sub: (lambda x, y: x - y, lambda g, x, y: (g, -g)),
    T.mul: (lambda x, y: x * y, lambda g, x, y: (g * y, g * x)),
    T.div: (lambda x, y: x / y, lambda g, x, y: (g / y, -g * x / (y * y))),
}


@st.composite
def elementwise_cases(draw):
    """Two operands of one dtype in one of the three shape forms (equal
    shapes, a scalar, an [n, 1] column against an [n, k] matrix), either
    one first, with an upstream gradient of the output's shape."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    other = draw(st.sampled_from([(n, k), (), (1,), (1, 1), (n, 1)]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape):  # away from zero, so either one can be a divisor
        return (gen.uniform(0.5, 2.0, shape) * gen.choice([-1.0, 1.0], shape)).astype(dtype)

    a, b = operand((n, k)), operand(other)
    if draw(st.booleans()):
        a, b = b, a
    return a, b, gen.normal(size=(n, k)).astype(dtype)


class TestElementwisePath:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(op=st.sampled_from(list(ELEMENTWISE)), case=elementwise_cases())
    def test_matches_numpy_broadcasting_bit_for_bit(self, op, case):
        a, b, upstream = case
        forward, grads = ELEMENTWISE[op]
        x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = op(x, y)
            loss = T.sum_all(T.mul(out, Tensor(upstream)))
        tape.backward(loss)
        wants = [forward(a, b)] + [_reduce_like(g, arr.shape)
                                   for g, arr in zip(grads(upstream, a, b), (a, b))]
        for got, want in zip((out.data, x.grad, y.grad), wants):
            assert got.dtype == want.dtype == a.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op,scalar_first", [
        pytest.param(op, first, id=f"{op.__name__}-scalar-first" if first else op.__name__)
        for first in (False, True) for op in ELEMENTWISE
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_scalar_takes_the_tensor_dtype(self, op, scalar_first, dtype):
        a = np.array([[1.5, -2.0], [0.25, 3.0]], dtype=dtype)
        upstream = np.array([[0.5, -1.0], [2.0, 0.75]], dtype=dtype)
        forward, grads = ELEMENTWISE[op]
        x = Tensor(a, requires_grad=True)
        with Tape() as tape:
            out = op(0.3, x) if scalar_first else op(x, 0.3)
            loss = T.sum_all(T.mul(out, Tensor(upstream)))
        tape.backward(loss)
        scalar = np.asarray(0.3, dtype=dtype)
        if scalar_first:
            want_out, want_grad = forward(scalar, a), grads(upstream, scalar, a)[1]
        else:
            want_out, want_grad = forward(a, scalar), grads(upstream, a, scalar)[0]
        for got, want in ((out.data, want_out), (x.grad, want_grad)):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestSegmentSum:
    def test_hand_example(self):
        out = T.segment_sum(Tensor([[1.0], [2.0], [3.0]]), [0, 0, 1], 2)
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])

    def test_single_segment_is_column_sum(self):
        v = np.arange(6.0).reshape(3, 2)
        out = T.segment_sum(Tensor(v), [0, 0, 0], 1)
        np.testing.assert_array_equal(out.data, v.sum(axis=0, keepdims=True))

    def test_empty_segment_is_zero(self):
        out = T.segment_sum(Tensor([[1.0], [2.0]]), [0, 1], 3)
        np.testing.assert_array_equal(out.data[2], [0.0])

    def test_id_out_of_range(self):
        with pytest.raises(ShapeError):
            T.segment_sum(Tensor([[1.0]]), [1], 1)

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(20, 3))
        ids = rng.integers(0, 5, size=20)
        out = T.segment_sum(Tensor(vals), ids, 5)
        np.testing.assert_allclose(out.data, segment_sum_reference(vals, ids, 5), atol=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(6, 2))
        ids = np.array([0, 1, 0, 2, 2, 1])
        analytic, numeric = grad_of(
            lambda v: T.sum_all(T.mul(T.segment_sum(v, ids, 3), T.segment_sum(v, ids, 3))), vals
        )
        assert relative_error(analytic[0], numeric[0]) < 1e-4


@st.composite
def scatter_cases(draw):
    """Rows of width 1-8 with ids over 1-40 segments; some segments stay empty."""
    segments = draw(st.integers(1, 40))
    width = draw(st.integers(1, 8))
    ids = np.array(draw(st.lists(st.integers(0, segments - 1), max_size=60)), dtype=np.int64)
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(ids.size, width))
    return vals, ids, segments


def _gather_grad(vals, ids, segments):
    """Gradient of sum(gather_rows(x, ids) * vals) w.r.t. x: vals scattered by id."""
    x = Tensor(np.zeros((segments, vals.shape[1])), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_all(T.mul(T.gather_rows(x, ids), Tensor(vals)))
    tape.backward(loss)
    return x.grad


class TestScatter:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scatter_cases())
    def test_both_scatters_match_reference_and_repeat_bitwise(self, case):
        vals, ids, segments = case
        want = segment_sum_reference(vals, ids, segments)
        summed = T.segment_sum(Tensor(vals), ids, segments).data
        scattered = _gather_grad(vals, ids, segments)
        np.testing.assert_allclose(summed, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scattered, want, rtol=0, atol=1e-12)
        assert np.array_equal(summed, T.segment_sum(Tensor(vals), ids, segments).data)
        assert np.array_equal(scattered, _gather_grad(vals, ids, segments))


# each op takes ids in [0, 3), and two of them where one id per row applies
ID_OPS = {
    "segment_sum": lambda ids: T.segment_sum(Tensor(np.zeros((2, 3))), ids, 3),
    "gather_rows": lambda ids: T.gather_rows(Tensor(np.zeros((3, 2))), ids),
    "softmax_cross_entropy": lambda ids: T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), ids),
}
BAD_IDS = {
    "float": [0.0, 1.0],
    "2-D": [[0, 1]],
    "negative": [0, -1],
    "out-of-range": [0, 3],
    "wrong-count": [0, 1, 2],
}


@pytest.mark.parametrize(
    "op,bad",
    [(op, bad) for op in ID_OPS for bad in BAD_IDS if (op, bad) != ("gather_rows", "wrong-count")],
)
def test_bad_ids_rejected(op, bad):
    with pytest.raises(ShapeError):
        ID_OPS[op](np.array(BAD_IDS[bad]))
    ID_OPS[op](np.array([0, 2]))  # the same call with good ids runs


def _pair_reference(x, counts, w, b):
    """pair_affine_relu spelled out: gather both rows of every ordered pair,
    i-major within each run, concatenate them and apply the layer."""
    starts = np.cumsum(counts) - counts
    u = np.concatenate([np.repeat(np.arange(s, s + n), n) for s, n in zip(starts, counts)])
    v = np.concatenate([np.tile(np.arange(s, s + n), n) for s, n in zip(starts, counts)])
    return T.relu(T.affine(T.concat([T.gather_rows(x, u), T.gather_rows(x, v)]), w, b))


def _pair_value_and_grads(op, x, counts, w, b, upstream):
    """op's output and the gradients of sum(op(...) * upstream) w.r.t. x, w, b."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    with Tape() as tape:
        out = op(leaves[0], counts, leaves[1], leaves[2])
        loss = T.sum_all(T.mul(out, Tensor(upstream)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


@st.composite
def pair_cases(draw):
    """1-8 runs of 1-40 rows, input width 1-6, output width 1-8."""
    counts = np.array(draw(st.lists(st.integers(1, 40), min_size=1, max_size=8)))
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, w, b = gen.normal(size=(counts.sum(), k)), gen.normal(size=(2 * k, m)), gen.normal(size=m)
    return x, counts, w, b, gen.normal(size=((counts**2).sum(), m))


class TestPairAffineRelu:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pair_cases())
    def test_matches_concat_reference(self, case):
        got = _pair_value_and_grads(T.pair_affine_relu, *case)
        want = _pair_value_and_grads(_pair_reference, *case)
        for name, g, r in zip(("out", "x", "w", "b"), got, want):
            assert g.shape == r.shape, name
            assert np.abs(g - r).max() <= 1e-12 * max(np.abs(r).max(), 1.0), name

    def test_grads_vs_finite_differences(self):
        gen = np.random.default_rng(13)
        counts = np.array([2, 1, 3])
        x, w, b = gen.normal(size=(6, 2)), gen.normal(size=(4, 3)), gen.normal(size=3)
        upstream = gen.normal(size=(14, 3))
        analytic, numeric = grad_of(
            lambda a, c, d: T.sum_all(T.mul(T.pair_affine_relu(a, counts, c, d),
                                            Tensor(upstream))),
            x, w, b,
        )
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-4

    def test_f32_stays_f32(self):
        gen = np.random.default_rng(14)
        counts = np.array([3, 2])
        case = [gen.normal(size=(5, 3)), counts, gen.normal(size=(6, 4)), gen.normal(size=4),
                gen.normal(size=(13, 4))]
        case = [a if a is counts else a.astype(np.float32) for a in case]
        got = _pair_value_and_grads(T.pair_affine_relu, *case)
        want = _pair_value_and_grads(_pair_reference, *case)
        for g, r in zip(got, want):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("shapes", [
        ((5, 3), [2, 2], (6, 4), (4,)),   # counts sum to 4, x has 5 rows
        ((5, 3), [2, 3], (5, 4), (4,)),   # w has 5 rows, not 2k = 6
        ((5, 3), [2, 3], (6, 4), (3,)),   # bias width 3 for 4 outputs
    ])
    def test_bad_shapes_rejected(self, shapes):
        x, counts, w, b = shapes
        with pytest.raises(ShapeError):
            T.pair_affine_relu(Tensor(np.ones(x)), np.array(counts), Tensor(np.ones(w)),
                               Tensor(np.ones(b)))


@st.composite
def layer_norm_cases(draw):
    """1-1300 rows of width 1-64 around a common offset, none, some or all
    of them constant, with gain, bias and an upstream gradient."""
    rows, width = draw(st.integers(1, 1300)), draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.integers(-3, 3))
    constant_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, 100.0])) * abs(gen.normal())
    x = (gen.normal(size=(rows, width)) + offset) * scale
    constant = gen.random(rows) < constant_share
    x[constant] = x[constant, :1]
    return x, gen.normal(size=width), gen.normal(size=width), gen.normal(size=(rows, width))


def _layer_norm_value_and_grads(x, gain, bias, upstream):
    leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    with Tape() as tape:
        out = T.layer_norm(*leaves)
        loss = T.sum_all(T.mul(out, Tensor(upstream)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


class TestLayerNorm:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(layer_norm_cases())
    def test_matches_term_by_term_reference(self, case):
        # the closed-form input gradient moves at the rounding level of the
        # terms it is formed from, upstream * gain / std
        x, gain, _, upstream = case
        terms = np.abs(upstream * gain / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)).max()
        for dtype, rtol in ((np.float64, 1e-13), (np.float32, 1e-5)):
            case = [a.astype(dtype) for a in case]
            out, gx, ggain, gbias = _layer_norm_value_and_grads(*case)
            want_out, want_gx, want_ggain, want_gbias = layer_norm_reference(*case)
            assert gx.dtype == want_gx.dtype == dtype
            assert np.abs(gx.astype(np.float64) - want_gx).max() <= rtol * terms
            for got, want in ((out, want_out), (ggain, want_ggain), (gbias, want_gbias)):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_constant_row_far_from_zero_normalises_to_bias(self, dtype):
        # a float32 mean of this row misses it by more than sqrt(eps)
        x = np.full((1, 42), 13471.327, dtype=dtype)
        gain, bias = np.full(42, 2.0, dtype=dtype), np.linspace(-1.0, 1.0, 42).astype(dtype)
        upstream = np.ones((1, 42), dtype=dtype)
        out, gx, _, _ = _layer_norm_value_and_grads(x, gain, bias, upstream)
        want_out = layer_norm_reference(x, gain, bias, upstream)[0]
        assert out.dtype == gx.dtype == dtype
        assert out.tobytes() == want_out.tobytes()
        assert np.abs(out - bias).max() <= 1e-8


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((2, 30))
        loss = T.softmax_cross_entropy(Tensor(logits), np.array([7, 7]))
        assert loss.item() == pytest.approx(math.log(30.0), abs=1e-12)

    def test_monotone_decrease_with_margin(self):
        losses = []
        for margin in [0.0, 2.0, 5.0, 10.0, 20.0]:
            logits = np.zeros((1, 4))
            logits[0, 1] = margin
            losses.append(T.softmax_cross_entropy(Tensor(logits), np.array([1])).item())
        assert all(hi > lo for hi, lo in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        loss = T.softmax_cross_entropy(Tensor(logits), labels)
        assert loss.item() == pytest.approx(softmax_ce_reference(logits, np.eye(5)[labels]), abs=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 6))
        labels = rng.integers(0, 6, size=3)
        analytic, numeric = grad_of(lambda l: T.softmax_cross_entropy(l, labels), logits)
        assert relative_error(analytic[0], numeric[0]) < 1e-4

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 6), classes=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           weighted=st.booleans())
    def test_labels_match_one_hot_reference(self, rows, classes, seed, weighted):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(rows, classes))
        labels = rng.integers(0, classes, size=rows)
        weights = rng.uniform(0.0, 2.0, size=rows) if weighted else None
        loss = T.softmax_cross_entropy(Tensor(logits), labels, weights).item()
        one_hot = np.eye(classes)[labels]
        if weighted:  # the weighted sum of each row's own cross-entropy
            want = sum(w * softmax_ce_reference(logits[r : r + 1], one_hot[r : r + 1])
                       for r, w in enumerate(weights))
        else:
            want = softmax_ce_reference(logits, one_hot)
        assert loss == pytest.approx(want, rel=1e-12, abs=1e-12)
        analytic, numeric = grad_of(lambda l: T.softmax_cross_entropy(l, labels, weights), logits)
        assert relative_error(analytic[0], numeric[0]) < 1e-4

    def test_rejects_bad_targets(self):
        # out of range, negative, non-integer, not 1-D, one per row
        for labels in ([3], [-1], [0.0], [[1]], [0, 1]):
            with pytest.raises(ShapeError):
                T.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array(labels))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-14)

    def test_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.add(T.mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_only_leaves_keep_their_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, -1.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, w)
            z = T.mul(y, y)
            loss = T.sum_all(z)
        tape.backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * (x.data * w.data) * w.data)
        np.testing.assert_allclose(w.grad, 2.0 * (x.data * w.data) * x.data)


class TestPlumbingOps:
    def test_layer_norm_forward(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = T.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert out.data.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.data.std() == pytest.approx(1.0, rel=1e-4)

    def test_layer_norm_grad_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        analytic, numeric = grad_of(
            lambda a, g, b: T.sum_all(T.mul(T.layer_norm(a, g, b), T.layer_norm(a, g, b))),
            x, gain, bias,
        )
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-4

    def test_affine_grad_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        analytic, numeric = grad_of(
            lambda a, c, d: T.sum_all(T.mul(T.affine(a, c, d), T.affine(a, c, d))), x, w, b
        )
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-4

    def test_gather_concat_mean_grads(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        ids = np.array([0, 2, 2, 1, 3])

        def f(t):
            g = T.gather_rows(t, ids)
            c = T.concat([g, g], axis=1)
            return T.sum_all(T.mul(T.mean_rows(c), T.mean_rows(c)))

        analytic, numeric = grad_of(f, x)
        assert relative_error(analytic[0], numeric[0]) < 1e-4

    def test_dropout_eval_is_identity(self):
        x = Tensor([[1.0, 2.0]])
        assert T.dropout(x, 0.5, None, training=False) is x

    def test_dropout_train_reproducible_and_scaled(self):
        x = Tensor(np.ones((8, 8)))
        a = T.dropout(x, 0.5, Rng(42), training=True)
        b = T.dropout(x, 0.5, Rng(42), training=True)
        np.testing.assert_array_equal(a.data, b.data)
        assert set(np.unique(a.data)) <= {0.0, 2.0}

    def test_dropout_grad_uses_same_mask(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with Tape() as tape:
            out = T.dropout(x, 0.25, Rng(3), training=True)
            loss = T.sum_all(out)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, out.data)

    def test_bce_with_logits_values(self):
        logits = Tensor(np.zeros((1, 4)))
        bits = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]]))
        assert T.bce_with_logits(logits, bits).item() == pytest.approx(math.log(2.0), abs=1e-12)
        strong = Tensor(np.array([[-10.0, 10.0, -10.0, 10.0]]))
        assert T.bce_with_logits(strong, bits).item() < 0.01

    def test_bce_grad_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(2, 5))
        bits = (rng.uniform(size=(2, 5)) > 0.5).astype(float)
        mask = np.ones((2, 5))
        mask[0, 1] = 0.0
        analytic, numeric = grad_of(lambda l: T.bce_with_logits(l, Tensor(bits), mask), logits)
        assert relative_error(analytic[0], numeric[0]) < 1e-4


class TestDeterminismAndSafety:
    def test_identical_forward_twice(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 4))

        def run():
            return T.relu(T.affine(Tensor(x), Tensor(w), Tensor(np.zeros(4)))).data

        assert np.array_equal(run(), run())

    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            T.add(Tensor([np.nan]), Tensor([1.0]))

    def test_overflow_rejected(self):
        with pytest.raises(NumericalError):
            T.exp(Tensor([1000.0]))

    def test_gradcheck_random_ops_20_instances(self):
        # every differentiable op, 20 random instances, rel err < 1e-4
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.uniform(0.3, 1.5, size=(3, 4))
            w = rng.normal(size=(4, 3))

            def f(t, m):
                a = T.affine(t, m, Tensor(np.zeros(3)))
                b = T.relu(a)
                c = T.exp(T.mul(b, -0.3))
                d = T.log(T.add(c, 1.0))
                return T.sum_all(T.mul(d, d))

            analytic, numeric = grad_of(f, x, w)
            assert relative_error(analytic[0], numeric[0]) < 1e-4
            assert relative_error(analytic[1], numeric[1]) < 1e-4
