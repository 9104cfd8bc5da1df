import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn import tensor as T
from geognn.errors import NumericalError, ShapeError
from geognn.geometry import build_dual_graph, pack_graphs
from geognn.rng import BlockRng, Rng
from geognn.synth import random_molecule
from geognn.tensor import Tape, Tensor

from oracles import (aggregate_chain, central_difference, layer_norm_reference,
                     node_update_reference, pair_mlp_reference, relative_error,
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


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

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

    @pytest.mark.parametrize("op", [T.relu])
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
    "pair_mlp_cross_entropy": lambda ids: T.pair_mlp_cross_entropy(
        Tensor(np.zeros((2, 1))), [1, 1], Tensor(np.zeros((1, 2))), Tensor(np.zeros(2)),
        Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), ids, np.full(2, 0.5)),
    "aggregate": lambda ids: T.aggregate(
        Tensor(np.zeros((3, 2))), T.Edges(np.stack([ids, ids[::-1]], axis=-1), 3, 2),
        Tensor(np.zeros((2, 2)))),
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


def _pair_value_and_grads(x, counts, w1, b1, w2, b2, labels, weights, scale=0.3):
    """The value of scale * pair_mlp_cross_entropy(...) and its gradients
    w.r.t. x, w1, b1, w2, b2."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, w1, b1, w2, b2)]
    with Tape() as tape:
        loss = T.mul(T.pair_mlp_cross_entropy(leaves[0], counts, *leaves[1:], labels, weights),
                     scale)
    tape.backward(loss)
    return [loss.data] + [t.grad for t in leaves]


def _pair_reference(*case, scale=0.3):
    """``_pair_value_and_grads`` by the numpy ``pair_mlp_reference``."""
    loss, grads = pair_mlp_reference(*case)
    return [scale * loss] + [scale * g for g in grads]


def _pairs(counts):
    """The number of unordered row pairs, diagonal included, of runs of counts rows."""
    return int((counts * (counts + 1) // 2).sum())


def _distance_weights(counts):
    """loss_distance's weights of each run's pairs (i, j >= i): 2/n^2 off the
    diagonal, 1/n^2 on it, 0 for a one-row run."""
    return np.concatenate([np.where(j == i, 1.0, 2.0)[j >= i] / n**2 * (n > 1)
                           for n in counts for i, j in [np.indices((n, n))]])


@st.composite
def pair_cases(draw):
    """Packs of 1-8 runs of 1-40 rows, one-row runs weighing 0; input width
    1-6, hidden width 1-8, 2-8 classes."""
    counts = np.array(draw(st.lists(st.integers(1, 40), min_size=1, max_size=8)))
    k, h, c = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(2, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (gen.normal(size=(counts.sum(), k)), counts, gen.normal(size=(k, h)),
            gen.normal(size=h), gen.normal(size=(h, c)), gen.normal(size=c),
            gen.integers(0, c, size=_pairs(counts)), _distance_weights(counts))


def _small_pair_case(seed, counts=(2, 1, 3)):
    gen = np.random.default_rng(seed)
    counts = np.array(counts)
    return (gen.normal(size=(counts.sum(), 2)), counts, gen.normal(size=(2, 3)),
            gen.normal(size=3), gen.normal(size=(3, 4)), gen.normal(size=4),
            gen.integers(0, 4, size=_pairs(counts)), _distance_weights(counts))


class TestPairAffineRelu:
    """The symmetric pair layer relu(x[i] @ w1 + x[j] @ w1 + b1), tested
    through the one op that runs it: the fused distance objective
    pair_mlp_cross_entropy, which scores each unordered pair once."""

    @staticmethod
    def _assert_matches_reference(case):
        got = _pair_value_and_grads(*case)
        want = _pair_reference(*case)
        for name, g, r in zip(("loss", "x", "w1", "b1", "w2", "b2"), got, want):
            assert g.shape == r.shape, name
            assert np.abs(g - r).max() <= 1e-12 * max(np.abs(r).max(), 1.0), name

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pair_cases())
    def test_matches_ordered_pair_reference(self, case):
        self._assert_matches_reference(case)

    # bytes per row of a 6-row run at h = 5 in f64: 1-, 2- and 3-row tiles,
    # then one tile per run
    @pytest.mark.parametrize("tile_bytes", [1, 2 * 6 * 5 * 8, 3 * 6 * 5 * 8, 2**30],
                             ids=["1-row", "2-row", "3-row", "whole-run"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_at_every_tile_height(self, monkeypatch, tile_bytes, seed):
        """Tiles of rows [i, i + rows) span columns [i, n), so each holds
        cells (i', j < i') of weight 0: every tile height scores the same
        pairs, including runs of one and two rows."""
        monkeypatch.setattr(T, "TILE_BYTES", tile_bytes)
        gen = np.random.default_rng(seed)
        counts = np.array([1, 2, 6, *gen.integers(1, 7, size=3)])[gen.permutation(6)]
        k, h, c = 3, 5, 4
        case = (gen.normal(size=(counts.sum(), k)), counts, gen.normal(size=(k, h)),
                gen.normal(size=h), gen.normal(size=(h, c)), gen.normal(size=c),
                gen.integers(0, c, size=_pairs(counts)), gen.uniform(size=_pairs(counts)))
        self._assert_matches_reference(case)

    @pytest.mark.parametrize("tile_bytes", [1, 2**30], ids=["1-row", "whole-run"])
    def test_grads_vs_finite_differences(self, monkeypatch, tile_bytes):
        monkeypatch.setattr(T, "TILE_BYTES", tile_bytes)
        x, counts, w1, b1, w2, b2, labels, weights = _small_pair_case(13)
        analytic, numeric = grad_of(
            lambda *t: T.pair_mlp_cross_entropy(t[0], counts, *t[1:], labels, weights),
            x, w1, b1, w2, b2,
        )
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-4

    def test_f32_stays_f32(self):
        case = list(_small_pair_case(14, counts=(3, 2)))
        for i in (0, 2, 3, 4, 5, 7):
            case[i] = case[i].astype(np.float32)
        got = _pair_value_and_grads(*case)
        want = _pair_reference(*case)
        for g, r in zip(got, want):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-5)

    def test_without_a_tape_records_nothing_and_gives_the_same_loss(self):
        case = _small_pair_case(15)
        leaves = [Tensor(a, requires_grad=True) for a in (case[0], *case[2:6])]
        untaped = T.pair_mlp_cross_entropy(leaves[0], case[1], *leaves[1:], *case[6:])
        assert not untaped.requires_grad
        with Tape() as tape:
            taped = T.pair_mlp_cross_entropy(leaves[0], case[1], *leaves[1:], *case[6:])
        assert len(tape) == 1 and taped.requires_grad
        assert untaped.item() == taped.item()
        assert all(t.grad is None for t in leaves)

    def test_runs_across_tiles_at_model_widths(self):
        """The distance head's widths (k = 32, h = 256, 30 classes): at 256 KiB
        tiles an 11-row run fits one tile, a 12-row run takes two and a 40-row
        run fourteen of three rows or one."""
        gen = np.random.default_rng(18)
        counts = np.array([1, 2, 11, 12, 23, 30, 40])
        k, h, c = 32, 256, 30
        assert counts.max() ** 2 * h * 8 > T.TILE_BYTES  # the longest run takes several tiles
        case = (gen.normal(size=(counts.sum(), k)), counts, gen.normal(size=(k, h)) / 8,
                gen.normal(size=h) / 8, gen.normal(size=(h, c)) / 4, gen.normal(size=c),
                gen.integers(0, c, size=_pairs(counts)), _distance_weights(counts))
        self._assert_matches_reference(case)
        leaves = [Tensor(a, requires_grad=True) for a in (case[0], *case[2:6])]
        untaped = T.pair_mlp_cross_entropy(leaves[0], counts, *leaves[1:], *case[6:])
        with Tape():
            taped = T.pair_mlp_cross_entropy(leaves[0], counts, *leaves[1:], *case[6:])
        assert taped.requires_grad and untaped.item() == taped.item()

    def test_taped_call_holds_tiles_not_the_pair_block(self):
        """One taped call and its backward on a 150-row run at h = 64 peak
        below a quarter of the run's [150 * 150, 64] f64 block (11.5 MB)."""
        gen = np.random.default_rng(19)
        n, k, h, c = 150, 16, 64, 30
        leaves = [Tensor(gen.normal(size=shape), requires_grad=True)
                  for shape in ((n, k), (k, h), (h,), (h, c), (c,))]
        counts = np.array([n])
        labels = gen.integers(0, c, size=_pairs(counts))
        weights = _distance_weights(counts)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = T.pair_mlp_cross_entropy(leaves[0], counts, *leaves[1:], labels, weights)
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in leaves)
        assert peak < n * n * h * 8 / 4

    def test_a_run_of_no_rows_adds_nothing(self):
        x, counts, w1, b1, w2, b2, labels, weights = _small_pair_case(20, counts=(2, 3))
        with_empty = (x, np.array([0, 2, 0, 3, 0]), w1, b1, w2, b2, labels, weights)
        got = _pair_value_and_grads(*with_empty)
        want = _pair_value_and_grads(x, counts, w1, b1, w2, b2, labels, weights)
        for g, r in zip(got, want):
            np.testing.assert_array_equal(g, r)

    def test_non_finite_logits_name_the_op(self):
        x, counts, w1, b1, w2, b2, labels, weights = _small_pair_case(16)
        b2[1] = np.inf
        with pytest.raises(NumericalError, match="pair_mlp_cross_entropy"):
            T.pair_mlp_cross_entropy(Tensor(x), counts, Tensor(w1), Tensor(b1), Tensor(w2),
                                     Tensor(b2), labels, weights)

    @pytest.mark.parametrize("shapes", [
        ((5, 3), [2, 2], (3, 4), (4,), (4, 2), (2,)),   # counts sum to 4, x has 5 rows
        ((5, 3), [2, 3], (6, 4), (4,), (4, 2), (2,)),   # w1 has 6 rows, not k = 3
        ((5, 3), [2, 3], (3, 4), (3,), (4, 2), (2,)),   # b1 width 3 for 4 hidden units
        ((5, 3), [2, 3], (3, 4), (4,), (3, 2), (2,)),   # w2 has 3 rows for 4 hidden units
        ((5, 3), [2, 3], (3, 4), (4,), (4, 2), (3,)),   # b2 width 3 for 2 classes
        ((5,), [2, 3], (3, 4), (4,), (4, 2), (2,)),     # x is 1-D
    ])
    def test_bad_shapes_rejected(self, shapes):
        x, counts, w1, b1, w2, b2 = shapes
        with pytest.raises(ShapeError):
            T.pair_mlp_cross_entropy(Tensor(np.ones(x)), np.array(counts), Tensor(np.ones(w1)),
                                     Tensor(np.ones(b1)), Tensor(np.ones(w2)),
                                     Tensor(np.ones(b2)), np.zeros(9, dtype=int),
                                     np.full(9, 1 / 9))

    @pytest.mark.parametrize("counts", [
        [2.0, 3.0],      # not integers
        [[2, 3]],        # 2-D
        [6, -1],         # negative
    ])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ShapeError, match="counts"):
            T.pair_mlp_cross_entropy(Tensor(np.ones((5, 1))), np.array(counts),
                                     Tensor(np.ones((1, 2))), Tensor(np.ones(2)),
                                     Tensor(np.ones((2, 3))), Tensor(np.ones(3)),
                                     np.zeros(13, dtype=int), np.full(13, 1 / 13))

    def test_bad_weights_rejected(self):
        x, counts, w1, b1, w2, b2, labels, weights = _small_pair_case(17)
        with pytest.raises(ShapeError, match="weights"):
            T.pair_mlp_cross_entropy(Tensor(x), counts, Tensor(w1), Tensor(b1), Tensor(w2),
                                     Tensor(b2), labels, weights[:-1])


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


def _pass_through_update(x, gain, bias, residual, rate=0.0, rng=None, training=False):
    """node_update with layers that pass x through exactly (relu(x) - relu(-x)
    is x bit for bit) and scale 1: dropout(layer_norm(x) + residual), so layer
    norm and dropout are tested in the one op that runs them."""
    n, k = x.shape
    eye, zeros = np.eye(k, dtype=x.dtype), np.zeros(2 * k, dtype=x.dtype)
    return T.node_update(x, residual, np.ones((n, 1), dtype=x.dtype),
                         Tensor(np.hstack([eye, -eye])), Tensor(zeros),
                         Tensor(np.vstack([eye, -eye])), Tensor(zeros[:k]), gain, bias, rate, rng,
                         training)


def _layer_norm_value_and_grads(x, gain, bias, upstream):
    leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    with Tape() as tape:
        out = _pass_through_update(*leaves, Tensor(np.zeros_like(x)))
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

    def test_overflowing_variance_is_a_numerical_error(self):
        # finite rows whose squared deviations overflow: inv_std would be 0
        x = Tensor(np.array([[1e200, -1e200, 0.0]]))
        with pytest.raises(NumericalError, match="layer_norm"):
            _pass_through_update(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                                 Tensor(np.zeros((1, 3))))

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


@st.composite
def update_cases(draw):
    """The atom or the bond side of one block on a pack of 1-4 molecules of
    1-40 atoms (a one-atom molecule has no bonds or angles): its edge list,
    graph sizes, node states, edge rows, update parameters of widths 1-6
    and an upstream gradient, in float64 or float32, in eval or train mode."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = pack_graphs([build_dual_graph(random_molecule(Rng(seed).fork(i), min_atoms=n,
                                                          max_atoms=n))
                         for i, n in enumerate(sizes)])
    pairs, counts = draw(st.sampled_from([(graph.bonds, graph.atom_counts),
                                          (graph.angle_bonds, graph.bond_counts)]))
    n, e = int(counts.sum()), pairs.shape[0]
    width, hidden = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    gen = np.random.default_rng(seed)
    arrays = [gen.normal(size=shape).astype(dtype) for shape in (
        (n, width), (e, width), (width, hidden), (hidden,), (hidden, width), (width,), (width,),
        (width,), (n, width))]
    return pairs, counts, arrays[:-1], arrays[-1], draw(st.booleans()), seed


def _fused_update(h, pairs, x, *rest):
    return T.node_update(T.aggregate(h, T.Edges(pairs, h.shape[0], h.shape[1]), x), h, *rest)


def _scale(counts, dtype):
    """The graph-size scale column: 1 / sqrt(n) on each row of an n-row graph."""
    return np.repeat(1.0 / np.sqrt(np.maximum(counts, 1)), counts).reshape(-1, 1).astype(dtype)


def _block_rng(counts, seed):
    return BlockRng([Rng(seed).fork(i) for i in range(counts.size)], counts)


def _update_value_and_grads(pairs, counts, arrays, upstream, training, seed):
    """One update of node states h by their edge list and edge rows x, then
    dropout 0.2 in train mode, one stream per molecule: its output and the
    gradients of sum(output * upstream) with respect to h, x and the six
    parameters."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    h, x, *params = leaves
    with Tape() as tape:
        out = _fused_update(h, pairs, x, _scale(counts, h.dtype), *params, 0.2,
                            _block_rng(counts, seed), training)
        loss = T.sum_all(T.mul(out, Tensor(upstream)))
    tape.backward(loss)
    return out.data, [t.grad for t in leaves]


def _reference_value_and_grads(pairs, counts, arrays, upstream, training, seed):
    """``_update_value_and_grads`` by the 7-op ``aggregate_chain`` and the
    numpy ``node_update_reference``, joined by the chain rule: the chain's
    gradients are those of sum(chain * the reference's gradient at it)."""
    h, x = (Tensor(a, requires_grad=True) for a in arrays[:2])
    keep = None
    if training:
        keep = _block_rng(counts, seed).keep_mask(h.shape, 0.2).astype(h.dtype)
        keep /= 1.0 - 0.2
    with Tape() as tape:
        agg = aggregate_chain(h, pairs, x)
        out, (g_agg, g_res, *g_params) = node_update_reference(
            agg.data, h.data, _scale(counts, h.dtype), *arrays[2:], keep, upstream)
        loss = T.sum_all(T.mul(agg, Tensor(g_agg)))
    tape.backward(loss)
    return out, [h.grad + g_res, x.grad, *g_params]


def _update_args(**shapes):
    """Arguments of a node update of 3 rows of width 2 and hidden width 4,
    after 2 edges, with the shape of any of them replaced."""
    shapes = {"h": (3, 2), "x": (2, 2), "scale": (3, 1), "w1": (2, 4), "b1": (4,),
              "w2": (4, 2), "b2": (2,), "gain": (2,), "bias": (2,), **shapes}
    return {name: np.ones(shape) if name == "scale" else Tensor(np.ones(shape))
            for name, shape in shapes.items()}


class TestFusedUpdate:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(update_cases())
    def test_matches_the_composed_chain(self, case):
        got_out, got_grads = _update_value_and_grads(*case)
        want_out, want_grads = _reference_value_and_grads(*case)
        dtype = case[2][0].dtype
        assert got_out.dtype == dtype and np.array_equal(got_out, want_out)
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for got, want in zip(got_grads, want_grads):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)

    @pytest.mark.parametrize("training", [False, True])
    def test_grads_match_finite_differences(self, training):
        graph = pack_graphs([build_dual_graph(random_molecule(Rng(3).fork(i), min_atoms=n,
                                                              max_atoms=n))
                             for i, n in enumerate((1, 5))])
        gen = np.random.default_rng(4)
        arrays = [gen.normal(size=shape) for shape in (
            (6, 3), (graph.num_bonds, 3), (3, 4), (4,), (4, 3), (3,), (3,), (3,))]
        upstream = gen.normal(size=(6, 3))
        scale = np.repeat(1.0 / np.sqrt(graph.atom_counts), graph.atom_counts).reshape(-1, 1)

        def f(h, x, *params):
            rng = BlockRng([Rng(5), Rng(6)], graph.atom_counts)
            out = _fused_update(h, graph.bonds, x, scale, *params, 0.2, rng, training)
            return T.sum_all(T.mul(out, Tensor(upstream)))

        analytic, numeric = grad_of(f, *arrays)
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-4

    @pytest.mark.parametrize("bad", [
        {"x": (3, 3)}, {"x": (2, 2, 1)}, {"h": (2, 2)}, {"scale": (3,)}, {"w1": (3, 4)},
        {"b1": (5,)}, {"w2": (4, 3)}, {"b2": (3,)}, {"gain": (2, 2)}, {"bias": (1,)},
    ], ids=lambda bad: "-".join(f"{k}{v}" for k, v in bad.items()))
    def test_bad_update_shapes_rejected(self, bad):
        a = _update_args(**bad)
        with pytest.raises(ShapeError, match="node_update"):
            T.node_update(a["x"], a["h"], a["scale"], a["w1"], a["b1"], a["w2"], a["b2"],
                          a["gain"], a["bias"], 0.0, None, False)

    @pytest.mark.parametrize("h,x,pairs", [
        ((4, 2), (2, 2), [[0, 1], [1, 2]]),   # more node rows than nodes
        ((3, 2), (3, 2), [[0, 1], [1, 2]]),   # an edge row too many
        ((3, 2), (2, 3), [[0, 1], [1, 2]]),   # edge rows of another width
        ((3, 2), (2, 2), [0, 1]),             # pairs not [E, 2]
        ((3, 2), (2, 2), [[0, 1, 2], [1, 2, 0]]),
    ])
    def test_bad_aggregate_shapes_rejected(self, h, x, pairs):
        with pytest.raises(ShapeError):
            T.aggregate(Tensor(np.ones(h)), T.Edges(np.array(pairs), 3, 2), Tensor(np.ones(x)))

    @pytest.mark.parametrize("name,value,stage", [
        ("b1", -np.inf, "affine in node_update"),      # before the ReLU would hide it
        ("w2", 1e200, "layer_norm in node_update"),    # the variance overflows
        ("h", np.nan, "produced by node_update"),      # the residual
    ])
    def test_non_finite_raises_naming_the_stage(self, name, value, stage):
        a = _update_args()
        a["x"] = Tensor(np.arange(6.0).reshape(3, 2))
        a[name].data.flat[0] = value
        with pytest.raises(NumericalError, match=stage):
            T.node_update(a["x"], a["h"], a["scale"], a["w1"], a["b1"], a["w2"], a["b2"],
                          a["gain"], a["bias"], 0.0, None, False)


def _pair_softmax_ce(logits, labels, weights=None):
    """pair_mlp_cross_entropy on runs of one row each through layers that pass
    the rows through exactly (z / 2 + z / 2 is z, and relu(z) - relu(-z) is
    z): pair (i, i)'s logits are row i of ``logits``, so this is the op's
    softmax cross-entropy, weighted 1/n per row (the mean) unless
    ``weights`` are given."""
    n, c = logits.shape
    weights = np.full(n, 1.0 / n) if weights is None else weights
    eye, zeros = np.eye(c, dtype=logits.dtype), np.zeros((c, 2 * c), dtype=logits.dtype)
    w1 = np.hstack([eye, -eye]) / 2  # each row of the pair (i, i) gives half
    return T.pair_mlp_cross_entropy(logits, np.ones(n, dtype=int), Tensor(w1), Tensor(zeros[0]),
                                    Tensor(np.vstack([eye, -eye])), Tensor(zeros[0, :c]), labels,
                                    weights)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((2, 30))
        loss = _pair_softmax_ce(Tensor(logits), np.array([7, 7]))
        assert loss.item() == pytest.approx(math.log(30.0), abs=1e-12)

    def test_monotone_decrease_with_margin(self):
        losses = []
        for margin in [0.0, 2.0, 5.0, 10.0, 20.0]:
            logits = np.zeros((1, 4))
            logits[0, 1] = margin
            losses.append(_pair_softmax_ce(Tensor(logits), np.array([1])).item())
        assert all(hi > lo for hi, lo in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        loss = _pair_softmax_ce(Tensor(logits), labels)
        assert loss.item() == pytest.approx(softmax_ce_reference(logits, np.eye(5)[labels]), abs=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 6))
        labels = rng.integers(0, 6, size=3)
        analytic, numeric = grad_of(lambda l: _pair_softmax_ce(l, labels), logits)
        assert relative_error(analytic[0], numeric[0]) < 1e-4

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 6), classes=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           weighted=st.booleans())
    def test_labels_match_one_hot_reference(self, rows, classes, seed, weighted):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(rows, classes))
        labels = rng.integers(0, classes, size=rows)
        weights = rng.uniform(0.0, 2.0, size=rows) if weighted else None
        loss = _pair_softmax_ce(Tensor(logits), labels, weights).item()
        one_hot = np.eye(classes)[labels]
        if weighted:  # the weighted sum of each row's own cross-entropy
            want = sum(w * softmax_ce_reference(logits[r : r + 1], one_hot[r : r + 1])
                       for r, w in enumerate(weights))
        else:
            want = softmax_ce_reference(logits, one_hot)
        assert loss == pytest.approx(want, rel=1e-12, abs=1e-12)
        analytic, numeric = grad_of(lambda l: _pair_softmax_ce(l, labels, weights), logits)
        assert relative_error(analytic[0], numeric[0]) < 1e-4

    def test_rejects_bad_targets(self):
        # out of range, negative, non-integer, not 1-D, one per row
        for labels in ([3], [-1], [0.0], [[1]], [0, 1]):
            with pytest.raises(ShapeError):
                _pair_softmax_ce(Tensor(np.zeros((1, 3))), np.array(labels))


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
        out = _pass_through_update(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                                   Tensor(np.zeros((1, 4))))
        assert out.data.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.data.std() == pytest.approx(1.0, rel=1e-4)

    def test_layer_norm_grad_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)

        def f(a, g, b):
            out = _pass_through_update(a, g, b, Tensor(np.zeros((3, 5))))
            return T.sum_all(T.mul(out, out))

        analytic, numeric = grad_of(f, x, gain, bias)
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

    def test_affine_computes_no_gradient_for_a_constant_input(self):
        rng = np.random.default_rng(12)
        x, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        grads = {}
        for requires_grad in (True, False):
            with Tape() as tape:
                T.affine(Tensor(x, requires_grad=requires_grad), w, b)
            [(_, _, grad_fn)] = tape._records
            grads[requires_grad] = grad_fn(g)
        assert grads[True][0] is not None and grads[False][0] is None
        for taped, constant in zip(grads[True][1:], grads[False][1:]):
            np.testing.assert_array_equal(taped, constant)

    def test_gather_concat_grads(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        ids = np.array([0, 2, 2, 1, 3])

        def f(t):
            g = T.gather_rows(t, ids)
            c = T.concat([g, g], axis=1)
            return T.sum_all(T.mul(c, c))

        analytic, numeric = grad_of(f, x)
        assert relative_error(analytic[0], numeric[0]) < 1e-4

    def test_dropout_eval_is_identity(self):
        args = (Tensor(np.random.default_rng(21).normal(size=(3, 4))), Tensor(np.ones(4)),
                Tensor(np.zeros(4)), Tensor(np.zeros((3, 4))))
        eval_out = _pass_through_update(*args, 0.5, None, training=False)
        assert eval_out.data.tobytes() == _pass_through_update(*args).data.tobytes()

    @staticmethod
    def _dropout_of(residual, rate, rng):
        """Train-mode dropout of the residual: zero rows normalise to the zero bias."""
        n, k = residual.shape
        return _pass_through_update(Tensor(np.zeros((n, k))), Tensor(np.ones(k)),
                                    Tensor(np.zeros(k)), residual, rate, rng, True)

    def test_dropout_train_reproducible_and_scaled(self):
        a = self._dropout_of(Tensor(np.ones((8, 8))), 0.5, Rng(42))
        b = self._dropout_of(Tensor(np.ones((8, 8))), 0.5, Rng(42))
        np.testing.assert_array_equal(a.data, b.data)
        assert set(np.unique(a.data)) <= {0.0, 2.0}

    def test_dropout_grad_uses_same_mask(self):
        residual = Tensor(np.ones((4, 4)), requires_grad=True)
        with Tape() as tape:
            out = self._dropout_of(residual, 0.25, Rng(3))
            loss = T.sum_all(out)
        tape.backward(loss)
        np.testing.assert_array_equal(residual.grad, out.data)

    def test_bce_with_logits_values(self):
        logits = Tensor(np.zeros((1, 4)))
        bits = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]]))
        mean = np.full((1, 4), 0.25)
        assert T.bce_with_logits(logits, bits, mean).item() == pytest.approx(math.log(2.0),
                                                                             abs=1e-12)
        strong = Tensor(np.array([[-10.0, 10.0, -10.0, 10.0]]))
        assert T.bce_with_logits(strong, bits, mean).item() < 0.01

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
        # finite rows whose sum overflows
        with pytest.raises(NumericalError, match="segment_sum"):
            T.segment_sum(Tensor([[1e308], [1e308]]), [0, 0], 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "affine", "sum_all"])
    def test_finite_operands_that_overflow_raise_only_numerical_error(self, op):
        """numpy's overflow warning would come first, and under this filter
        it would be what is raised."""
        run = {
            "add": lambda: T.add(Tensor([[1.7e308]]), Tensor([[1.7e308]])),
            "sub": lambda: T.sub(Tensor([[1.7e308]]), Tensor([[-1.7e308]])),
            # inf and -inf: the finite check's own sum is NaN
            "mul": lambda: T.mul(Tensor([[1e200, -1e200]]), Tensor([[1e200, 1e200]])),
            "div": lambda: T.div(Tensor([[1e300]]), Tensor([[1e-300]])),
            "affine": lambda: T.affine(Tensor(np.full((2, 3), 1e200)),
                                       Tensor(np.full((3, 2), 1e200)), Tensor(np.zeros(2))),
            "sum_all": lambda: T.sum_all(Tensor([1.7e308, 1.7e308])),
        }[op]
        with pytest.raises(NumericalError, match=f"^non-finite values produced by {op}$"):
            run()

    def test_gradcheck_random_ops_20_instances(self):
        # every differentiable primitive, 20 random instances, rel err < 1e-4
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.uniform(0.3, 1.5, size=(3, 4))
            w = rng.normal(size=(4, 3))
            ids = rng.integers(0, 3, size=5)

            def f(t, m):
                a = T.relu(T.affine(t, m, Tensor(np.zeros(3))))
                b = T.gather_rows(T.sub(a, 0.5), ids)
                c = T.segment_sum(T.mul(b, b), ids, 3)
                d = T.div(a, T.add(c, 1.0))
                return T.sum_all(T.mul(T.concat([d, c]), T.concat([c, d])))

            analytic, numeric = grad_of(f, x, w)
            assert relative_error(analytic[0], numeric[0]) < 1e-4
            assert relative_error(analytic[1], numeric[1]) < 1e-4
