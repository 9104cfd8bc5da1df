import numpy as np
import pytest

from geognn import tensor as T
from geognn.errors import ConfigError
from geognn.rng import BlockRng, Rng, _ArrayDraws


def test_stream_is_reproducible():
    a = [Rng(123).next_u64() for _ in range(5)]
    b = [Rng(123).next_u64() for _ in range(5)]
    assert a == b


def test_scalar_and_array_draws_agree():
    r1, r2 = Rng(7), Rng(7)
    scalars = [r1.uniform() for _ in range(10)]
    np.testing.assert_array_equal(scalars, r2.uniform_array(10))


def test_fork_streams_are_stable_and_distinct():
    root = Rng(99)
    assert root.fork("mask").seed == Rng(99).fork("mask").seed
    assert root.fork("mask").seed != root.fork("init").seed
    assert root.fork(0).seed != root.fork(1).seed


def test_uniform_range_and_spread():
    vals = Rng(5).uniform_array(2000, -2.0, 3.0)
    assert vals.min() >= -2.0 and vals.max() < 3.0
    assert abs(vals.mean() - 0.5) < 0.2


def test_permutation_and_sample():
    perm = Rng(11).permutation(20)
    assert sorted(perm.tolist()) == list(range(20))
    picked = Rng(11).sample(10, 4)
    assert len(set(picked.tolist())) == 4


def test_block_draws_equal_each_stream_alone():
    # block i of each draw is what rngs[i] alone gives for its rows, and
    # every stream advances as if it had drawn alone; empty blocks included
    rows = [3, 0, 5, 1]
    blocked = [Rng(2**63 + i).fork("dropout") for i in range(4)]
    alone = [Rng(2**63 + i).fork("dropout") for i in range(4)]
    blocked[0].uniform_array(2), alone[0].uniform_array(2)
    for width in (4, 1, 7):
        got = BlockRng(blocked, rows).uniform_array((sum(rows), width))
        want = np.concatenate([r.uniform_array((n, width)) for r, n in zip(alone, rows)])
        np.testing.assert_array_equal(got, want)
    assert [r.next_u64() for r in blocked] == [r.next_u64() for r in alone]


RATES = [2**-60, 0.2, 0.5, 1 - 2**-53]


@pytest.mark.parametrize("rate", RATES)
def test_keep_mask_is_uniform_draw_at_least_rate(rate):
    # the same mask as the float test, and every stream advances as far;
    # blocks of 0 rows included, and a draw of 0 rows in all
    for rows in ([3, 0, 5, 1, 0], [0, 0]):
        masked = [Rng(2**63 + i).fork("dropout") for i in range(len(rows))]
        drawn = [Rng(2**63 + i).fork("dropout") for i in range(len(rows))]
        for width in (4, 1, 7):
            got = BlockRng(masked, rows).keep_mask((sum(rows), width), rate)
            want = BlockRng(drawn, rows).uniform_array((sum(rows), width)) >= rate
            assert got.dtype == bool and np.array_equal(got, want)
        assert [r.next_u64() for r in masked] == [r.next_u64() for r in drawn]
    alone, drawn = Rng(7), Rng(7)
    assert np.array_equal(alone.keep_mask((6, 5), rate), drawn.uniform_array((6, 5)) >= rate)
    assert alone.next_u64() == drawn.next_u64()


class _FixedDraws(_ArrayDraws):
    def __init__(self, raw):
        self.raw = raw

    def _draws(self, shape):
        return self.raw.reshape(shape)


@pytest.mark.parametrize("rate", RATES)
def test_keep_mask_agrees_at_the_threshold(rate):
    # raw draws on either side of the smallest kept one, t << 11
    t = int(np.ceil(rate * 2.0**53))
    draws = _FixedDraws(np.array([0, ((t - 1) << 11) | 0x7FF, t << 11, (t << 11) + 1, 2**64 - 1],
                                 dtype=np.uint64))
    np.testing.assert_array_equal(draws.keep_mask(5, rate), draws.uniform_array(5) >= rate)
    assert draws.keep_mask(5, rate).tolist() == [False, False, True, True, True]


@pytest.mark.parametrize(
    "draw",
    [
        lambda: Rng(1).below(0),
        lambda: Rng(1).sample(2, 3),
        lambda: T.dropout(T.Tensor(np.ones((2, 2))), 0.5, None, training=True),
        lambda: T.node_update(*(T.Tensor(np.ones(s)) for s in ((2, 2), (2, 2))), np.ones((2, 1)),
                              *(T.Tensor(np.ones(s)) for s in ((2, 3), 3, (3, 2), 2, 2, 2)),
                              0.5, None, training=True),
    ],
    ids=["below-zero", "sample-more-than-population", "dropout-without-rng",
         "node-update-without-rng"],
)
def test_impossible_draw_is_a_config_error(draw):
    with pytest.raises(ConfigError):
        draw()
