import numpy as np
import pytest

from geognn import tensor as T
from geognn.errors import ConfigError
from geognn.rng import BlockRng, Rng


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


@pytest.mark.parametrize(
    "draw",
    [
        lambda: Rng(1).below(0),
        lambda: Rng(1).sample(2, 3),
        lambda: T.dropout(T.Tensor(np.ones((2, 2))), 0.5, None, training=True),
    ],
    ids=["below-zero", "sample-more-than-population", "dropout-without-rng"],
)
def test_impossible_draw_is_a_config_error(draw):
    with pytest.raises(ConfigError):
        draw()
