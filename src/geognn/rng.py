"""Counter-based pseudo-random numbers (splitmix64).

Every draw is a pure function of (seed, counter), so streams can be
replayed exactly and independent substreams are cheap to derive with
``fork``. All randomness in the package (init, dropout, masking,
shuffling) flows through this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function of every element of the uint64 array z,
    in place: ``_mix64(k)`` is ``_finalize(k + _GOLDEN)``."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _skip(rngs: list["Rng"], rows: np.ndarray, width: int) -> None:
    """Advance each stream ``rngs[i]`` past its next ``rows[i] * width`` draws."""
    for rng, n in zip(rngs, rows.tolist()):
        rng._counter += n * width


def _raw_draws(rngs: list["Rng"], rows, width: int) -> np.ndarray:
    """The next ``rows[i] * width`` raw draws of each stream ``rngs[i]``, as
    an [sum(rows), width] uint64 array whose block i of rows[i] rows comes
    from stream i, row by row; advances each stream past its draws."""
    rows = np.asarray(rows, dtype=np.int64)
    seeds = np.array([rng._seed for rng in rngs], dtype=np.uint64)
    counters = np.array([rng._counter for rng in rngs], dtype=np.uint64)
    _skip(rngs, rows, width)
    # element (j, c) of block i, whose first row is s[i], is draw
    # k = counters[i] + (j - s[i]) * width + c + 1 of stream i, that is
    # _finalize(seed + (k + 1) * golden); all in uint64 arrays, which wrap
    # as _mix64's masks do
    g, w = np.uint64(_GOLDEN), np.uint64(width)
    starts = (np.cumsum(rows) - rows).astype(np.uint64)
    row_key = np.repeat(seeds + (counters + np.uint64(2) - starts * w) * g, rows)
    row_key += np.arange(row_key.size, dtype=np.uint64) * w * g
    return _finalize(row_key[:, None] + np.arange(width, dtype=np.uint64) * g)


class _ArrayDraws:
    """Arrays of draws from the raw 64-bit draws ``_draws(shape)`` gives."""

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Uniform in [lo, hi), from the top 53 bits of each raw draw."""
        u = (self._draws(shape) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + (hi - lo) * u

    def keep_mask(self, shape, rate: float) -> np.ndarray:
        """``uniform_array(shape) >= rate`` for a rate in [0, 1), compared in
        integers: rate * 2**53 is exact, so u = (raw >> 11) * 2**-53 >= rate
        exactly when raw >> 11 >= t = ceil(rate * 2**53), that is, when
        raw >= t << 11 (t < 2**53, so the shift does not overflow)."""
        return self._draws(shape) >= np.uint64(math.ceil(rate * 2.0**53) << 11)


class Rng(_ArrayDraws):
    """Deterministic random stream; value i depends only on (seed, i)."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, tag: int | str) -> "Rng":
        """Derive an independent child stream; same tag, same child."""
        if isinstance(tag, str):
            h = 0
            for byte in tag.encode("utf-8"):
                h = _mix64(h ^ byte)
        else:
            h = _mix64(int(tag) & _MASK64)
        return Rng(_mix64(self._seed ^ h))

    def next_u64(self) -> int:
        self._counter += 1
        return _mix64((self._seed + self._counter * _GOLDEN) & _MASK64)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def _draws(self, shape) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        return _raw_draws([self], [1], n).reshape(shape)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ConfigError("upper bound must be positive")
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in draw order."""
        if k > n:
            raise ConfigError("sample size exceeds population")
        return self.permutation(n)[:k]


class BlockRng(_ArrayDraws):
    """Draws for a matrix whose consecutive row blocks each come from their
    own stream: block i has ``rows[i]`` rows and draws from ``rngs[i]``, so
    each block gets exactly the values its stream would give it alone.
    Stands in for an ``Rng`` where only ``uniform_array`` and ``keep_mask``
    are called."""

    def __init__(self, rngs: list[Rng], rows):
        self.rngs = rngs
        self.rows = np.asarray(rows, dtype=np.int64)

    def _draws(self, shape) -> np.ndarray:
        return _raw_draws(self.rngs, self.rows, int(np.prod(shape[1:]))).reshape(shape)

    def skip(self, width: int) -> None:
        """Step each stream past the draws of a matrix ``width`` columns wide,
        without making them: the next draws are those after that matrix's."""
        _skip(self.rngs, self.rows, width)
