"""Counter-based pseudo-random numbers (splitmix64).

Every draw is a pure function of (seed, counter), so streams can be
replayed exactly and independent substreams are cheap to derive with
``fork``. All randomness in the package (init, dropout, masking,
shuffling) flows through this module.
"""

from __future__ import annotations

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def _uniform(seeds, idx: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Draw idx of the stream (or streams) seeds, mapped to [lo, hi)."""
    with np.errstate(over="ignore"):
        raw = _mix64_array(seeds + idx * np.uint64(_GOLDEN))
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return lo + (hi - lo) * u


class Rng:
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

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _uniform(np.uint64(self._seed), idx, lo, hi).reshape(shape)

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


class BlockRng:
    """Draws for a matrix whose consecutive row blocks each come from their
    own stream: block i has ``rows[i]`` rows and draws from ``rngs[i]``, so
    each block gets exactly the values its stream would give it alone.
    Stands in for an ``Rng`` where only ``uniform_array`` is called."""

    def __init__(self, rngs: list[Rng], rows):
        self.rngs = rngs
        self.rows = np.asarray(rows, dtype=np.int64)

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        counts = self.rows * int(np.prod(shape[1:]))
        seeds = np.array([rng._seed for rng in self.rngs], dtype=np.uint64)
        first = np.array([rng._counter + 1 for rng in self.rngs], dtype=np.uint64)
        for rng, n in zip(self.rngs, counts.tolist()):
            rng._counter += n
        # draw k of block i is draw first[i] + k of stream i
        block_start = np.repeat((np.cumsum(counts) - counts).astype(np.uint64), counts)
        idx = np.arange(counts.sum(), dtype=np.uint64) - block_start + np.repeat(first, counts)
        return _uniform(np.repeat(seeds, counts), idx, lo, hi).reshape(shape)
