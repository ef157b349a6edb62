"""Seeded pseudo-randomness and a rounding-safe ``ceil(fraction * n)``.

Everything downstream (data splits, weight init, bag sampling, the
synthetic generator) draws from :class:`Rng`, so the generator algorithm
and its constants are part of the on-disk compatibility story and must
never change.
"""

from __future__ import annotations

import math
from typing import MutableSequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# SplitMix64 (Steele, Lea & Flood 2014). GAMMA is the 64-bit golden
# ratio increment; MIX1/MIX2 are the finalizer multipliers. Fixed
# forever: seeded streams are covered by golden-value tests.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output finalizer: a 64-bit avalanche permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *salts: int) -> int:
    """Fold integer salts into a seed, producing a decorrelated seed.

    Used to give each consumer (weight init, bag sampling, synthetic
    direction, ...) its own named substream of a single user seed.
    """
    z = mix64((seed + _GAMMA) & _MASK64)
    for salt in salts:
        z = mix64(z ^ mix64((salt + _GAMMA) & _MASK64))
    return z


class Rng:
    """Counter-based SplitMix64 generator.

    Output n of seed s is ``mix64(s + n * GAMMA mod 2**64)`` for n >= 1,
    so a block of draws can be produced with vectorised uint64 math and
    is bit-identical to the same number of sequential draws.

    Single-owner: one instance must not be shared across concurrent
    callers, the counter is plain mutable state.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    @property
    def state(self) -> int:
        """The counter: ``Rng(rng.state)`` continues this stream."""
        return self._state

    def skip(self, n: int) -> None:
        """Advance past ``n`` draws without computing them."""
        if n < 0:
            raise ValueError(f"skip count must be >= 0, got {n}")
        self._state = (self._state + n * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def u64_block(self, n: int) -> np.ndarray:
        """The next ``n`` raw draws as uint64, identical to ``n``
        successive :meth:`next_u64` calls."""
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        t = np.empty_like(z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=t)
            z *= np.uint64(mult)
        z ^= np.right_shift(z, np.uint64(31), out=t)
        self.skip(n)
        return z

    def uniform(self) -> float:
        """One draw from [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_block(self, n: int) -> np.ndarray:
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gauss_block(self, n: int) -> np.ndarray:
        """``n`` standard normal draws via Box-Muller on consecutive
        uniform pairs. Odd ``n`` still consumes a full final pair and
        discards its sine half, keeping the stream position a pure
        function of the draw count.
        """
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        pairs = (n + 1) // 2
        bits = self.u64_block(2 * pairs)
        bits >>= np.uint64(11)
        # Contiguous halves, so log1p, cos and sin see the same memory
        # layout, hence the same kernels and bits, as whole arrays would.
        r = bits[0::2].astype(np.float64)
        theta = bits[1::2].astype(np.float64)
        # 1 - u1 is in (0, 1], so the log is finite.
        r *= 2.0**-53
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0**-53
        theta *= 2.0 * math.pi
        out = np.empty(2 * pairs)
        np.multiply(r, np.cos(theta), out=out[0::2])
        np.multiply(r, np.sin(theta, out=theta), out=out[1::2])
        return out[:n]

    def bounded_int(self, n: int) -> int:
        """Uniform integer in [0, n). Plain modulo reduction: the bias
        is below n / 2**64, irrelevant for index-scale n."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        return self.next_u64() % n

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, drawing from the top down."""
        n = len(items)
        # Draw d is bounded_int(n - d): all n - 1 draws in one block.
        draws = self.u64_block(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
            items[i], items[j] = items[j], items[i]


def ceil_frac(fraction: float, n: int) -> int:
    """``ceil(fraction * n)`` guarded against the product landing one
    ulp above an exact integer (0.07 * 100 == 7.000000000000001)."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if not (fraction >= 0.0 and math.isfinite(fraction)):
        raise ValueError(f"fraction must be >= 0 and finite, got {fraction}")
    return max(0, math.ceil(fraction * n * (1.0 - 1e-12)))


__all__ = ["Rng", "ceil_frac", "derive", "mix64"]
