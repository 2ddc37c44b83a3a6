"""Deterministic random source used by every stochastic component.

The generator is PCG32 (64-bit LCG state, xorshift-rotate output) implemented
directly rather than taken from a library, so the byte stream depends only on
the seed, never on platform or library version. Floats carry 53 random bits,
bounded integers use rejection sampling (no modulo bias), and normals come
from Box-Muller, so every derived draw is reproducible too.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_PCG_MULT = 6364136223846793005
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Pcg32:
    """PCG32 stream. Same (seed, seq) -> identical outputs everywhere.

    A stream is single-owner: parallel work derives independent child
    streams via :meth:`child` instead of sharing one instance.
    """

    def __init__(self, seed: int, seq: int = 0):
        self.seed = int(seed) & _MASK64
        self.seq = int(seq) & _MASK64
        self._inc = ((self.seq << 1) | 1) & _MASK64
        self._state = 0
        self._next_u32()
        self._state = (self._state + self.seed) & _MASK64
        self._next_u32()

    def _next_u32(self) -> int:
        old = self._state
        self._state = (old * _PCG_MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def random(self) -> float:
        """Uniform float64 in [0, 1) built from 53 random bits."""
        hi = self._next_u32() >> 5    # 27 bits
        lo = self._next_u32() >> 6    # 26 bits
        return (hi * 67108864.0 + lo) / 9007199254740992.0

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.random() for _ in range(n)], dtype=float)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        if n == 1:
            return 0
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            v = self._next_u32()
            if v < limit:
                return v % n

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(arr) - 1, 0, -1):
            j = self.randint(i + 1)
            arr[i], arr[j] = arr[j], arr[i]

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        # Box-Muller; u1 shifted into (0, 1] so the log is finite.
        u1 = 1.0 - self.random()
        u2 = self.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=float)

    def child(self, key: int) -> "Pcg32":
        """Independent stream derived from (seed, key); used to split work."""
        mixed = _splitmix64(self.seed ^ ((int(key) + 1) * _GOLDEN & _MASK64))
        return Pcg32(mixed, seq=int(key) + 1)


def seeded_rng(seed: int) -> Pcg32:
    """Canonical constructor for the package-wide random source."""
    return Pcg32(seed)
