"""Deterministic random source used by every stochastic component.

The generator is PCG32 (64-bit LCG state, xorshift-rotate output) implemented
directly rather than taken from a library, so the byte stream depends only on
the seed, never on platform or library version. Floats carry 53 random bits,
bounded integers use rejection sampling (no modulo bias), and normals come
from Box-Muller, so every derived draw is reproducible too.

Raw outputs are made in blocks of at most _BLOCK by LCG jump-ahead: state i
of a block is a^i s_0 + c (a^(i-1) + ... + 1) mod 2^64 (Brown, "Random number
generation with arbitrary strides", 1994), from one cumprod of the
multiplier and one cumsum of its powers in wrapping uint64, then put through
the output permutation as one array. Each draw kind has one decoder, and the
scalar draws are one-element batches; tests/test_rng.py checks every draw
against a one-step scalar PCG32. Box-Muller keeps `math.log` and `math.cos`
element by element: numpy's versions differ in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_PCG_MULT = 6364136223846793005
_GOLDEN = 0x9E3779B97F4A7C15

# At most this many outputs per block; it bounds the generator's scratch
# memory (a few uint64 arrays of this length; 32,768 raised the benchmark's
# peak RSS). A refill makes at least _REFILL, so scalar draws share the
# cost of a block.
_BLOCK = 1 << 13
_REFILL = 1 << 10


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uniform(hi, lo):
    """[0, 1) floats from two arrays of raw outputs: 27 + 26 bits."""
    return ((hi >> 5) * 67108864.0 + (lo >> 6)) / 9007199254740992.0


def _limit(n):
    """Raw outputs at or above this are rejected by a draw bounded by n;
    every bound must be at least 1."""
    if (np.asarray(n) <= 0).any():
        raise ValueError("randint needs n >= 1")
    return (1 << 32) - (1 << 32) % n


class Pcg32:
    """PCG32 stream. Same (seed, seq) -> identical outputs everywhere.

    A stream is single-owner: parallel work derives independent child
    streams via :meth:`child` instead of sharing one instance.
    """

    def __init__(self, seed: int, seq: int = 0):
        self.seed = int(seed) & _MASK64
        self.seq = int(seq) & _MASK64
        self._inc = ((self.seq << 1) | 1) & _MASK64
        # PCG32's seeding: step from 0, add the seed, step again.
        self._state = ((self._inc + self.seed) * _PCG_MULT + self._inc) & _MASK64
        self._buf = np.empty(0, dtype=np.uint32)     # made, not yet consumed
        self._pos = 0

    def _block(self, k: int) -> np.ndarray:
        """The next k <= _BLOCK raw outputs after those in the buffer."""
        # a^i and a^i + ... + a + 1 for i = 0..k, wrapping mod 2^64.
        powers = np.full(k + 1, _PCG_MULT, dtype=np.uint64)
        powers[0] = 1
        np.cumprod(powers, out=powers)
        geo = np.cumsum(powers)
        s, c = self._state, self._inc
        states = powers[:k] * np.uint64(s)
        states[1:] += geo[:k - 1] * np.uint64(c)
        self._state = (int(powers[k]) * s + int(geo[k - 1]) * c) & _MASK64
        xorshifted = (((states >> 18) ^ states) >> 27).astype(np.uint32)
        rot = (states >> 59).astype(np.uint32)
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))

    def _peek(self, m: int) -> np.ndarray:
        """The next m raw outputs, without consuming them."""
        if self._pos + m > len(self._buf):
            parts = [self._buf[self._pos:]]
            have = len(parts[0])
            while have < m:
                k = min(_BLOCK, max(m - have, _REFILL))
                parts.append(self._block(k))
                have += k
            self._buf = np.concatenate(parts)
            self._pos = 0
        return self._buf[self._pos:self._pos + m]

    def _take(self, m: int) -> np.ndarray:
        """The next m raw outputs, consumed."""
        out = self._peek(m)
        self._pos += m
        return out

    def random(self) -> float:
        """Uniform float64 in [0, 1) built from 53 random bits."""
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n draws of :meth:`random`."""
        out = np.empty(n)
        for start in range(0, n, _BLOCK // 2):
            raw = self._take(2 * min(_BLOCK // 2, n - start))
            out[start:start + len(raw) // 2] = _uniform(raw[0::2], raw[1::2])
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias.
        n = 1 consumes nothing."""
        return int(self.randints([n])[0])

    def randints(self, bounds) -> np.ndarray:
        """One :meth:`randint` per entry of `bounds`, in order."""
        bounds = np.asarray(bounds, dtype=np.int64).ravel()
        limit = _limit(bounds)
        out = np.zeros(len(bounds), dtype=np.int64)
        live = np.flatnonzero(bounds > 1)
        need, limit = bounds[live], limit[live]
        done = 0
        while done < len(live):
            raw = self._take(min(_BLOCK, len(live) - done))
            used = 0
            # Output `used` goes to draw `done` until a rejection; the draw
            # that rejected takes the next output, so the rest shift by one.
            while used < len(raw):
                end = done + len(raw) - used
                rejected = np.flatnonzero(raw[used:] >= limit[done:end])
                ok = rejected[0] if len(rejected) else len(raw) - used
                out[live[done:done + ok]] = raw[used:used + ok] % need[done:done + ok]
                done += ok
                used += ok + (ok < len(raw) - used)
        return out

    def draws(self, count: int, *kinds) -> list:
        """`count` rows of draws, made row by row as the scalar calls would
        make them; one array per kind, in the order given.

        A kind of None draws :meth:`random`, an int n draws randint(n), and a
        callable draws randint of the bound it returns for the row's earlier
        columns (it is called on arrays and must work elementwise).
        """
        cols = [np.empty(count, dtype=float if k is None else np.int64) for k in kinds]
        width = sum(2 if k is None else 1 for k in kinds)   # outputs per row, no rejection
        done, spare = 0, 64
        while done < count:
            raw = self._peek(min(_BLOCK, width * (count - done)) + spare)
            # Decode a row starting at every output; then follow the rows
            # actually made from the first, each starting where the last ended.
            values, ends = _rows_at_each_offset(raw, kinds)
            starts, at = [], 0
            ends_list = ends.tolist()
            while done + len(starts) < count and at < len(raw) and ends_list[at] <= len(raw):
                starts.append(at)
                at = ends_list[at]
            if not starts:          # one row outran the spare outputs
                spare *= 2
                continue
            for col, vals in zip(cols, values):
                col[done:done + len(starts)] = vals[starts]
            done += len(starts)
            self._pos += at
        return cols

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle."""
        swaps = self.randints(np.arange(len(arr), 1, -1)).tolist()
        items = list(arr)
        for i, j in zip(range(len(arr) - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]
        arr[:] = items

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n Box-Muller normals, mu + sigma * z, each from two uniforms."""
        z = np.empty(n)
        step = _BLOCK // 4
        for start in range(0, n, step):
            u = self.uniforms(2 * min(step, n - start))
            u1 = (1.0 - u[0::2]).tolist()     # shifted into (0, 1] so the log is finite
            angle = (2.0 * math.pi * u[1::2]).tolist()
            z[start:start + len(u1)] = (np.sqrt(-2.0 * np.array(list(map(math.log, u1))))
                                        * np.array(list(map(math.cos, angle))))
        return mu + sigma * z

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One draw of :meth:`normals`."""
        return float(self.normals(1, mu, sigma)[0])

    def child(self, key: int) -> "Pcg32":
        """Independent stream derived from (seed, key); used to split work."""
        mixed = _splitmix64(self.seed ^ ((int(key) + 1) * _GOLDEN & _MASK64))
        return Pcg32(mixed, seq=int(key) + 1)


def _rows_at_each_offset(raw: np.ndarray, kinds):
    """For a row of `kinds` (see Pcg32.draws) starting at each output of
    `raw`: its drawn values, one array per kind, and the offset just past it.
    Rows that run past the end of `raw` get an end beyond it."""
    n = len(raw)
    pos = np.arange(n)
    values = []
    for kind in kinds:
        if kind is None:
            values.append(_uniform(raw[np.minimum(pos, n - 1)], raw[np.minimum(pos + 1, n - 1)]))
            pos = pos + 2
            continue
        bound = np.broadcast_to(np.asarray(kind(*values) if callable(kind) else kind,
                                           dtype=np.int64), (n,))
        live = bound > 1
        limit = _limit(bound)
        while True:
            v = raw[np.minimum(pos, n - 1)]
            rejected = live & (v >= limit) & (pos < n)
            if not rejected.any():
                break
            pos = pos + rejected
        values.append(np.where(live, v % bound, 0))
        pos = pos + live
    return values, pos
