"""The block generator against the one-step PCG32 it replaces.

ScalarPcg32 is the reference: it steps the LCG once per output, as PCG32's
published C code does. Every draw of imbfault.rng.Pcg32 must give the same
values and leave the stream at the same place.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbfault.rng import Pcg32

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_PCG_MULT = 6364136223846793005
_GOLDEN = 0x9E3779B97F4A7C15
BIG = 2**31 + 1          # rejects (2^32 mod BIG) / 2^32, nearly half, of its outputs


def _splitmix64(x):
    x = (x + _GOLDEN) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class ScalarPcg32:
    """One LCG step per output; same seeding, draws and child streams."""

    def __init__(self, seed, seq=0):
        self.seed = int(seed) & _MASK64
        self.seq = int(seq) & _MASK64
        self._inc = ((self.seq << 1) | 1) & _MASK64
        self._state = 0
        self._next_u32()
        self._state = (self._state + self.seed) & _MASK64
        self._next_u32()

    def _next_u32(self):
        old = self._state
        self._state = (old * _PCG_MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def random(self):
        hi = self._next_u32() >> 5
        lo = self._next_u32() >> 6
        return (hi * 67108864.0 + lo) / 9007199254740992.0

    def uniforms(self, n):
        return np.array([self.random() for _ in range(n)], dtype=float)

    def randint(self, n):
        if n == 1:
            return 0
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            v = self._next_u32()
            if v < limit:
                return v % n

    def randints(self, bounds):
        return np.array([self.randint(int(b)) for b in bounds], dtype=np.int64)

    def draws(self, count, *kinds):
        rows = []
        for _ in range(count):
            row = []
            for kind in kinds:
                if kind is None:
                    row.append(self.random())
                else:
                    row.append(self.randint(int(kind(*row) if callable(kind) else kind)))
            rows.append(row)
        return [np.array([r[j] for r in rows], dtype=float if k is None else np.int64)
                for j, k in enumerate(kinds)]

    def shuffle(self, arr):
        for i in range(len(arr) - 1, 0, -1):
            j = self.randint(i + 1)
            arr[i], arr[j] = arr[j], arr[i]

    def normal(self, mu=0.0, sigma=1.0):
        u1 = 1.0 - self.random()
        u2 = self.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)], dtype=float)

    def child(self, key):
        mixed = _splitmix64(self.seed ^ ((int(key) + 1) * _GOLDEN & _MASK64))
        return ScalarPcg32(mixed, seq=int(key) + 1)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.astype(a.dtype).tobytes()


def bound_of(*cols):
    """A bound from the row's last column, 1 to 3: 1 draws nothing."""
    return 1 + np.floor(np.asarray(cols[-1], dtype=float) * 7).astype(np.int64) % 3


KIND = st.sampled_from([None, 1, 6, BIG, "f"])
LAYOUT = st.lists(KIND, min_size=1, max_size=4).map(
    lambda ks: [None if k == "f" and i == 0 else bound_of if k == "f" else k
                for i, k in enumerate(ks)])
OPS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniforms"), st.integers(0, 40)),
    st.tuples(st.just("normals"), st.integers(0, 20)),
    st.tuples(st.just("normal"), st.floats(-3, 3), st.floats(0.1, 3)),
    st.tuples(st.just("randint"), st.sampled_from([1, 6, BIG])),
    st.tuples(st.just("randints"), st.lists(st.sampled_from([1, 2, 6, BIG]), max_size=30)),
    st.tuples(st.just("draws"), st.integers(0, 30), LAYOUT),
    st.tuples(st.just("shuffle"), st.integers(0, 20)),
    st.tuples(st.just("child"), st.integers(0, 5)),
)


def apply(rng, op):
    name, *args = op
    if name == "shuffle":
        arr = np.arange(args[0])
        rng.shuffle(arr)
        return arr
    if name == "child":
        return rng.child(args[0]).uniforms(3)
    if name == "draws":
        return getattr(rng, name)(args[0], *args[1])
    return getattr(rng, name)(*args)


class TestAgainstScalar:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, _MASK64), seq=st.integers(0, 3),
           ops=st.lists(OPS, max_size=12))
    def test_interleaved_draws(self, seed, seq, ops):
        fast, ref = Pcg32(seed, seq), ScalarPcg32(seed, seq)
        for op in ops:
            got, want = apply(fast, op), apply(ref, op)
            if isinstance(want, list):
                assert len(got) == len(want) and all(map(same, want, got)), op
            else:
                assert same(want, got), op
        assert fast._take(1)[0] == ref._next_u32()

    def test_reference_vector_through_blocks(self):
        # Published pcg32 outputs for initstate=42, initseq=54, taken as one block.
        expected = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]
        assert Pcg32(42, 54)._take(6).tolist() == expected

    @pytest.mark.parametrize("seed, digest", [
        (0, "8018a641b50c18bcf13bf8aba3110cdb2d2d77a6afc99bafcf7a699e36fdbda9"),
        (42, "5e3523eb8b9330173c5f760fa1027fa918fa6273bf2cedb873c1923b4b0c5819"),
        (2**64 - 1, "4666d8a71f3bc04731f49161bd32a6970813f6a71fffca67f41ec8cbecb94932"),
    ])
    def test_first_million_outputs_pinned(self, seed, digest):
        # Digests of the scalar generator's first 1,000,000 outputs, as
        # little-endian uint32.
        raw = Pcg32(seed)._take(1_000_000).astype("<u4")
        assert hashlib.sha256(raw.tobytes()).hexdigest() == digest

    def test_batches_across_blocks(self):
        fast, ref = Pcg32(5), ScalarPcg32(5)
        assert same(ref.normals(20_000), fast.normals(20_000))
        assert same(ref.randints([BIG] * 40_000), fast.randints([BIG] * 40_000))
        assert all(map(same, ref.draws(12_000, None, BIG, bound_of),
                       fast.draws(12_000, None, BIG, bound_of)))
        assert same(ref.uniforms(70_000), fast.uniforms(70_000))
        assert fast._take(1)[0] == ref._next_u32()

    @pytest.mark.parametrize("bad", [[0], [3, -1]])
    def test_nonpositive_bounds_refused(self, bad):
        rng = Pcg32(1)
        with pytest.raises(ValueError, match="n >= 1"):
            rng.randints(bad)
        with pytest.raises(ValueError, match="n >= 1"):
            rng.draws(2, None, bad[-1])
        with pytest.raises(ValueError, match="n >= 1"):
            rng.draws(2, None, lambda u: np.full(np.shape(u), bad[-1]))
        assert rng.random() == Pcg32(1).random()   # a refused draw consumes nothing
