"""Fits and transforms copy their input once and never write the caller's array."""

import tracemalloc

import numpy as np
import pytest

from imbfault.core import scale_exponent
from imbfault.features import Standardizer
from imbfault.reduction import lda_fit, pca_fit
from imbfault.rng import Pcg32

# Ordinary columns, and columns scaled past 2**±400, so that both the
# per-column and the whole-array exponents are non-zero.
SCALES = {
    "plain": np.ones(6),
    "up": np.ldexp(1.0, [0, 600, 600, 0, 600, 0]),
    "down": np.ldexp(1.0, [-600, -600, -620, -600, -640, -600]),
}


def _rows(m, d, seed):
    return Pcg32(seed).normals(m * d).reshape(m, d)


def _calls(scale=SCALES["plain"]):
    labels = np.array(["a", "b", "c"])[np.arange(90) % 3]
    fitted_on = _rows(90, 6, seed=1) * scale
    std = Standardizer().fit(fitted_on)
    pca, lda = pca_fit(fitted_on, 3), lda_fit(fitted_on, labels)
    return {
        "Standardizer.transform": std.transform,
        "pca.transform": pca.transform,
        "lda.transform": lda.transform,
        "pca_fit": lambda x: pca_fit(x, 3),
        "lda_fit": lambda x: lda_fit(x, labels),
    }


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", _calls())
def test_caller_array_is_never_written(name, scale):
    X = _rows(90, 6, seed=2) * SCALES[scale]
    assert (scale_exponent(X) != 0) == np.any(scale_exponent(X, axis=0)) == (scale != "plain")
    before = X.tobytes()
    _calls(SCALES[scale])[name](X)
    assert X.flags.writeable and X.tobytes() == before


def _traced_peak(call):
    """The bytes `call` allocates at its peak, above what was live before it,
    and its result."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = call()
        return tracemalloc.get_traced_memory()[1] - live, out
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("name", ["Standardizer.transform", "pca.transform", "pca_fit"])
def test_one_working_copy(name):
    """numpy reports its buffers to tracemalloc. Each call's peak is its one
    working copy of the input plus a separate output, with 0.25 of the
    input to spare; a second full-size copy exceeds it."""
    X = _rows(2000, 162, seed=3)
    fitted = {"Standardizer.transform": Standardizer().fit(X).transform,
              "pca.transform": pca_fit(X, 20).transform,
              "pca_fit": lambda x: pca_fit(x, 20)}
    peak, out = _traced_peak(lambda: fitted[name](X))
    # The standardized rows are the working copy itself, not a second buffer.
    separate = 0 if name == "Standardizer.transform" else getattr(out, "nbytes", 0)
    assert peak <= 1.25 * X.nbytes + separate, f"peak {peak / X.nbytes:.2f} x the input"
