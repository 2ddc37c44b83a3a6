"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU's speed drifts over seconds to minutes, and the
operation times drift with it. The run times this kernel just before and
just after every operation and divides the operation's time by the
kernel's. The kernel never calls imbfault, so a change to the library moves
the quotient and the host's speed cancels out of it.

Its work mirrors the operations' own mix: a Python loop over short windows
calling small numpy functions (as feature extraction and the samplers do),
then sorted split searches over arrays of a thousand values (as tree
fitting does).
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Kernel calls per measurement; the measurement is their median, so one
# call that the host interrupts does not move it.
CALLS = 5

_WINDOWS = np.sin(np.arange(400 * 20, dtype=float) * 0.37).reshape(400, 20)
_TAPS = np.array([0.7071067811865476, 0.7071067811865476])
_IDX = (2 * np.arange(10)[:, None] + np.arange(2)[None, :]) % 20
_COLUMNS = np.cos(np.arange(8 * 1000, dtype=float) * 0.61).reshape(8, 1000)
_GRAD = np.sin(np.arange(1000, dtype=float) * 1.3)


def _windows() -> float:
    acc = 0.0
    for x in _WINDOWS:
        s = np.sort(x)
        ax = np.abs(x)
        spec = np.abs(np.fft.fft(x))
        band = x[_IDX] @ _TAPS
        acc += float(x.mean()) + math.sqrt(float(np.mean(x * x))) + float(s[10])
        acc += float(np.sqrt(ax).mean()) + float(spec.max()) + float(band.min())
        acc += float(np.concatenate([s, spec, band])[-1])
    return acc


def _splits() -> float:
    acc = 0.0
    g_total = float(_GRAD.sum())
    for xs in _COLUMNS:
        order = np.argsort(xs, kind="stable")
        gl = np.cumsum(_GRAD[order])[:-1]
        hl = np.arange(1.0, len(xs))
        gains = gl * gl / hl + (g_total - gl) ** 2 / (len(xs) - hl)
        gains[~(xs[order][:-1] < xs[order][1:])] = -np.inf
        acc += float(gains[int(np.argmax(gains))])
    return acc


def kernel() -> float:
    """One call of the reference work; about 0.1 s on a 2023 server core."""
    acc = 0.0
    for _ in range(4):
        acc += _windows()
    for _ in range(40):
        acc += _splits()
    return acc


def measure() -> float:
    """Median seconds of CALLS kernel calls."""
    times = []
    for _ in range(CALLS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
