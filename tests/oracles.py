"""Scalar reference implementations shared by the module tests and the
acceptance gate. Each is written directly from its definition, independent
of the library code it checks."""

import csv
import math

import numpy as np
import scipy.linalg

from imbfault.core import FaultEvent


def scale_exponent_oracle(*arrays, axis=None):
    """core.scale_exponent as it was with a Python-float branch for the
    scalar form: math.frexp of the largest |coordinate|."""
    if axis is None:
        top = max(max(x.max(initial=0.0), -x.min(initial=0.0)) for x in arrays)
        if top > 0.0 and not 2.0 ** -400 <= top <= 2.0 ** 400:
            return math.frexp(top)[1]
        return 0
    top = np.max([np.maximum(x.max(axis, initial=0.0), -x.min(axis, initial=0.0))
                  for x in arrays], axis=0)
    far = (top > 0.0) & ((top < 2.0 ** -400) | (top > 2.0 ** 400))
    return np.where(far, np.frexp(top)[1], 0)


def knn_oracle(query, pool, k):
    """Exhaustive sort by (distance, index)."""
    scored = sorted((np.linalg.norm(p - query), i) for i, p in enumerate(pool))
    return [i for _, i in scored[:k]]


def nearest_oracle(queries, pool, k, skip_self=False):
    """`(indices, d2, e)`: each query's k nearest pool rows by a stable sort
    of its whole distance row, the squared distances and the exponent e.
    The distances are the quadratic expansion of the rows scaled by 2**-e,
    in one unchunked expression clipped at 0 (a self-search, scaled or not,
    keeps one object for both sides: numpy multiplies a set by its own
    transpose by another BLAS routine); with skip_self, query i is pool row
    i and never its own neighbour."""
    e = int(scale_exponent_oracle(queries, pool))
    a, b = queries, pool
    if e:
        a = np.ldexp(queries, -e)
        b = a if pool is queries else np.ldexp(pool, -e)
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d2 = np.clip(sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T), 0.0, None)
    ranked = d2.copy()
    if skip_self:
        ranked[np.arange(len(a)), np.arange(len(a))] = np.inf
    return np.argsort(ranked, axis=1, kind="stable")[:, :k], d2, e


def average_linkage_oracle(points, cp):
    """O(n^3) agglomeration recomputing every cluster distance from scratch."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 1:
        return [{0}]
    nn = [min(np.linalg.norm(points[i] - points[j]) for j in range(n) if j != i)
          for i in range(n)]
    threshold = cp * sum(nn) / n
    clusters = [{i} for i in range(n)]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = np.mean([np.linalg.norm(points[i] - points[j])
                             for i in clusters[a] for j in clusters[b]])
                if best is None or d < best[0] - 1e-12:
                    best = (d, a, b)
        if best[0] > threshold:
            break
        _, a, b = best
        clusters[a] |= clusters[b]
        del clusters[b]
    return clusters


def lance_williams_oracle(points, cp):
    """Average-linkage cluster labels, numbered by first member, from the
    Lance-Williams update over an active set (Müllner, "Modern hierarchical,
    agglomerative clustering algorithms", 2011): each merge of j into i
    recomputes only the active clusters' distances to i, merged-away rows
    and columns are set to inf, and merging stops at the first pair above
    cp times the mean nearest-neighbour distance or at one cluster."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 1:
        return np.zeros(1, dtype=int)
    points = np.ldexp(points, -int(scale_exponent_oracle(points)))
    cd = np.array([np.linalg.norm(points - p, axis=1) for p in points])
    np.fill_diagonal(cd, np.inf)
    threshold = cp * cd.min(axis=1).sum() / n
    size = np.ones(n)
    active = np.ones(n, dtype=bool)
    members = [[i] for i in range(n)]
    idx = np.arange(n)
    while active.sum() > 1:
        i, j = divmod(int(np.argmin(cd)), n)
        if cd[i, j] > threshold:
            break
        ks = idx[active & (idx != i) & (idx != j)]
        if len(ks):
            merged = (size[i] * cd[i, ks] + size[j] * cd[j, ks]) / (size[i] + size[j])
            cd[i, ks] = merged
            cd[ks, i] = merged
        size[i] += size[j]
        members[i] += members[j]
        active[j] = False
        cd[j, :] = np.inf
        cd[:, j] = np.inf
    labels = np.empty(n, dtype=int)
    for cid, rows in enumerate(sorted((members[i] for i in idx[active]), key=min)):
        labels[rows] = cid
    return labels


def information_weights_oracle(s_min, s_maj, params):
    """The MWMOTE weighting cascade (Barua et al., IEEE TKDE 2014) with its
    information weights on a dense |S_bmaj| x |S_imin| matrix. Every search
    is `nearest_oracle`; a second distance pass gives the closeness factor
    of every (borderline, informative) pair, and a membership mask keeps
    only each borderline row's k3 nearest filtered rows. Returns a dict of
    minf_indices, bmaj_indices, imin_in_minf, nmin (indexing s_imin,
    nearest first), weights and probabilities (uniform when no weight is
    positive)."""
    d = s_min.shape[1]
    minf = bmaj = np.empty(0, dtype=int)
    pooled = np.vstack([s_min, s_maj]) if len(s_maj) else s_min
    k1 = min(params.k1, len(pooled) - 1)
    if k1 >= 1:
        nbrs = nearest_oracle(s_min, pooled, k1, skip_self=True)[0]
        minf = np.flatnonzero((nbrs < len(s_min)).any(axis=1))
    s_minf = s_min[minf]
    if len(s_minf) and len(s_maj):
        bmaj = np.unique(nearest_oracle(s_minf, s_maj, min(params.k2, len(s_maj)))[0])
    s_bmaj = s_maj[bmaj]
    k3 = params.k3 if params.k3 is not None else math.ceil(len(s_min) / 2)
    table = nearest_oracle(s_bmaj, s_minf, min(k3, len(s_minf)))[0]
    imin = np.unique(table)
    nmin = np.searchsorted(imin, table)
    member = np.zeros((len(s_bmaj), len(imin)), dtype=bool)
    member[np.arange(len(s_bmaj))[:, None], nmin] = True
    _, d2, e = nearest_oracle(s_bmaj, s_minf[imin], 0)
    with np.errstate(divide="ignore", over="ignore"):
        recip = 1.0 / (np.ldexp(np.sqrt(d2), e) / d)
    cf = np.minimum(recip, params.cf_th) / params.cf_th * params.cmax
    cf = np.where(member, cf, 0.0)
    row_sums = cf.sum(axis=1, keepdims=True)
    iw = np.divide(cf * cf, row_sums, out=np.zeros_like(cf), where=row_sums > 0)
    weights = iw.sum(axis=0)
    total = weights.sum()
    probs = weights / total if total > 0.0 else np.ones(len(imin)) / len(imin)
    return {"minf_indices": minf, "bmaj_indices": bmaj, "imin_in_minf": imin,
            "nmin": nmin, "weights": weights, "probabilities": probs}


def auc_pair_oracle(y_true, scores, positive):
    """Brute-force concordant / tied pair counting."""
    pos = [s for s, t in zip(scores, y_true) if t == positive]
    neg = [s for s, t in zip(scores, y_true) if t != positive]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def union_sweep_oracle(events):
    """Per-label interval union by sort-and-sweep."""
    by_label = {}
    for ev in events:
        by_label.setdefault(ev.label, []).append((ev.t_start, ev.t_end))
    out = []
    for label in sorted(by_label):
        merged = []
        for s, e in sorted(by_label[label]):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        out += [FaultEvent(s, e, label) for s, e in merged]
    return sorted(out, key=lambda ev: (ev.t_start, ev.t_end, ev.label))


def dense_solve_oracle(mean, cov, ridge, x, missing):
    """Independent route: explicit inverse and index bookkeeping."""
    d = len(mean)
    miss = sorted(missing)
    obs = [i for i in range(d) if i not in miss]
    sig_oo = np.array([[cov[i][j] for j in obs] for i in obs]) + ridge * np.eye(len(obs))
    sig_mo = np.array([[cov[i][j] for j in obs] for i in miss])
    inv = np.linalg.inv(sig_oo)
    delta = np.array([x[j] - mean[j] for j in obs])
    filled = np.array(x, dtype=float)
    est = [mean[i] for i in miss] + sig_mo @ inv @ delta
    for pos, i in enumerate(miss):
        filled[i] = est[pos]
    return filled


def conditional_oracle(model, x, miss, obs):
    """Conditional mean of the missing coordinates of x, one row (d,) or a
    batch (n, d) sharing the missing set; a batch is one solve with n
    right-hand sides. The per-set route: the observed block's own
    (Sigma_OO + ridge*I) system for each missing set."""
    cov = model.covariance
    sig_oo = cov[np.ix_(obs, obs)] + model.ridge * np.eye(obs.size)
    sig_mo = cov[np.ix_(miss, obs)]
    sol = np.linalg.solve(sig_oo, (x[..., obs] - model.mean[obs]).T)
    return model.mean[miss] + (sig_mo @ sol).T


def _split(v):
    """Dekker's split: hi + lo == v, each with at most 26 significant bits,
    so products of halves are exact."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


def _residual(A, X, B):
    """B - A @ X, as accurate as if summed in twice the working precision
    and rounded once: every product is split exactly into two floats
    (Dekker) and the sums carry their rounding errors along (Ogita, Rump and
    Oishi, "Accurate sum and dot product", 2005)."""
    s, c = B.copy(), np.zeros_like(B)
    ah, al = _split(A)
    xh, xl = _split(X)
    for k in range(A.shape[1]):
        a, a_h, a_l = A[:, k, None], ah[:, k, None], al[:, k, None]
        x, x_h, x_l = X[None, k], xh[None, k], xl[None, k]
        p = a * x
        e = ((a_h * x_h - p) + a_h * x_l + a_l * x_h) + a_l * x_l    # a * x == p + e
        t = s - p
        z = t - s
        c += (s - (t - z)) - (p + z) - e
        s = t
    return s + c


def refined_solve_oracle(A, B, steps=2):
    """A^-1 B to about the float64 rounding of the exact result, for cond(A)
    well below 1/eps: float64 solves corrected by residuals accurate far
    past float64 (Wilkinson's iterative refinement)."""
    X = np.linalg.solve(A, B)
    for _ in range(steps):
        X = X + np.linalg.solve(A, _residual(A, X, B))
    return X


def lda_oracle(X, labels):
    """LDA's generalized eigenpairs from scipy.linalg.eigh(S_b, S_w + ridge I),
    largest first, as lda_fit solved them before it whitened by Cholesky: the
    same scatter sums in class order, the ridge 1e-6 * trace(S_w) / d (1e-6
    when the trace is 0), and each eigenvector v has v^T (S_w + ridge I) v = 1."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=object)
    d = X.shape[1]
    mean = X.mean(axis=0)
    sw, sb = np.zeros((d, d)), np.zeros((d, d))
    for c in sorted(set(labels)):
        rows = X[labels == c]
        mu = rows.mean(axis=0)
        sw += (rows - mu).T @ (rows - mu)
        sb += len(rows) * np.outer(mu - mean, mu - mean)
    trace = np.trace(sw)
    ridge = 1e-6 * (trace / d if trace > 0 else 1.0)
    values, vectors = scipy.linalg.eigh(sb, (sw + sw.T) / 2.0 + ridge * np.eye(d))
    return values[::-1], vectors[:, ::-1]


def stats_oracle(x):
    """Direct transcription of the nine statistics, one by one."""
    x = np.asarray(x, dtype=float)
    l = len(x)
    mean = sum(x) / l
    rms = math.hypot(*x) / math.sqrt(l)       # no underflow of tiny squares
    mx, mn = max(x), min(x)
    s = sorted(x)
    med = s[l // 2] if l % 2 else (s[l // 2 - 1] + s[l // 2]) / 2
    rng = mx - mn
    max_abs = max(abs(v) for v in x)
    mean_abs = sum(abs(v) for v in x) / l
    mean_sqrt_sq = (sum(math.sqrt(abs(v)) for v in x) / l) ** 2
    crest = max_abs / rms if rms > 0 else 0.0
    impulse = max_abs / mean_abs if mean_abs > 0 else 0.0
    margin = max_abs / mean_sqrt_sq if mean_sqrt_sq > 0 else 0.0
    return np.array([mean, rms, mx, mn, med, rng, crest, impulse, margin])


def naive_dft_magnitude(x):
    """|DFT| by the defining double sum."""
    x = np.asarray(x, dtype=float)
    l = len(x)
    out = np.empty(l)
    for k in range(l):
        re = sum(x[n] * math.cos(-2 * math.pi * k * n / l) for n in range(l))
        im = sum(x[n] * math.sin(-2 * math.pi * k * n / l) for n in range(l))
        out[k] = math.hypot(re, im)
    return out


# Byte oracles for featurize: the row-layout kernels featurize used before it
# worked on a sample-major copy. Each statistic is a reduction over the last
# axis of a contiguous (..., n) array, so every sum is numpy's own; the
# library must give the same bytes.

_SQRT2, _SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
# Low-pass analysis filters; the high-pass is g_k = (-1)^k h_{L-1-k}.
ORACLE_FILTERS = {
    "haar": [1 / _SQRT2, 1 / _SQRT2],
    "db2": [v / (4 * _SQRT2) for v in (1 + _SQRT3, 3 + _SQRT3, 3 - _SQRT3, 1 - _SQRT3)],
}


def stats_rows_oracle(x):
    """The nine statistics along the last axis: (..., n) -> (..., 9)."""
    x = np.ascontiguousarray(x, dtype=float)
    n = x.shape[-1]
    mx, mn = x.max(axis=-1), x.min(axis=-1)
    buf = np.abs(x)
    max_abs, mean_abs = buf.max(axis=-1), buf.mean(axis=-1)
    mean_sqrt_sq = np.float_power(np.sqrt(buf, out=buf).mean(axis=-1), 2)
    scale = np.ldexp(1.0, np.frexp(max_abs)[1] - 1)
    np.divide(x, scale[..., None], out=buf)
    rms = scale * np.sqrt(np.square(buf, out=buf).mean(axis=-1))
    den = np.stack([rms, mean_abs, mean_sqrt_sq], axis=-1)
    factors = np.divide(max_abs[..., None], den, out=np.zeros_like(den), where=den > 0.0)
    buf[...] = x
    buf.sort(axis=-1)
    median = buf[..., n // 2] if n % 2 else (buf[..., n // 2 - 1] + buf[..., n // 2]) / 2.0
    return np.concatenate([np.stack([x.mean(axis=-1), rms, mx, mn, median, mx - mn], axis=-1),
                           factors], axis=-1)


def wpt_bands_rows_oracle(x, depth, wavelet):
    """Terminal wavelet-packet subbands over the last axis:
    (..., n) -> (..., 2**depth, m), in natural filter-bank order."""
    lo = ORACLE_FILTERS[wavelet]
    hi = [(-1) ** k * lo[len(lo) - 1 - k] for k in range(len(lo))]
    bands = np.asarray(x, dtype=float)[..., None, :]
    for _ in range(depth):
        n = bands.shape[-1]
        half = (n + 1) // 2
        pos = 2 * np.arange(half)
        out = np.zeros(bands.shape[:-1] + (2, half))
        for j in range(len(lo)):
            tap = bands[..., (pos + j) % (2 * half) % n]
            out[..., 0, :] += lo[j] * tap
            out[..., 1, :] += hi[j] * tap
        bands = out.reshape(*out.shape[:-3], -1, half)
    return bands


def featurize_rows_oracle(values, domains, depth, wavelet):
    """featurize's data for (windows, channels, L) values, composed from the
    row-layout kernels: channel-major, domains in canonical order."""
    x = np.ascontiguousarray(values, dtype=float)
    blocks = []
    for domain in domains:
        if domain == "origin":
            blocks.append(x)
        elif domain == "time":
            blocks.append(stats_rows_oracle(x))
        elif domain == "frequency":
            blocks.append(stats_rows_oracle(np.abs(np.fft.fft(x, axis=-1))))
        else:
            bands = stats_rows_oracle(wpt_bands_rows_oracle(x, depth, wavelet))
            blocks.append(bands.reshape(*x.shape[:-1], -1))
    return np.concatenate(blocks, axis=-1).reshape(len(x), -1)


# Byte oracles for the CSV writers. Each formats its own cells as text before
# csv.writer sees them: every float by repr(float(x)), extra cells by str, and
# report cells by report_cell_oracle. The library passes Python values to
# csv.writer instead, and must write the same bytes.

def _write_text_rows_oracle(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def report_cell_oracle(v) -> str:
    """A report cell: bools as 0/1, integers in decimal, floats by repr."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_intervals_oracle(intervals, path):
    _write_text_rows_oracle(path, ("t_start", "t_end", "label"),
                            [[repr(float(iv.t_start)), repr(float(iv.t_end)), iv.label]
                             for iv in intervals])


def write_labeled_oracle(series, path, timestamp_col="timestamp"):
    frame = series.frame
    _write_text_rows_oracle(
        path, [timestamp_col, *frame.channel_names, "label"],
        [[repr(float(t)), *[repr(float(v)) for v in values], label]
         for t, values, label in zip(frame.timestamps, frame.values.T, series.labels)])


def write_feature_oracle(fm, path, extra_columns=None):
    extras = extra_columns or {}
    _write_text_rows_oracle(
        path, [*fm.feature_names, "label", *extras.keys()],
        [[*[repr(float(v)) for v in fm.data[i]], fm.labels[i],
          *[str(col[i]) for col in extras.values()]] for i in range(fm.n_rows)])
