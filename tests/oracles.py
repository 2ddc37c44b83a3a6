"""Scalar reference implementations shared by the module tests and the
acceptance gate. Each is written directly from its definition, independent
of the library code it checks."""

import math

import numpy as np
import scipy.linalg

from imbfault.core import FaultEvent


def knn_oracle(query, pool, k):
    """Exhaustive sort by (distance, index)."""
    scored = sorted((np.linalg.norm(p - query), i) for i, p in enumerate(pool))
    return [i for _, i in scored[:k]]


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
