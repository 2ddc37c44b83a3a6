"""Oversamplers and their shared neighbour/cluster machinery.

Five generators are provided: plain random duplication, SMOTE interpolation,
imputation-based generation (emicil), weighted cluster interpolation
(mwmote) and the weighted imputation sampler (ewmote) that combines the
selection weights of mwmote with the Gaussian imputation generator.

Every neighbour search runs through one brute-force exact search: ties of the
computed squared distance go to the lower row index, so results are
deterministic given (inputs, seed). The squared distances come from the
quadratic expansion, so exact duplicate rows can differ in their last bits
and rank in either order. Selection weights are computed on the table of
each borderline row's k3 nearest filtered rows, from that search's one
distance pass.
Degenerate inputs fall back down a documented ladder instead of failing:
ewmote -> emicil -> random duplication, mwmote -> smote -> random.

Every generator has the signature f(s_min, s_maj, n, params, rng) and
returns only its n synthetic rows; SAMPLERS maps each method name to its
generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, SamplerParams, as_rows, class_distribution, scale_exponent
from .errors import ConfigError, DataError
from .imputation import fit_gaussian, impute_conditional
from .rng import Pcg32


_NEAREST_CELLS = 2**21   # distance cells per chunk of a neighbour search: query rows times pool rows


def _row_chunks(n: int, m: int):
    """Row slices of an (n, m) distance matrix, each of at most
    max(m, _NEAREST_CELLS) cells."""
    step = max(1, _NEAREST_CELLS // max(m, 1))
    return (slice(r, r + step) for r in range(0, n, step))


def _cross_sq_dists(a: np.ndarray, b: np.ndarray):
    """Squared Euclidean distances, shape (len(a), len(b)), of a and b scaled
    by 2**-e, and e, the `scale_exponent` of both; ranks do not change.

    Quadratic expansion instead of a (n, m, d) difference tensor so large
    minority/majority sets stay within memory; clipped at 0 against float
    cancellation. The product `a @ b.T` is one BLAS call, and the rest is
    done in place over row chunks of it, so it is the only full-size array."""
    e = scale_exponent(a, b)
    if e:
        a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d2 = a @ b.T
    for rows in _row_chunks(*d2.shape):
        block = d2[rows]
        block *= 2.0
        np.subtract(sq_a[rows, None] + sq_b, block, out=block)
        np.clip(block, 0.0, None, out=block)
    return d2, e


def _top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries of d2, shape
    (len(d2), k), smallest first; ties go to the lower index.

    Each row keeps the entries at or below its k-th smallest value (found
    by `np.partition`), and on the rows where that value is tied only the
    lowest-index ties that fill k; the k kept entries are then sorted
    stably. That is what `argsort(kind="stable")[:, :k]` gives, without
    sorting whole rows. Rows are selected a chunk at a time; d2 is not
    changed."""
    out = np.empty((len(d2), k), dtype=np.intp)
    for rows in _row_chunks(*d2.shape):
        block = d2[rows]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
        keep = block <= kth
        tied = np.flatnonzero(keep.sum(axis=1) > k)
        if tied.size:
            near, cut = block[tied], kth[tied]
            at_kth = near == cut
            spare = k - (near < cut).sum(axis=1, keepdims=True)
            keep[tied] &= ~at_kth | (np.cumsum(at_kth, axis=1) <= spare)
        cols = np.nonzero(keep)[1].reshape(-1, k)
        by_dist = np.argsort(block[keep].reshape(-1, k), axis=1, kind="stable")
        out[rows] = np.take_along_axis(cols, by_dist, axis=1)
    return out


def _nearest(queries: np.ndarray, pool: np.ndarray, k: int,
             skip_self: bool = False) -> np.ndarray:
    """Indices of each query's k nearest pool rows, shape (len(queries), k),
    nearest first; ties of the computed squared distance go to the lower
    index. With skip_self, query i is pool row i and is never its own
    neighbour."""
    d2, _ = _cross_sq_dists(queries, pool)
    if skip_self:
        own = np.arange(len(queries))
        d2[own, own] = np.inf
    return _top_k(d2, k)


def knn(query, pool, k: int) -> np.ndarray:
    """Indices of the k nearest pool rows to one query row, nearest first;
    ties of the computed squared distance go to the lower index.

    The query must not itself be a pool member when searching within its own
    set; callers exclude it before the call.
    """
    pool = as_rows(pool, "pool")
    query = as_rows([query], "query", pool.shape[1])
    if k < 1:
        raise DataError("k must be >= 1")
    if k > len(pool):
        raise DataError(f"k={k} exceeds pool size {len(pool)}")
    return _nearest(query, pool, k)[0]


def random_oversample(s_min, s_maj, n: int, params: SamplerParams, rng: Pcg32) -> np.ndarray:
    """n exact copies of minority rows, sampled with replacement."""
    s_min = as_rows(s_min, "s_min")
    if len(s_min) == 0:
        raise DataError("cannot oversample an empty minority set")
    return s_min[rng.randints(np.full(n, len(s_min)))]


def smote(s_min, s_maj, n: int, params: SamplerParams, rng: Pcg32) -> np.ndarray:
    """n interpolated rows x + alpha * (z - x), z one of x's params.k minority
    neighbours, alpha uniform in [0, 1)."""
    s_min = as_rows(s_min, "s_min")
    if n == 0:
        return np.empty((0, s_min.shape[1]))
    if len(s_min) < 2:
        warnings.warn("smote needs >= 2 minority rows; falling back to random duplication")
        return random_oversample(s_min, s_maj, n, params, rng)
    k_eff = min(params.k, len(s_min) - 1)
    if k_eff < params.k:
        warnings.warn(f"smote k clipped from {params.k} to {k_eff}")
    nbrs = _nearest(s_min, s_min, k_eff, skip_self=True)
    i, pick, alpha = rng.draws(n, len(s_min), k_eff, None)
    x = s_min[i]
    return x + alpha[:, None] * (s_min[nbrs[i, pick]] - x)


def filtered_minority(s_min, s_maj, k1: int) -> np.ndarray:
    """Indices of minority rows that keep at least one minority row among
    their k1 nearest neighbours in the pooled set (self excluded)."""
    s_min = as_rows(s_min, "s_min")
    s_maj = as_rows(s_maj, "s_maj", s_min.shape[1])
    pooled = np.vstack([s_min, s_maj]) if len(s_maj) else s_min
    k1_eff = min(k1, len(pooled) - 1)
    if k1_eff < 1:
        return np.empty(0, dtype=int)
    nbrs = _nearest(s_min, pooled, k1_eff, skip_self=True)   # minority i is pooled row i
    return np.flatnonzero(np.any(nbrs < len(s_min), axis=1))


def borderline_majority(s_minf, s_maj, k2: int) -> np.ndarray:
    """Sorted unique indices (into s_maj) of the k2 nearest majority rows of
    each filtered minority row."""
    s_minf = as_rows(s_minf, "s_minf")
    s_maj = as_rows(s_maj, "s_maj", s_minf.shape[1])
    if len(s_minf) == 0 or len(s_maj) == 0:
        return np.empty(0, dtype=int)
    k2_eff = min(k2, len(s_maj))
    if k2_eff < k2:
        warnings.warn(f"k2 clipped from {k2} to {k2_eff}")
    return np.unique(_nearest(s_minf, s_maj, k2_eff))


@dataclass(frozen=True)
class WeightedMinoritySet:
    """Informative minority rows with their selection weights.

    Index arrays tie the rows back to the caller's sets: minf_indices
    indexes s_min, bmaj_indices indexes s_maj, imin_in_minf indexes the
    filtered set. nmin[i] indexes s_imin with the k3 nearest-minority rows
    of borderline row i, nearest first; the weights are computed on this
    (|S_bmaj|, k3) table, from the one distance matrix of its search.
    """

    s_imin: np.ndarray
    s_bmaj: np.ndarray
    weights: np.ndarray
    probabilities: np.ndarray
    minf_indices: np.ndarray
    bmaj_indices: np.ndarray
    imin_in_minf: np.ndarray
    nmin: np.ndarray

    def __post_init__(self):
        if len(self.probabilities) and abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise DataError("selection probabilities must sum to 1")

    @property
    def is_empty(self) -> bool:
        return len(self.s_imin) == 0


def selection_probabilities(s_min, s_maj, params: SamplerParams) -> WeightedMinoritySet:
    """Run the weighting cascade: filter noisy minority rows, find borderline
    majority rows, collect the informative minority set and normalize its
    summed information weights into selection probabilities. Empty sets
    pass through the same steps to an empty result."""
    s_min = as_rows(s_min, "s_min")
    d = s_min.shape[1]
    s_maj = as_rows(s_maj, "s_maj", d)

    minf_idx = filtered_minority(s_min, s_maj, params.k1)
    s_minf = s_min[minf_idx]
    bmaj_idx = borderline_majority(s_minf, s_maj, params.k2)
    s_bmaj = s_maj[bmaj_idx]

    k3 = params.k3 if params.k3 is not None else math.ceil(len(s_min) / 2)
    d2, e = _cross_sq_dists(s_bmaj, s_minf)
    table = _top_k(d2, min(k3, len(s_minf)))           # (n_bmaj, k3) into s_minf
    imin_in_minf, nmin = np.unique(table, return_inverse=True)
    nmin = nmin.reshape(table.shape)                   # into s_imin; numpy 1.x returns it flat
    s_imin = s_minf[imin_in_minf]

    # A distance or its reciprocal may be inf (zero or extreme distances), still in order.
    with np.errstate(divide="ignore", over="ignore"):
        dist = np.ldexp(np.sqrt(np.take_along_axis(d2, table, axis=1)), e) / d
        recip = 1.0 / dist
    cf = np.minimum(recip, params.cf_th) / params.cf_th * params.cmax
    row_sums = cf.sum(axis=1, keepdims=True)
    iw = np.divide(cf * cf, row_sums, out=np.zeros_like(cf), where=row_sums > 0)
    weights = np.bincount(nmin.ravel(), weights=iw.ravel())
    total = weights.sum()
    if total <= 0.0 and len(s_imin):
        warnings.warn("no borderline structure: uniform selection probabilities")
        probs = np.full(len(s_imin), 1.0 / len(s_imin))
    else:
        probs = weights / total
    return WeightedMinoritySet(
        s_imin=s_imin, s_bmaj=s_bmaj, weights=weights, probabilities=probs,
        minf_indices=minf_idx, bmaj_indices=bmaj_idx,
        imin_in_minf=imin_in_minf, nmin=nmin,
    )


def agglomerative_clusters(points, cp: float) -> np.ndarray:
    """Average-linkage agglomeration; merging stops once the smallest
    inter-cluster distance exceeds cp times the mean nearest-neighbour
    distance. Returns one cluster id per row, numbered by first member."""
    points = as_rows(points, "points")
    n = len(points)
    if n == 0:
        raise DataError("cannot cluster an empty set")
    if n == 1:
        return np.zeros(1, dtype=int)
    # Exact row differences, so duplicated rows sit at distance 0, of rows
    # scaled clear of over- and underflow: clusters do not depend on scale.
    points = np.ldexp(points, -scale_exponent(points))
    cd = np.array([np.linalg.norm(points - p, axis=1) for p in points])
    np.fill_diagonal(cd, np.inf)
    with np.errstate(over="ignore"):          # an inf threshold merges every row
        threshold = cp * cd.min(axis=1).sum() / n

    size = np.ones(n)
    first = np.arange(n)                       # each row's cluster, by its first member
    while True:
        # The first minimum in row-major order: i <= j, and (0, 0) once one
        # cluster is left, as every entry is then inf.
        i, j = divmod(int(np.argmin(cd)), n)
        if i == j or cd[i, j] > threshold:
            break
        # Lance-Williams average-linkage update, merging j into i, on whole
        # rows: the inf entries of the diagonal and of merged clusters stay inf.
        merged = (size[i] * cd[i] + size[j] * cd[j]) / (size[i] + size[j])
        cd[i] = merged
        cd[:, i] = merged
        cd[j] = np.inf
        cd[:, j] = np.inf
        size[i] += size[j]
        first[first == j] = i
    return np.unique(first, return_inverse=True)[1]


def _draw_base(cum: np.ndarray, u):
    """Inverse-CDF index (or array of indices) for uniform draw(s) u from
    cumulative selection probabilities."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)


def _impute_each(s_min: np.ndarray, rows: np.ndarray, attrs: np.ndarray,
                 ridge: float) -> np.ndarray:
    """rows[t] with attribute attrs[t] filled by the conditional mean of the
    Gaussian fitted on s_min: one call, so one solve, for every row. Fit and
    fill run on rows scaled clear of over- and underflow, and the result is
    scaled back."""
    e = scale_exponent(s_min)
    model = fit_gaussian(np.ldexp(s_min, -e), ridge)
    return np.ldexp(impute_conditional(model, np.ldexp(rows, -e), attrs[:, None]), e)


def mwmote(s_min, s_maj, n: int, params: SamplerParams, rng: Pcg32) -> np.ndarray:
    """n synthetic rows interpolated between a weighted base sample and a
    uniform partner from the base's filtered-minority cluster."""
    s_min = as_rows(s_min, "s_min")
    d = s_min.shape[1]
    s_maj = as_rows(s_maj, "s_maj", d)
    if n == 0:
        return np.empty((0, d))
    if len(s_min) < 2:
        warnings.warn("mwmote needs >= 2 minority rows; falling back to random duplication")
        return random_oversample(s_min, s_maj, n, params, rng)
    wset = selection_probabilities(s_min, s_maj, params)
    if wset.is_empty:
        warnings.warn("mwmote found no informative minority rows; falling back to smote")
        return smote(s_min, s_maj, n, params, rng)
    s_minf = s_min[wset.minf_indices]
    clusters = agglomerative_clusters(s_minf, params.cp)
    cum = np.cumsum(wset.probabilities)
    # Cluster members in index order, grouped by cluster: the partner pool
    # of a base in cluster c is by_cluster[first[c]:first[c] + sizes[c]].
    by_cluster = np.argsort(clusters, kind="stable")
    sizes = np.bincount(clusters)
    first = np.cumsum(sizes) - sizes

    def base_of(u):
        return wset.imin_in_minf[_draw_base(cum, u)]

    # Per row: a uniform picks the base, a bounded draw its partner (none
    # when the pool is the base alone), a uniform the interpolation point.
    u, pick, alpha = rng.draws(n, None, lambda u: sizes[clusters[base_of(u)]], None)
    base = base_of(u)
    x = s_minf[base]
    z = s_minf[by_cluster[first[clusters[base]] + pick]]
    return x + alpha[:, None] * (z - x)


def emicil(s_min, s_maj, n: int, params: SamplerParams, rng: Pcg32) -> np.ndarray:
    """n rows built by masking one uniformly chosen attribute of a uniformly
    chosen minority row and filling it with the conditional Gaussian mean."""
    s_min = as_rows(s_min, "s_min")
    d = s_min.shape[1]
    if n == 0:
        return np.empty((0, d))
    if len(s_min) < 2 or d < 2:
        warnings.warn("emicil needs >= 2 rows and >= 2 attributes; falling back to random duplication")
        return random_oversample(s_min, s_maj, n, params, rng)
    # Per row: the base row, then the masked attribute; all drawn before imputing.
    bases, attrs = rng.draws(n, len(s_min), d)
    return _impute_each(s_min, s_min[bases], attrs, params.emi_ridge)


def ewmote(s_min, s_maj, n: int, params: SamplerParams, rng: Pcg32) -> np.ndarray:
    """n rows generated by weighted base selection plus single-attribute
    imputation.

    Per generated row the draw order is fixed: one uniform selects the base
    from the informative set by selection probability, one bounded draw picks
    the masked attribute. The Gaussian is fitted on the whole minority set.
    """
    s_min = as_rows(s_min, "s_min")
    d = s_min.shape[1]
    s_maj = as_rows(s_maj, "s_maj", d)
    if n == 0:
        return np.empty((0, d))
    if len(s_min) < 2 or d < 2:
        warnings.warn("ewmote needs >= 2 rows and >= 2 attributes; falling back to random duplication")
        return random_oversample(s_min, s_maj, n, params, rng)
    wset = selection_probabilities(s_min, s_maj, params)
    if wset.is_empty:
        warnings.warn("ewmote found no informative minority rows; falling back to emicil")
        return emicil(s_min, s_maj, n, params, rng)
    u, attrs = rng.draws(n, None, d)
    bases = wset.s_imin[_draw_base(np.cumsum(wset.probabilities), u)]
    return _impute_each(s_min, bases, attrs, params.emi_ridge)


SAMPLERS = {"random": random_oversample, "smote": smote, "emicil": emicil,
            "mwmote": mwmote, "ewmote": ewmote}
METHODS = ("none", *SAMPLERS)


def resample_multiclass(fm: FeatureMatrix, method: str, params: SamplerParams,
                        rng: Pcg32) -> FeatureMatrix:
    """Raise every non-majority class to the majority count with `method`.

    Each class is oversampled against all remaining rows using its own child
    random stream (classes in sorted order), so per-class work is independent
    and parallelizable. Original rows come first in the output, synthetics
    follow grouped by class.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown sampler {method!r}; available: {METHODS}")
    if method == "none":
        return fm
    dist = class_distribution(fm.labels)
    target = dist.counts[dist.majority_label]
    blocks = [fm.data]
    label_blocks = [fm.labels]
    for ci, c in enumerate(cl for cl in dist.counts if cl != dist.majority_label):
        n_new = target - dist.counts[c]
        if n_new <= 0:
            continue
        s_min = fm.data[fm.labels == c]
        s_maj = fm.data[fm.labels != c]
        blocks.append(SAMPLERS[method](s_min, s_maj, n_new, params, rng.child(ci)))
        label_blocks.append(np.full(n_new, c, dtype=object))
    return FeatureMatrix(np.vstack(blocks), np.concatenate(label_blocks), fm.feature_names)
