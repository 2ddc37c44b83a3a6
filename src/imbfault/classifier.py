"""Gradient-boosted decision trees.

Trees are fit with exact greedy split search over feature values sorted
once per training set, and second-order leaf weights (-G/H); min_leaf is the
only regularizer beyond depth. The loss follows the class count: two classes
use the logistic loss with one tree per round, more use softmax with one tree
per class per round. Both run through one boosting loop and one link
function. Nothing is randomized, so identical data and parameters give
identical models.

Every training row carries a weight, and rows that repeat exactly, with the
same feature bytes and the same class, are fit once. Oversamplers repeat rows
(EWMOTE's conditional means, random duplication), and every copy of a row has
the same margin, so one distinct row of weight w, with gradient w·g and
hessian w·h, stands for its w copies; min_leaf counts training rows, the sum
of the weights. A row that does not repeat has weight 1, and 1·g is g, so
its fit is the same, bit for bit, as fitting every row.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import FeatureMatrix, as_rows, int_fields, label_codes
from .errors import ConfigError, DataError

_EPS = 1e-16
_FORMAT = "imbfault-gbt"
_VERSION = 1
_TREE_KEYS = ("feature", "threshold", "left", "right", "value")
_KEY_STEP = np.uint64(0x9E3779B97F4A7C15)   # odd: multiplying by it mod 2**64 loses no bits
_SCAN_ELEMENTS = 2**16   # elements per split-scan chunk: features per chunk times rows


@dataclass
class GbtParams:
    rounds: int = 300
    learning_rate: float = 0.3
    max_depth: int = 6
    min_leaf: int = 1

    def __post_init__(self):
        int_fields(self, ("rounds", "max_depth", "min_leaf"))
        if isinstance(self.learning_rate, bool) or not isinstance(self.learning_rate, numbers.Real):
            raise ConfigError(f"learning_rate must be a real number, not {self.learning_rate!r}")
        self.learning_rate = float(self.learning_rate)
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")


def _gain(gl, hl, G: float, H: float, gains, right):
    """Write gl²/max(hl, eps) + (G - gl)²/max(H - hl, eps) - G²/max(H, eps)
    into `gains`, one step at a time in place: `right` is scratch, and hl's
    slot takes H - hl once hl has been read."""
    np.multiply(gl, gl, out=gains)
    np.maximum(hl, _EPS, out=right)
    np.divide(gains, right, out=gains)
    np.subtract(G, gl, out=right)
    np.square(right, out=right)
    np.subtract(H, hl, out=hl)
    np.maximum(hl, _EPS, out=hl)
    np.divide(right, hl, out=right)
    np.add(gains, right, out=gains)
    np.subtract(gains, G * G / max(H, _EPS), out=gains)


def _between(a: float, b: float) -> float:
    """A threshold t with a <= t < b, for a < b: their midpoint, or a where
    that rounds up to b (adjacent floats). Halving first keeps it finite
    near the largest floats."""
    t = a / 2 + b / 2
    return t if a <= t < b else a


class _SplitScan:
    """Exact greedy split search over one training set, shared by every tree
    fit on it.

    `orders[f]` lists the rows by feature f's value, ties by row index: what
    a stable argsort of each column gives. Every column is sorted by numpy's
    default (SIMD) argsort, and only the columns with tied values are sorted
    again, stably: distinct values have a single order. The root's split
    positions tell which columns have ties, and they hold for either order,
    since they read only which sorted values are equal. `cols` is X
    column-major, so one flat `take` gathers a node's sorted values of
    every feature. A node's gradients and hessians travel together as one
    complex vector: one gather and one in-place cumsum give both prefix
    sums, and since real and imaginary parts add independently each equals
    its own real cumsum bit for bit. Only positions between distinct values
    are scored. The root's are the same for every tree, so they are found
    once; when the root has no tied values no node has any.

    A node scans its features in chunks, so the scratch buffers `prefix`,
    `work` and `mask` hold at most max(n, _SCAN_ELEMENTS) elements, not
    d·n; they are sized for the root's chunk and reused by every node,
    because each node finishes its scan before its children start.

    `w` is each row's weight: the number of training rows it stands for.
    Only min_leaf reads it here, as a count of training rows; the gradients
    and hessians the trees pass in are already weighted."""

    def __init__(self, X: np.ndarray, w: np.ndarray):
        n, d = X.shape
        self.w = w
        self.cols = np.ascontiguousarray(X.T)
        self.orders = np.argsort(self.cols, axis=1)
        self.offsets = np.arange(0, d * n, n)[:, None]
        self.features = np.arange(d)
        size = min(d, max(1, _SCAN_ELEMENTS // n)) * n
        self.gh = np.empty(n, dtype=complex)
        self.prefix = np.empty(size, dtype=complex)
        self.work = np.empty((2, size))
        self.mask = np.empty(size, dtype=bool)
        self.goes_left = np.empty(n, dtype=bool)
        self.sel = np.empty(d * n, dtype=bool)
        self.below = np.empty(d * n, dtype=np.intp)
        self.root_splits = np.empty((d, n), dtype=bool)
        for _, chunk, root_splits, offsets, _ in self._chunks(self.orders):
            root_splits[:] = self._splits(chunk, offsets)
        tied = ~self.root_splits[:, :n - 1].all(axis=1)
        for f in np.flatnonzero(tied).tolist():
            self.orders[f] = np.argsort(self.cols[f], kind="stable")
        self.tie_free = not tied.any()

    def _chunks(self, order: np.ndarray):
        """`(first feature, rows of order, root split mask, offsets into
        cols, feature positions within the chunk)` for each chunk of the
        features that fills the scratch buffers at this node's row count.
        When one chunk holds every feature, as at every cv-scale node, these
        are the scan's own arrays, unsliced."""
        d = len(order)
        step = max(1, self.prefix.size // order.shape[1])
        if step >= d:
            return ((0, order, self.root_splits, self.offsets, self.features),)
        return ((f0, order[f0:f0 + step], self.root_splits[f0:f0 + step],
                 self.offsets[f0:f0 + step], self.features[:min(step, d - f0)])
                for f0 in range(0, d, step))

    def _splits(self, order: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """A `(features, rows)` mask of the sorted positions where the value
        is below the next one, for the features of `order`, whose columns
        start at `offsets` in cols: the splits between distinct values. The
        values are sorted and finite, so `<` here is `!=`."""
        d, m = order.shape
        at = self.work[1].view(np.intp)[:d * m].reshape(d, m)
        xs = self.work[0, :d * m].reshape(d, m)
        np.add(order, offsets, out=at)
        self.cols.take(at, out=xs, mode="clip")
        out = self.mask[:d * m].reshape(d, m)
        out[:, m - 1:] = False
        np.less(xs[:, :m - 1], xs[:, 1:], out=out[:, :m - 1])
        return out

    def _thin_sides(self, order: np.ndarray, min_leaf: int, out: np.ndarray, fill) -> None:
        """Set to `fill` the entries of `out`, a `(features, rows)` array
        over the sorted positions of `order`, whose split leaves fewer than
        min_leaf training rows on a side: the sides are prefix sums of the
        weights in each feature's order."""
        rows_left = np.cumsum(self.w.take(order), axis=1)
        np.copyto(out, fill, where=(rows_left < min_leaf)
                  | (rows_left > rows_left[:, -1:] - min_leaf))

    def best_split(self, order: np.ndarray, G: float, H: float, min_leaf: int):
        """Return `(feature, threshold)` of the node whose rows are `order`
        per feature, or `(-1, 0.0)` when no split gains more than 1e-12: the
        split after each feature's sorted position p, with at least min_leaf
        training rows on each side, between distinct values, scored by the
        second-order gain; the first feature wins equal gains.

        The features are scanned a chunk at a time (see `_chunks`), and the
        prefix sums run over every row. On a tie-free training set every
        position is scored as one flat vector, and the last one, whose
        split leaves no row on the right, is set to `-inf`, as are, with
        min_leaf > 1, the positions whose sides hold too few training rows.
        Otherwise only the split positions' sums are gathered into one
        compact vector and scored, and their gains are put back into a
        `-inf` row per feature, so each feature's argmax is the one a full
        scan gives. The chunks' best splits are compared in feature order."""
        m = order.shape[1]
        root = order is self.orders
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for f0, chunk, root_splits, offsets, features in self._chunks(order):
            d = len(chunk)
            prefix = self.prefix[:d * m].reshape(d, m)
            self.gh.take(chunk, out=prefix, mode="clip")
            np.cumsum(prefix, axis=1, out=prefix)
            if self.tie_free:
                flat = prefix.reshape(-1)
                gains = self.work[0, :d * m]
                _gain(flat.real, flat.imag, G, H, gains, self.work[1, :d * m])
                gains = gains.reshape(d, m)
                gains[:, m - 1] = -np.inf
                if min_leaf > 1:
                    self._thin_sides(chunk, min_leaf, gains, -np.inf)
            else:
                splits = root_splits if root else self._splits(chunk, offsets)
                if min_leaf > 1:
                    if root:
                        splits = splits.copy()
                    self._thin_sides(chunk, min_leaf, splits, False)
                # The sums go to `work`, free once the mask is built, and the
                # scores to `prefix`, which is not read again.
                at = np.flatnonzero(splits)
                s = at.size
                sums = prefix.take(at, out=self.work.reshape(-1).view(complex)[:s], mode="clip")
                scores = self.prefix.view(float)
                _gain(sums.real, sums.imag, G, H, scores[:s], scores[s:2 * s])
                row = self.work[0, :d * m]
                row.fill(-np.inf)
                row[at] = scores[:s]
                gains = row.reshape(d, m)
            ps = np.argmax(gains, axis=1)
            best = gains[features, ps].tolist()
            for f, p, gain in zip(range(f0, f0 + d), ps.tolist(), best):
                if gain > best_gain + 1e-12:
                    best_gain, best_feature = gain, f
                    a, b = self.cols[f].take(order[f, p:p + 2]).tolist()
                    best_threshold = _between(a, b)
        return best_feature, best_threshold

    def partition(self, order: np.ndarray, rows: np.ndarray, left: np.ndarray):
        """The per-feature orders of both children of the node whose rows
        are `rows` (by index) and `order` (per feature), `left` marking the
        rows that go left. They are written over the node's own slot of
        `below` (the root's slot is its start), which only the node's
        descendants use, so the orders of a whole tree take no more room
        than the root's."""
        d, m = order.shape
        flat = order.ravel()
        self.goes_left[rows] = left
        sel = self.goes_left.take(flat, out=self.sel[:d * m], mode="clip")
        lo, hi = flat.compress(sel), flat.compress(np.logical_not(sel, out=sel))
        slot = self.below[:d * m] if order is self.orders else flat
        slot[:lo.size] = lo
        slot[lo.size:] = hi
        return slot[:lo.size].reshape(d, -1), slot[lo.size:].reshape(d, -1)


def _fit_tree(scan: _SplitScan, g: np.ndarray, h: np.ndarray, params: GbtParams):
    """Fit one tree on the training set of `scan`; returns `(tree, fitted)`,
    where `fitted[i]` is the value of the leaf training row i reaches.
    `g[i]` and `h[i]` are row i's own gradient and hessian; the tree sees
    w·g and w·h, with w the scan's weights, and a node holds as many
    training rows as its weights add up to.

    Each node scans every feature in one pass over its own rows in each
    feature's order, and hands each child its side's rows, still in order,
    with their gradients, hessians and sums. A node whose rows all share one
    (g, h) pair with h >= eps is a leaf without a scan: the eps clamps never
    act there, so every split has gain GL²/HL + GR²/HR - G²/H = 0, and any
    split a scan took would be rounding noise. The pairs compared are the
    unweighted ones, since w copies of a pair are still that pair. When
    neither child of a split is scanned, their per-feature orders are not
    formed either."""
    n = len(g)
    nodes = []   # (feature, threshold, left, right, value) of each node, in preorder
    fitted = np.empty(n)
    scan.gh.real = scan.w * g
    scan.gh.imag = scan.w * h

    def side(idx: np.ndarray, gh: np.ndarray) -> tuple:
        # A node's rows in increasing order; their weighted gradients,
        # hessians and weights as the rows of `gh`; the sums G and H of
        # those, and W, the training rows the node holds.
        return (idx, gh, *np.add.reduce(gh, axis=1).tolist())

    def scanned(idx, gh, G: float, H: float, W: float, depth: int) -> bool:
        # W copies of (g0, h0) sum to within a few dozen ulps of W·(g0, h0)
        # (pairwise summation), so the O(1) test on the sums rejects almost
        # every node with distinct pairs before the O(m) one runs. A node
        # of one distinct row has no value to split between.
        if depth >= params.max_depth or W < 2 * params.min_leaf or len(idx) < 2:
            return False
        g0, h0 = float(g[idx[0]]), float(h[idx[0]])
        if not h0 >= _EPS or abs(G - W * g0) > 1e-12 * W * abs(g0) \
                or abs(H - W * h0) > 1e-12 * W * h0:
            return True
        return not ((g.take(idx) == g0).all() and (h.take(idx) == h0).all())

    def build(idx, gh, G, H, W, order, depth) -> int:
        # order: the per-feature orders of idx, or None when it is not scanned.
        nid = len(nodes)
        nodes.append(None)
        best_feature, best_threshold = -1, 0.0
        if order is not None:
            best_feature, best_threshold = scan.best_split(order, G, H, params.min_leaf)
        if best_feature < 0:
            fitted[idx] = value = -G / max(H, _EPS)
            nodes[nid] = (-1, 0.0, 0, 0, value)
            return nid
        mask = scan.cols[best_feature].take(idx) <= best_threshold
        sides = [side(idx.compress(k), gh.compress(k, axis=1)) for k in (mask, ~mask)]
        scans = [scanned(*s, depth + 1) for s in sides]
        orders = scan.partition(order, idx, mask) if any(scans) else (None, None)
        left, right = (build(*s, o if go else None, depth + 1)
                       for s, o, go in zip(sides, orders, scans))
        nodes[nid] = (best_feature, best_threshold, left, right, 0.0)
        return nid

    root = side(np.arange(n), np.stack((scan.gh.real, scan.gh.imag, scan.w)))
    build(*root, scan.orders if scanned(*root, 0) else None, 0)
    build = None   # break the build <-> closure cycle: g and h are freed now, not by gc
    return {key: list(col) for key, col in zip(_TREE_KEYS, zip(*nodes))}, fitted


def _predict_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        nid, idx = stack.pop()
        if len(idx) == 0:
            continue
        f = tree["feature"][nid]
        if f < 0:
            out[idx] = tree["value"][nid]
            continue
        mask = X[idx, f] <= tree["threshold"][nid]
        stack.append((tree["left"][nid], idx[mask]))
        stack.append((tree["right"][nid], idx[~mask]))
    return out


def _link(margins: np.ndarray, binary: bool) -> np.ndarray:
    """Per-ensemble probabilities: the sigmoid of a binary model's single
    ensemble, otherwise the max-shifted softmax across ensembles. A term
    that overflows to inf gives its limit, 0, so no warning is raised. The
    row maxima are taken as elementwise maxima of a class-major copy's
    rows, which is exact and much faster than a short reduction per row."""
    with np.errstate(over="ignore"):
        if binary:
            return 1.0 / (1.0 + np.exp(-margins))
        e = np.exp(margins - np.ascontiguousarray(margins.T).max(axis=0)[:, None])
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class GbtModel:
    """Per-class tree ensembles; `trees[r][c]` is round r's tree for class c
    (binary models keep a single ensemble for the second class)."""

    classes: tuple
    n_features: int
    binary: bool
    init: np.ndarray
    trees: list
    params: GbtParams = field(repr=False)

    def _margins(self, data: np.ndarray) -> np.ndarray:
        margins = np.tile(self.init, (len(data), 1))
        for round_trees in self.trees:
            for c, tree in enumerate(round_trees):
                margins[:, c] += self.params.learning_rate * _predict_tree(tree, data)
        return margins

    def predict_proba(self, X) -> np.ndarray:
        data = as_rows(X, "X", self.n_features)
        proba = _link(self._margins(data), self.binary)
        if self.binary:
            proba = np.column_stack([1.0 - proba[:, 0], proba[:, 0]])
        proba = np.clip(proba, 1e-15, 1.0 - 1e-15)
        return proba / proba.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.decide(self.predict_proba(X))

    def decide(self, proba) -> np.ndarray:
        """Class of each predict_proba row's first maximum (ties -> lower class id)."""
        return np.array(self.classes, dtype=object)[np.argmax(proba, axis=1)]

    def save(self, path) -> None:
        blob = {
            "format": _FORMAT,
            "version": _VERSION,
            "classes": list(self.classes),
            "n_features": self.n_features,
            "binary": self.binary,
            "init": self.init.tolist(),
            **asdict(self.params),
            "trees": self.trees,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "GbtModel":
        """Read a file written by `save`. A file that is not such a model, or
        whose trees could not be evaluated, raises DataError naming the path."""
        try:
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
            if not isinstance(blob, dict) or blob.get("format") != _FORMAT \
                    or blob.get("version") != _VERSION:
                raise ValueError("wrong format or version")
            if not isinstance(blob["classes"], list):
                raise ValueError("classes must be a list")
            params = GbtParams(**{f.name: blob[f.name] for f in fields(GbtParams)})
            model = cls(classes=tuple(blob["classes"]), n_features=blob["n_features"],
                        binary=blob["binary"], init=np.asarray(blob["init"], dtype=float),
                        trees=blob["trees"], params=params)
            model._check()
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ConfigError) as exc:
            raise DataError(f"{path}: not a valid {_FORMAT} v{_VERSION} model file "
                            f"({type(exc).__name__}: {exc})") from None
        return model

    def _check(self) -> None:
        """Raise ValueError unless `rounds` (typed by GbtParams) is the number
        of rounds of trees, and every tree can be evaluated. Children are
        numbered in preorder, so child ids above the parent's rule out
        cycles. Each ensemble's margin is bounded by its init plus every
        round's largest leaf; rounding is monotone, so a finite bound keeps
        every margin finite."""
        rounds = self.params.rounds
        if rounds != len(self.trees):
            raise ValueError(f"rounds is {rounds}, but there are {len(self.trees)} rounds of trees")
        if type(self.n_features) is not int or self.n_features < 1:
            raise ValueError(f"n_features must be an int >= 1, not {self.n_features!r}")
        if type(self.binary) is not bool:
            raise ValueError(f"binary must be true or false, not {self.binary!r}")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("classes must be distinct")
        if len(self.classes) < 2 or self.binary and len(self.classes) != 2:
            raise ValueError("need 2 classes for a binary model, at least 2 otherwise")
        n_ens = 1 if self.binary else len(self.classes)
        if self.init.shape != (n_ens,) or not np.isfinite(self.init).all() \
                or any(len(round_trees) != n_ens for round_trees in self.trees):
            raise ValueError(f"init and every round must hold {n_ens} values and trees")
        for i, tree in enumerate(t for round_trees in self.trees for t in round_trees):
            cols = [tree[key] for key in _TREE_KEYS]
            n = len(cols[0])
            if n == 0 or any(len(col) != n for col in cols):
                raise ValueError(f"tree {i}: node lists are empty or of unequal length")
            for nid, (f, t, left, right, v) in enumerate(zip(*cols)):
                if type(f) is not int or not (math.isfinite(t) and math.isfinite(v)) \
                        or f >= 0 and not (type(left) is type(right) is int and f < self.n_features
                                           and nid < left < n and nid < right < n):
                    raise ValueError(f"tree {i}: invalid node {nid}")
        for c, start in enumerate(self.init.tolist()):
            bound = abs(start)
            for round_trees in self.trees:
                bound += self.params.learning_rate * max(map(abs, round_trees[c]["value"]))
            if not math.isfinite(bound):
                raise ValueError(f"ensemble {c}: leaf values could overflow the margin")


def _distinct_rows(X: np.ndarray, codes: np.ndarray) -> tuple:
    """`(X, codes, w)` with each (row bytes, class) pair kept once, at its
    first occurrence, and `w` the number of rows it stands for; the inputs
    themselves, with unit weights, when no pair repeats.

    Equal pairs share a 64-bit key made from their bits, so when every key
    differs no pair repeats, and the rows are neither sorted nor copied.
    (`np.unique` is not used: its first call imports `numpy.ma`, which
    raised the peak RSS of a run that needs nothing else from it.)"""
    bits = X.view(np.uint64)
    key = codes.astype(np.uint64)
    for column in bits.T:
        key = key * _KEY_STEP + column   # wraps around
    key.sort()
    if (key[1:] != key[:-1]).all():
        return X, codes, np.ones(len(X))
    order = np.lexsort((*bits.T, codes))   # stable: a group's first row comes first
    new = np.ones(len(order), dtype=bool)
    sorted_bits, sorted_codes = bits[order], codes[order]
    np.any(sorted_bits[1:] != sorted_bits[:-1], axis=1, out=new[1:])
    new[1:] |= sorted_codes[1:] != sorted_codes[:-1]
    starts = np.flatnonzero(new)
    first, w = order[starts], np.diff(starts, append=len(order))
    keep = np.argsort(first)
    first = first[keep]
    return X[first], codes[first], w[keep].astype(float)


def gbt_train(fm: FeatureMatrix, params: GbtParams | None = None) -> GbtModel:
    """Stagewise fitting of depth-limited regression trees to loss gradients.

    Margins start at the class prior log-odds, so a model with a vanishing
    learning rate predicts the prior. Repeated rows are fit once, weighted
    by their count (see `_distinct_rows`).
    """
    params = params or GbtParams()
    classes, codes = label_codes(fm.labels)
    if len(classes) < 2:
        raise DataError("training set must contain at least 2 classes")
    binary = len(classes) == 2
    prior = np.bincount(codes, minlength=len(classes)) / len(codes)
    X, codes, w = _distinct_rows(fm.data, codes)
    y = (codes[:, None] == np.arange(int(binary), len(classes))).astype(float)
    if binary:
        p1 = min(max(float(prior[1]), 1e-6), 1.0 - 1e-6)
        init = np.array([math.log(p1 / (1.0 - p1))])
    else:
        init = np.log(np.clip(prior, 1e-6, None))
    margins = np.tile(init, (len(X), 1))
    scan = _SplitScan(X, w)
    trees = []
    for _ in range(params.rounds):
        proba = _link(margins, binary)
        round_trees = []
        for c in range(len(init)):
            p = proba[:, c]
            tree, fitted = _fit_tree(scan, p - y[:, c], p * (1.0 - p), params)
            margins[:, c] += params.learning_rate * fitted
            round_trees.append(tree)
        trees.append(round_trees)
    return GbtModel(classes=classes, n_features=X.shape[1], binary=binary,
                    init=init, trees=trees, params=params)
