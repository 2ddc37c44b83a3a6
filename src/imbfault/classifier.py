"""Gradient-boosted decision trees plus a k-NN baseline.

Trees are fit with exact greedy split search over feature values sorted
once per training set, and second-order leaf weights (-G/H); min_leaf is the
only regularizer beyond depth. The loss follows the class count: two classes
use the logistic loss with one tree per round, more use softmax with one tree
per class per round. Both run through one boosting loop and one link
function. Nothing is randomized, so identical data and parameters give
identical models.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import FeatureMatrix
from .errors import ConfigError, DataError

_EPS = 1e-16
_FORMAT = "imbfault-gbt"
_VERSION = 1
_TREE_KEYS = ("feature", "threshold", "left", "right", "value")


@dataclass
class GbtParams:
    rounds: int = 300
    learning_rate: float = 0.3
    max_depth: int = 6
    min_leaf: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")


def _fit_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray, params: GbtParams,
              orders: np.ndarray):
    """Fit one tree; returns `(tree, fitted)`, where `fitted[i]` is the value
    of the leaf training row i reaches.

    `orders[f]` lists the rows by feature f's value, ties by row index: the
    stable argsort of each column, which gbt_train computes once per
    training set. Each node scans every feature in one 2-d pass over its
    own rows in that order, and hands each child its side's rows, still in
    order."""
    tree = {key: [] for key in _TREE_KEYS}
    fitted = np.empty(len(X))
    goes_left = np.empty(len(X), dtype=bool)
    cols = np.arange(X.shape[1])[:, None]

    def splittable(m: int, depth: int) -> bool:
        return depth < params.max_depth and m >= 2 * params.min_leaf

    def build(idx: np.ndarray, order: np.ndarray | None, depth: int) -> int:
        # idx: the node's rows in increasing order; order: their per-feature
        # orders, or None when the node cannot split.
        nid = len(tree["feature"])
        for key, default in zip(_TREE_KEYS, (-1, 0.0, 0, 0, 0.0)):
            tree[key].append(default)
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        if order is not None:
            m = len(idx)
            parent = G * G / max(H, _EPS)
            xs = X[order, cols]
            gl = np.cumsum(g[order], axis=1)[:, :-1]
            hl = np.cumsum(h[order], axis=1)[:, :-1]
            counts = np.arange(1, m)
            valid = xs[:, :-1] < xs[:, 1:]
            valid &= (counts >= params.min_leaf) & (m - counts >= params.min_leaf)
            gains = (gl * gl / np.maximum(hl, _EPS)
                     + (G - gl) ** 2 / np.maximum(H - hl, _EPS) - parent)
            gains[~valid] = -np.inf
            ps = np.argmax(gains, axis=1)
            for f, (p, gain) in enumerate(zip(ps.tolist(), gains[cols[:, 0], ps].tolist())):
                if gain > best_gain + 1e-12:
                    best_gain, best_feature = gain, f
                    best_threshold = float((xs[f, p] + xs[f, p + 1]) / 2.0)
            del xs, gl, hl, valid, gains   # (d, m) scratch: not held while children build
        if best_feature < 0:
            tree["value"][nid] = fitted[idx] = -G / max(H, _EPS)
            return nid
        mask = X[idx, best_feature] <= best_threshold
        sides = (idx[mask], idx[~mask])
        child_orders = [None, None]
        if any(splittable(len(side), depth + 1) for side in sides):
            goes_left[idx] = mask
            sel = goes_left[order]
            child_orders = [order[keep].reshape(len(order), -1)
                            if splittable(len(side), depth + 1) else None
                            for side, keep in zip(sides, (sel, ~sel))]
        # Only the path being built keeps orders alive: each parent drops its
        # own, and a child's leave the list as the child is built.
        order = sel = None
        left = build(sides[0], child_orders.pop(0), depth + 1)
        right = build(sides[1], child_orders.pop(0), depth + 1)
        for key, v in zip(_TREE_KEYS, (best_feature, best_threshold, left, right)):
            tree[key][nid] = v
        return nid

    n = len(X)
    build(np.arange(n), orders if splittable(n, 0) else None, 0)
    build = None   # break the build <-> closure cycle: g and h are freed now, not by gc
    return tree, fitted


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
    ensemble, otherwise the max-shifted softmax across ensembles."""
    if binary:
        return 1.0 / (1.0 + np.exp(-margins))
    e = np.exp(margins - margins.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _as_data(X, n_features: int) -> np.ndarray:
    data = X.data if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=float)
    if data.ndim != 2 or data.shape[1] != n_features:
        raise DataError(f"expected {n_features} feature columns, got shape {data.shape}")
    return data


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
        data = _as_data(X, self.n_features)
        proba = _link(self._margins(data), self.binary)
        if self.binary:
            proba = np.column_stack([1.0 - proba[:, 0], proba[:, 0]])
        proba = np.clip(proba, 1e-15, 1.0 - 1e-15)
        return proba / proba.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.decide(self.predict_proba(X))

    def decide(self, proba) -> np.ndarray:
        """Class of each predict_proba row's first maximum (ties -> lower class id)."""
        return np.array([self.classes[i] for i in np.argmax(proba, axis=1)], dtype=object)

    def save(self, path) -> None:
        blob = {
            "format": _FORMAT,
            "version": _VERSION,
            "classes": list(self.classes),
            "n_features": self.n_features,
            "binary": self.binary,
            "init": [float(v) for v in self.init],
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
            params = GbtParams(**{f.name: blob[f.name] for f in fields(GbtParams)})
            model = cls(classes=tuple(blob["classes"]), n_features=blob["n_features"],
                        binary=blob["binary"], init=np.asarray(blob["init"], dtype=float),
                        trees=blob["trees"], params=params)
            model._check()
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DataError(f"{path}: not a valid {_FORMAT} v{_VERSION} model file "
                            f"({type(exc).__name__}: {exc})") from None
        return model

    def _check(self) -> None:
        """Raise ValueError unless every tree can be evaluated. Children are
        numbered in preorder, so child ids above the parent's rule out cycles."""
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
                if not (math.isfinite(t) and math.isfinite(v)) or f >= 0 and not (
                        type(f) is type(left) is type(right) is int
                        and f < self.n_features and nid < left < n and nid < right < n):
                    raise ValueError(f"tree {i}: invalid node {nid}")


def gbt_train(fm: FeatureMatrix, params: GbtParams | None = None) -> GbtModel:
    """Stagewise fitting of depth-limited regression trees to loss gradients.

    Margins start at the class prior log-odds, so a model with a vanishing
    learning rate predicts the prior.
    """
    params = params or GbtParams()
    classes = fm.classes()
    if len(classes) < 2:
        raise DataError("training set must contain at least 2 classes")
    X = fm.data
    binary = len(classes) == 2
    y = np.column_stack([(fm.labels == c).astype(float)
                         for c in (classes[1:] if binary else classes)])
    if binary:
        p1 = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
        init = np.array([math.log(p1 / (1.0 - p1))])
    else:
        init = np.log(np.clip(y.mean(axis=0), 1e-6, None))
    margins = np.tile(init, (len(X), 1))
    orders = np.argsort(X, axis=0, kind="stable").T
    trees = []
    for _ in range(params.rounds):
        proba = _link(margins, binary)
        round_trees = []
        for c in range(len(init)):
            p = proba[:, c]
            tree, fitted = _fit_tree(X, p - y[:, c], p * (1.0 - p), params, orders)
            margins[:, c] += params.learning_rate * fitted
            round_trees.append(tree)
        trees.append(round_trees)
    return GbtModel(classes=classes, n_features=X.shape[1], binary=binary,
                    init=init, trees=trees, params=params)


def knn_classify(train: FeatureMatrix, queries, k: int) -> np.ndarray:
    """Majority vote among the k nearest training rows; distance ties go to
    the lower row index, vote ties to the lower class id."""
    if k < 1 or k > train.n_rows:
        raise DataError(f"k={k} outside [1, {train.n_rows}]")
    data = _as_data(queries, train.n_features)
    classes = train.classes()
    class_ids = {c: i for i, c in enumerate(classes)}
    y = np.array([class_ids[c] for c in train.labels])
    out = np.empty(len(data), dtype=object)
    for i, q in enumerate(data):
        diff = train.data - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        nearest = np.argsort(d2, kind="stable")[:k]
        votes = np.bincount(y[nearest], minlength=len(classes))
        out[i] = classes[int(np.argmax(votes))]
    return out
