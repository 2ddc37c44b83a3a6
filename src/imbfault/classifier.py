"""Gradient-boosted decision trees plus a k-NN baseline.

Trees are fit with exact greedy split search over sorted feature values and
second-order leaf weights (-G/H); min_leaf is the only regularizer beyond
depth. Binary targets use the logistic loss with one tree per round;
multi-class targets use softmax with one tree per class per round. Nothing
is randomized, so identical data and parameters give identical models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix
from .errors import ConfigError, DataError

_EPS = 1e-16
_FORMAT = "imbfault-gbt"
_VERSION = 1


@dataclass
class GbtParams:
    rounds: int = 300
    learning_rate: float = 0.3
    max_depth: int = 6
    min_leaf: int = 1
    loss: str = "auto"          # auto | logistic | softmax

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        if self.loss not in ("auto", "logistic", "softmax"):
            raise ConfigError(f"unknown loss {self.loss!r}")


def _fit_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray, params: GbtParams) -> dict:
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def add_node():
        for key in tree:
            tree[key].append(0 if key in ("left", "right") else -1 if key == "feature" else 0.0)
        return len(tree["feature"]) - 1

    def build(idx: np.ndarray, depth: int) -> int:
        nid = add_node()
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        if depth < params.max_depth and len(idx) >= 2 * params.min_leaf:
            parent = G * G / max(H, _EPS)
            for f in range(X.shape[1]):
                xs = X[idx, f]
                order = np.argsort(xs, kind="stable")
                xs_sorted = xs[order]
                gl = np.cumsum(g[idx][order])[:-1]
                hl = np.cumsum(h[idx][order])[:-1]
                counts = np.arange(1, len(idx))
                valid = (xs_sorted[:-1] < xs_sorted[1:])
                valid &= (counts >= params.min_leaf) & (len(idx) - counts >= params.min_leaf)
                if not valid.any():
                    continue
                gains = (gl * gl / np.maximum(hl, _EPS)
                         + (G - gl) ** 2 / np.maximum(H - hl, _EPS) - parent)
                gains[~valid] = -np.inf
                p = int(np.argmax(gains))
                if gains[p] > best_gain + 1e-12:
                    best_gain = float(gains[p])
                    best_feature = f
                    best_threshold = float((xs_sorted[p] + xs_sorted[p + 1]) / 2.0)
        if best_feature < 0:
            tree["feature"][nid] = -1
            tree["value"][nid] = -G / max(H, _EPS)
            return nid
        mask = X[idx, best_feature] <= best_threshold
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        tree["feature"][nid] = best_feature
        tree["threshold"][nid] = best_threshold
        tree["left"][nid] = left
        tree["right"][nid] = right
        return nid

    build(np.arange(len(X)), 0)
    return tree


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
        n_ens = 1 if self.binary else len(self.classes)
        margins = np.tile(self.init, (len(data), 1))
        for round_trees in self.trees:
            for c in range(n_ens):
                margins[:, c] += self.params.learning_rate * _predict_tree(round_trees[c], data)
        return margins

    def predict_proba(self, X) -> np.ndarray:
        data = _as_data(X, self.n_features)
        margins = self._margins(data)
        if self.binary:
            p = 1.0 / (1.0 + np.exp(-margins[:, 0]))
            proba = np.column_stack([1.0 - p, p])
        else:
            shifted = margins - margins.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            proba = e / e.sum(axis=1, keepdims=True)
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
            "learning_rate": self.params.learning_rate,
            "rounds": self.params.rounds,
            "max_depth": self.params.max_depth,
            "min_leaf": self.params.min_leaf,
            "loss": self.params.loss,
            "trees": self.trees,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "GbtModel":
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        if blob.get("format") != _FORMAT or blob.get("version") != _VERSION:
            raise DataError(f"{path}: not a {_FORMAT} v{_VERSION} model file")
        params = GbtParams(rounds=blob["rounds"], learning_rate=blob["learning_rate"],
                           max_depth=blob["max_depth"], min_leaf=blob["min_leaf"],
                           loss=blob["loss"])
        return cls(classes=tuple(blob["classes"]), n_features=blob["n_features"],
                   binary=blob["binary"], init=np.asarray(blob["init"], dtype=float),
                   trees=blob["trees"], params=params)


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
    binary = (params.loss == "logistic") or (params.loss == "auto" and len(classes) == 2)
    if binary and len(classes) != 2:
        raise ConfigError("logistic loss needs exactly 2 classes")

    if binary:
        y = (fm.labels == classes[1]).astype(float)
        p1 = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
        init = np.array([math.log(p1 / (1.0 - p1))])
        margin = np.full(len(X), init[0])
        trees = []
        for _ in range(params.rounds):
            p = 1.0 / (1.0 + np.exp(-margin))
            tree = _fit_tree(X, p - y, p * (1.0 - p), params)
            margin = margin + params.learning_rate * _predict_tree(tree, X)
            trees.append([tree])
        return GbtModel(classes=classes, n_features=X.shape[1], binary=True,
                        init=init, trees=trees, params=params)

    onehot = np.column_stack([(fm.labels == c).astype(float) for c in classes])
    pi = np.clip(onehot.mean(axis=0), 1e-6, None)
    init = np.log(pi)
    margins = np.tile(init, (len(X), 1))
    trees = []
    for _ in range(params.rounds):
        shifted = margins - margins.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        proba = e / e.sum(axis=1, keepdims=True)
        round_trees = []
        for c in range(len(classes)):
            pc = proba[:, c]
            tree = _fit_tree(X, pc - onehot[:, c], pc * (1.0 - pc), params)
            margins[:, c] += params.learning_rate * _predict_tree(tree, X)
            round_trees.append(tree)
        trees.append(round_trees)
    return GbtModel(classes=classes, n_features=X.shape[1], binary=False,
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
