"""Batch pipeline: stratified cross-validation, event prediction, resampling.

Everything fitted (standardization, reduction, sampler output, classifier)
sees training rows only; test folds are transformed with the fitted models
and never touch them. Fold work uses child random streams derived from the
run seed, so a run is reproducible byte for byte.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .classifier import GbtModel, GbtParams, gbt_train
from .core import FeatureMatrix, SamplerParams, as_int, int_fields, label_codes
from .errors import ConfigError
from .features import FeatureConfig, Standardizer, featurize
from .ingestion import LabeledSeries, write_csv, write_feature_csv, write_intervals_csv
from .metrics import METRIC_KEYS, confusion, macro_metrics, mean_metrics, roc_points
from .events import coverage, event_confusion, merge_events, windows_to_events
from .reduction import lda_fit, lda_transform, pca_fit, pca_transform
from .rng import Pcg32
from .sampling import METHODS, resample_multiclass
from .segmentation import LABEL_RULES, segment

REDUCERS = ("none", "pca", "lda")
RESAMPLE_STAGES = ("after_reduce", "before_reduce")


@dataclass
class PipelineConfig:
    # segmentation
    window_len: int = 20
    slide_len: int = 5
    label_rule: str = "majority"
    default_label: str = "normal"
    # features
    domains: tuple = FeatureConfig.domains
    wpt_depth: int = FeatureConfig.wpt_depth
    wavelet: str = FeatureConfig.wavelet
    standardize: bool = True
    # reduction
    reduce: str = "none"
    pca_dims: int | None = None
    pca_variance: float | None = None
    lda_dims: int | None = None
    # sampling
    sampler: str = "none"
    sampler_params: SamplerParams = field(default_factory=SamplerParams)
    resample_stage: str = "after_reduce"
    # classifier
    rounds: int = GbtParams.rounds
    learning_rate: float = GbtParams.learning_rate
    max_depth: int = GbtParams.max_depth
    min_leaf: int = GbtParams.min_leaf
    # protocol
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        int_fields(self, ("window_len", "slide_len", "folds", "seed"),
                   optional=("pca_dims", "lda_dims"))
        if self.window_len < 1 or self.slide_len < 1:
            raise ConfigError("window_len and slide_len must be >= 1")
        if self.label_rule not in LABEL_RULES:
            raise ConfigError(f"unknown window labeling rule {self.label_rule!r}; "
                              f"available: {LABEL_RULES}")
        if self.reduce not in REDUCERS:
            raise ConfigError(f"unknown reducer {self.reduce!r}; available: {REDUCERS}")
        if self.sampler not in METHODS:
            raise ConfigError(f"unknown sampler {self.sampler!r}; available: {METHODS}")
        if self.resample_stage not in RESAMPLE_STAGES:
            raise ConfigError(f"unknown resample stage {self.resample_stage!r}")
        if self.pca_dims is not None and self.pca_variance is not None:
            raise ConfigError("give at most one of pca_dims and pca_variance")
        if self.pca_variance is not None and not 0 < self.pca_variance <= 1:
            raise ConfigError("pca_variance must be in (0, 1]")
        if self.pca_dims is not None and self.pca_dims < 0:
            raise ConfigError("pca_dims must be >= 0")
        if self.lda_dims is not None and self.lda_dims < 1:
            raise ConfigError("lda_dims must be >= 1")   # lda_fit rejects 0 components too
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        self.feature_config()   # bad feature or boosting settings fail before any input is read
        self.gbt_params()

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(domains=self.domains, wpt_depth=self.wpt_depth,
                             wavelet=self.wavelet)

    def gbt_params(self) -> GbtParams:
        return GbtParams(**{f.name: getattr(self, f.name) for f in fields(GbtParams)})


def stratified_folds(labels, n_folds: int, rng: Pcg32) -> list:
    """Disjoint test folds preserving class ratios: each class is shuffled
    and dealt round-robin. Classes smaller than n_folds leave some folds
    without that class (warned, allowed). More folds than rows is a
    ConfigError: most folds would be empty."""
    n_folds = as_int(n_folds, "n_folds")
    if n_folds < 2:
        raise ConfigError("need at least 2 folds")
    classes, codes = label_codes(labels)
    if n_folds > len(codes):
        raise ConfigError(f"{n_folds} folds for {len(codes)} rows: need at most one fold per row")
    fold_of = np.empty(len(codes), dtype=int)
    for k, c in enumerate(classes):
        idx = np.flatnonzero(codes == k)
        if len(idx) < n_folds:
            warnings.warn(f"class {c!r} has {len(idx)} rows for {n_folds} folds")
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % n_folds
    return [np.flatnonzero(fold_of == f) for f in range(n_folds)]


@dataclass
class FoldModel:
    """Everything fitted on one training fold."""

    standardizer: Standardizer | None
    reducer_kind: str
    reducer: object
    train_resampled: FeatureMatrix
    model: GbtModel


def fit_fold(train_fm: FeatureMatrix, cfg: PipelineConfig, rng: Pcg32) -> FoldModel:
    """Fit standardization, reduction, resampling and the classifier on one
    training fold. Test rows are deliberately out of reach here."""
    std = None
    work = train_fm
    if cfg.standardize:
        std = Standardizer().fit(train_fm.data)
        work = train_fm.with_data(std.transform(train_fm.data))
    if cfg.resample_stage == "before_reduce" and cfg.sampler != "none":
        work = resample_multiclass(work, cfg.sampler, cfg.sampler_params, rng)
    reducer = None
    if cfg.reduce == "pca":
        dims, var = cfg.pca_dims, cfg.pca_variance
        if dims is None and var is None:
            var = 0.95
        reducer = pca_fit(work.data, n_components=dims, variance=var)
        work = pca_transform(reducer, work)
    elif cfg.reduce == "lda":
        reducer = lda_fit(work.data, work.labels, cfg.lda_dims)
        work = lda_transform(reducer, work)
    if cfg.resample_stage == "after_reduce" and cfg.sampler != "none":
        work = resample_multiclass(work, cfg.sampler, cfg.sampler_params, rng)
    model = gbt_train(work, cfg.gbt_params())
    return FoldModel(standardizer=std, reducer_kind=cfg.reduce, reducer=reducer,
                     train_resampled=work, model=model)


def apply_transforms(fold: FoldModel, fm: FeatureMatrix) -> FeatureMatrix:
    """Apply the fitted standardizer and reducer to held-out rows."""
    work = fm
    if fold.standardizer is not None:
        work = fm.with_data(fold.standardizer.transform(fm.data))
    if fold.reducer_kind == "pca":
        work = pca_transform(fold.reducer, work)
    elif fold.reducer_kind == "lda":
        work = lda_transform(fold.reducer, work)
    return work


def run_crossval(features: FeatureMatrix, cfg: PipelineConfig, out_dir) -> dict:
    """Stratified k-fold cross-validation with per-fold and mean reports.

    Writes fold_metrics.csv, mean_metrics.csv, confusion.csv (pooled
    out-of-fold predictions) and roc_points.csv (pooled out-of-fold scores)
    into out_dir. Returns the collected metrics.
    """
    os.makedirs(out_dir, exist_ok=True)
    classes = list(features.classes())
    root = Pcg32(cfg.seed)
    folds = stratified_folds(features.labels, cfg.folds, root.child(0))
    all_idx = np.arange(features.n_rows)

    fold_reports = []
    oof_scores = np.zeros((features.n_rows, len(classes)))
    oof_pred = np.empty(features.n_rows, dtype=object)
    for fi, test_idx in enumerate(folds):
        if len(test_idx) == 0:
            warnings.warn(f"fold {fi} is empty; skipped")
            continue
        train_idx = np.setdiff1d(all_idx, test_idx)
        fold = fit_fold(features.select(train_idx), cfg, root.child(fi + 1))
        test_fm = apply_transforms(fold, features.select(test_idx))
        proba = fold.model.predict_proba(test_fm)
        scores = np.zeros((len(test_idx), len(classes)))
        scores[:, [classes.index(c) for c in fold.model.classes]] = proba
        pred = fold.model.decide(proba)
        report = macro_metrics(features.labels[test_idx], pred, scores, classes)
        fold_reports.append(report)
        oof_scores[test_idx] = scores
        oof_pred[test_idx] = pred

    # One mapping per fold, class -> metrics with "__macro__" last, feeds both tables.
    tables = [{**r["per_class"], "__macro__": r["macro"]} for r in fold_reports]
    mean_report = {c: mean_metrics([t[c] for t in tables]) for c in tables[0]}
    columns = [*METRIC_KEYS, "degenerate"]

    def rows(table, *lead):
        return [[*lead, c, *[m[k] for k in METRIC_KEYS], int(m["degenerate"])]
                for c, m in table.items()]

    write_csv(os.path.join(out_dir, "fold_metrics.csv"), ["fold", "class", *columns],
              [row for fi, t in enumerate(tables) for row in rows(t, fi)])
    write_csv(os.path.join(out_dir, "mean_metrics.csv"), ["class", *columns],
              rows(mean_report))

    cm = confusion(features.labels, oof_pred, classes)
    write_csv(os.path.join(out_dir, "confusion.csv"), ["true\\pred", *classes],
              [[c, *counts] for c, counts in zip(classes, cm.counts.tolist())])

    roc_rows = []
    for ci, c in enumerate(classes):   # training needs 2 classes, so each has both sides
        for fpr, tpr in roc_points(features.labels, oof_scores[:, ci], c).tolist():
            roc_rows.append([c, fpr, tpr])
    write_csv(os.path.join(out_dir, "roc_points.csv"), ["class", "fpr", "tpr"], roc_rows)

    return {"classes": classes, "folds": fold_reports, "mean": mean_report,
            "confusion": cm, "out_dir": out_dir}


def run_predict_events(train_series: LabeledSeries, test_series: LabeledSeries,
                       cfg: PipelineConfig, out_dir, true_intervals=None,
                       model_out=None, model_in=None) -> dict:
    """Train on the labeled series, predict windows on the test series, and
    reconstruct merged fault events. With reference intervals, also writes a
    per-tick FN/FP report."""
    os.makedirs(out_dir, exist_ok=True)
    fconfig = cfg.feature_config()
    root = Pcg32(cfg.seed)

    if model_in is not None:
        if cfg.standardize or cfg.reduce != "none":
            raise ConfigError("--model-in requires standardize=false and reduce=none")
        fold = FoldModel(standardizer=None, reducer_kind="none", reducer=None,
                         train_resampled=None, model=GbtModel.load(model_in))
    else:
        train_windows = segment(train_series, cfg.window_len, cfg.slide_len,
                                cfg.label_rule, cfg.default_label)
        train_fm = featurize(train_windows, fconfig)
        fold = fit_fold(train_fm, cfg, root.child(1))
        del train_windows, train_fm   # not held while the test series is featurized
        if model_out is not None:
            fold.model.save(model_out)

    test_windows = segment(test_series, cfg.window_len, cfg.slide_len,
                           cfg.label_rule, cfg.default_label)
    test_fm = featurize(test_windows, fconfig)
    pred = fold.model.predict(apply_transforms(fold, test_fm))
    events = merge_events(windows_to_events(
        pred, test_windows.starts, cfg.window_len, test_series.frame.timestamps, cfg.default_label))
    events_path = os.path.join(out_dir, "events.csv")
    write_intervals_csv(events, events_path)

    result = {"events": events, "events_path": events_path}
    if true_intervals is not None:
        ts = test_series.frame.timestamps
        fn, fp = event_confusion(events, true_intervals, ts)
        faulty = int(coverage(true_intervals, ts).sum())
        write_csv(os.path.join(out_dir, "event_report.csv"),
                  ["fn_ticks", "fp_ticks", "true_faulty_ticks"], [[fn, fp, faulty]])
        result.update({"fn_ticks": fn, "fp_ticks": fp, "true_faulty_ticks": faulty})
    return result


def run_resample(features: FeatureMatrix, cfg: PipelineConfig, out_path) -> FeatureMatrix:
    """Standalone resampling; the output CSV carries a synthetic 0/1 flag."""
    root = Pcg32(cfg.seed)
    out = resample_multiclass(features, cfg.sampler, cfg.sampler_params, root)
    flags = [0] * features.n_rows + [1] * (out.n_rows - features.n_rows)
    write_feature_csv(out, out_path, extra_columns={"synthetic": flags})
    return out
