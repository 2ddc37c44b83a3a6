"""Batch command line: ingest, synthgen, featurize, resample, crossval,
predict-events.

Every flag can also be given in a flat key-value config file (``--config``),
one ``key value`` or ``key = value`` per line, keys spelled like the flag
without the leading dashes; explicit flags override the file. Exit code is 0
on success; failures print one machine-readable ``error: {json}`` line to
stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import SamplerParams
from .errors import ConfigError, DataError
from .ingestion import (LabeledSeries, label_timestamps, read_feature_csv, read_header,
                        read_intervals_csv, read_timeseries_csv, write_feature_csv,
                        write_intervals_csv, write_labeled_csv)
from .features import featurize
from .pipeline import PipelineConfig, run_crossval, run_predict_events, run_resample
from .segmentation import segment
from .synthgen import (fig2a_noisy_scenario, fig2b_split_cluster_scenario,
                       gaussian_blobs, synthetic_timeseries)

_UNSET = "__unset__"


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _domains(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# name, converter, default, help  (name doubles as config key with dashes)
_PIPELINE_FLAGS = [
    ("window-len", int, 20, "sliding window length in ticks"),
    ("slide-len", int, 5, "window stride in ticks"),
    ("label-rule", str, "majority", "window labeling rule: majority|any_fault|midpoint"),
    ("default-label", str, "normal", "label assigned outside fault intervals"),
    ("domains", _domains, ("time",), "feature domains, comma separated"),
    ("wpt-depth", int, 3, "wavelet packet depth for the timefreq domain"),
    ("wavelet", str, "haar", "wavelet identifier"),
    ("standardize", _bool, True, "z-score features on the training fold"),
    ("reduce", str, "none", "feature reduction: none|pca|lda"),
    ("pca-dims", int, None, "fixed PCA dimension"),
    ("pca-variance", float, None, "PCA explained-variance target in (0,1]"),
    ("lda-dims", int, None, "LDA dimension (capped at classes-1)"),
    ("sampler", str, "none", "oversampler: none|random|smote|emicil|mwmote|ewmote"),
    ("k", int, 5, "SMOTE neighbor count"),
    ("k1", int, 5, "neighbors for the noisy-minority filter"),
    ("k2", int, 3, "majority neighbors for the borderline set"),
    ("k3", int, None, "minority neighbors for the informative set (default |S_min|/2)"),
    ("cp", float, 3.0, "cluster size tuning constant"),
    ("cf-th", float, 5.0, "closeness cutoff"),
    ("cmax", float, 2.0, "closeness scale"),
    ("emi-ridge", float, 1e-6, "ridge scale for the imputation Gaussian"),
    ("resample-stage", str, "after_reduce", "after_reduce|before_reduce"),
    ("rounds", int, 300, "boosting rounds"),
    ("lr", float, 0.3, "boosting learning rate"),
    ("max-depth", int, 6, "tree depth limit"),
    ("min-leaf", int, 1, "minimum rows per leaf"),
    ("folds", int, 10, "cross-validation folds"),
    ("seed", int, 0, "random seed"),
]
_FLAG_TABLE = {name: (conv, default) for name, conv, default, _ in _PIPELINE_FLAGS}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    for name, _conv, _default, help_text in _PIPELINE_FLAGS:
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"),
                            default=_UNSET, help=help_text)


def _load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_num, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise ConfigError(f"{path}:{line_num}: expected 'key value'")
                key, value = parts
            values[key.strip().lstrip("-")] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> dict:
    """defaults -> config file -> explicit flags, with type coercion."""
    from_file = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(from_file) - set(_FLAG_TABLE)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for name, (conv, default) in _FLAG_TABLE.items():
        value = getattr(args, name.replace("-", "_"), _UNSET)
        if value == _UNSET:
            value = from_file.get(name, _UNSET)
        if value == _UNSET:
            resolved[name.replace("-", "_")] = default
        else:
            resolved[name.replace("-", "_")] = conv(value) if isinstance(value, str) else value
    return resolved


def _pipeline_config(opts: dict) -> PipelineConfig:
    params = SamplerParams(k=opts["k"], k1=opts["k1"], k2=opts["k2"], k3=opts["k3"],
                           cp=opts["cp"], cf_th=opts["cf_th"], cmax=opts["cmax"],
                           emi_ridge=opts["emi_ridge"])
    return PipelineConfig(
        window_len=opts["window_len"], slide_len=opts["slide_len"],
        label_rule=opts["label_rule"], default_label=opts["default_label"],
        domains=opts["domains"], wpt_depth=opts["wpt_depth"], wavelet=opts["wavelet"],
        standardize=opts["standardize"], reduce=opts["reduce"],
        pca_dims=opts["pca_dims"], pca_variance=opts["pca_variance"],
        lda_dims=opts["lda_dims"], sampler=opts["sampler"], sampler_params=params,
        resample_stage=opts["resample_stage"], rounds=opts["rounds"],
        learning_rate=opts["lr"], max_depth=opts["max_depth"],
        min_leaf=opts["min_leaf"], folds=opts["folds"], seed=opts["seed"],
    )


def _read_series(args, opts) -> "LabeledSeries":
    channels = _infer_channels(args.series, args.timestamp_col, args.channels)
    frame = read_timeseries_csv(args.series, args.timestamp_col, channels)
    intervals = read_intervals_csv(args.intervals) if args.intervals else []
    return label_timestamps(frame, intervals, opts["default_label"])


def _infer_channels(path, timestamp_col: str, channels_arg) -> list:
    if channels_arg:
        return [c.strip() for c in channels_arg.split(",") if c.strip()]
    import csv as _csv
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(_csv.reader(fh), path)
    return [c for c in header if c not in (timestamp_col, "label")]


def _featurize_series(series: LabeledSeries, cfg: PipelineConfig):
    windows = segment(series, cfg.window_len, cfg.slide_len,
                      cfg.label_rule, cfg.default_label)
    return featurize(windows, cfg.feature_config())


def cmd_ingest(args) -> int:
    opts = _resolve_options(args)
    series = _read_series(args, opts)
    write_labeled_csv(series, args.out, args.timestamp_col)
    print(f"wrote {series.frame.n_ticks} labeled ticks to {args.out}")
    return 0


def cmd_synthgen(args) -> int:
    opts = _resolve_options(args)
    seed = opts["seed"]
    if args.kind == "blobs":
        specs = []
        for part in args.counts.split(","):
            label, _, count = part.partition(":")
            if not count:
                raise ConfigError("--counts wants label:count[,label:count...]")
            specs.append((label.strip(), int(count)))
        dim = args.dim
        class_specs = []
        for i, (label, count) in enumerate(specs):
            mean = np.zeros(dim)
            mean[0] = i * args.distance
            class_specs.append((mean, 1.0, count, label))
        fm = gaussian_blobs(class_specs, seed)
        write_feature_csv(fm, args.out)
    elif args.kind == "fig2a":
        write_feature_csv(fig2a_noisy_scenario(seed).matrix, args.out)
    elif args.kind == "fig2b":
        write_feature_csv(fig2b_split_cluster_scenario(seed).matrix, args.out)
    elif args.kind == "timeseries":
        intervals = read_intervals_csv(args.intervals) if args.intervals else []
        frame, intervals = synthetic_timeseries(args.ticks, intervals,
                                                args.n_channels, args.shift, seed)
        series = label_timestamps(frame, intervals, opts["default_label"])
        write_labeled_csv(series, args.out)
        if args.out_intervals:
            write_intervals_csv(intervals, args.out_intervals)
    else:
        raise ConfigError(f"unknown synthgen kind {args.kind!r}")
    print(f"wrote {args.out}")
    return 0


def cmd_featurize(args) -> int:
    opts = _resolve_options(args)
    cfg = _pipeline_config(opts)
    fm = _featurize_series(_read_series(args, opts), cfg)
    write_feature_csv(fm, args.out)
    print(f"wrote {fm.n_rows} x {fm.n_features} features to {args.out}")
    return 0


def cmd_resample(args) -> int:
    opts = _resolve_options(args)
    cfg = _pipeline_config(opts)
    fm = read_feature_csv(args.features)
    out = run_resample(fm, cfg, args.out)
    print(f"resampled {fm.n_rows} -> {out.n_rows} rows ({cfg.sampler}) to {args.out}")
    return 0


def cmd_crossval(args) -> int:
    opts = _resolve_options(args)
    cfg = _pipeline_config(opts)
    if args.features:
        fm = read_feature_csv(args.features)
    elif args.series:
        fm = _featurize_series(_read_series(args, opts), cfg)
    else:
        raise ConfigError("crossval needs --features or --series")
    result = run_crossval(fm, cfg, args.out_dir)
    macro = result["mean"]["__macro__"]
    print(f"crossval done: macro F={macro['f_measure']:.4f} "
          f"AUC={macro['auc']:.4f} MCC={macro['mcc']:.4f} FAM={macro['fam']:.4f}")
    print(f"reports in {args.out_dir}")
    return 0


def cmd_predict_events(args) -> int:
    opts = _resolve_options(args)
    cfg = _pipeline_config(opts)
    train_channels = _infer_channels(args.train_series, args.timestamp_col, args.channels)
    train_frame = read_timeseries_csv(args.train_series, args.timestamp_col, train_channels)
    train_intervals = read_intervals_csv(args.train_intervals) if args.train_intervals else []
    train_series = label_timestamps(train_frame, train_intervals, opts["default_label"])
    test_frame = read_timeseries_csv(args.test_series, args.timestamp_col, train_channels)
    test_series = LabeledSeries(
        test_frame, [opts["default_label"]] * test_frame.n_ticks)
    true_intervals = read_intervals_csv(args.test_intervals) if args.test_intervals else None
    result = run_predict_events(train_series, test_series, cfg, args.out_dir,
                                true_intervals=true_intervals,
                                model_out=args.model_out, model_in=args.model_in)
    print(f"predicted {len(result['events'])} events -> {result['events_path']}")
    if "fn_ticks" in result:
        print(f"fn_ticks={result['fn_ticks']} fp_ticks={result['fp_ticks']} "
              f"true_faulty_ticks={result['true_faulty_ticks']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbfault",
        description="Class-imbalance learning pipeline for fault diagnostics and prognostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key-value config file")
        _add_pipeline_flags(p)

    p = sub.add_parser("ingest", help="read, validate and label a time-series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--timestamp-col", default="timestamp")
    p.add_argument("--channels", default=None, help="comma list; default: all non-timestamp columns")
    p.add_argument("--intervals", default=None)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synthgen", help="write synthetic datasets")
    p.add_argument("--kind", required=True, choices=["blobs", "fig2a", "fig2b", "timeseries"])
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default="N:1600,F:100", help="blobs: label:count list")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--distance", type=float, default=2.5, help="blobs: distance between class means")
    p.add_argument("--ticks", type=int, default=2000, help="timeseries: tick count")
    p.add_argument("--n-channels", type=int, default=3, help="timeseries: channel count")
    p.add_argument("--shift", type=float, default=3.0, help="timeseries: fault regime shift")
    p.add_argument("--intervals", default=None, help="timeseries: input intervals CSV")
    p.add_argument("--out-intervals", default=None, help="timeseries: copy of intervals written here")
    common(p)
    p.set_defaults(func=cmd_synthgen)

    p = sub.add_parser("featurize", help="segment a series and extract window features")
    p.add_argument("--series", required=True)
    p.add_argument("--timestamp-col", default="timestamp")
    p.add_argument("--channels", default=None)
    p.add_argument("--intervals", default=None)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("resample", help="oversample a feature CSV to class balance")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("crossval", help="stratified k-fold evaluation with reports")
    p.add_argument("--features", default=None, help="featurized CSV input")
    p.add_argument("--series", default=None, help="or: raw series to featurize")
    p.add_argument("--timestamp-col", default="timestamp")
    p.add_argument("--channels", default=None)
    p.add_argument("--intervals", default=None)
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("predict-events", help="train, predict test windows, emit merged events")
    p.add_argument("--train-series", required=True)
    p.add_argument("--train-intervals", default=None)
    p.add_argument("--test-series", required=True)
    p.add_argument("--test-intervals", default=None, help="reference intervals for the FN/FP report")
    p.add_argument("--timestamp-col", default="timestamp")
    p.add_argument("--channels", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model-out", default=None, help="save the trained classifier here")
    p.add_argument("--model-in", default=None, help="load a classifier instead of training")
    common(p)
    p.set_defaults(func=cmd_predict_events)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ConfigError, OSError, np.linalg.LinAlgError) as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        print("error: " + json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
