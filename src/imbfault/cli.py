"""Batch command line: ingest, synthgen, featurize, resample, crossval,
predict-events.

Every flag can also be given in a flat key-value config file (``--config``),
one ``key value`` or ``key = value`` per line, keys spelled like the flag
without the leading dashes; explicit flags override the file. Exit code is 0
on success; failures, usage errors included, print one machine-readable
``error: {json}`` line to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .core import SamplerParams
from .errors import ConfigError, DataError, ParseError
from .ingestion import (LabeledSeries, label_timestamps, read_feature_csv,
                        read_intervals_csv, read_timeseries_csv, write_feature_csv,
                        write_intervals_csv, write_labeled_csv)
from .features import featurize
from .pipeline import PipelineConfig, run_crossval, run_predict_events, run_resample
from .segmentation import segment
from .synthgen import (fig2a_noisy_scenario, fig2b_split_cluster_scenario,
                       gaussian_blobs, synthetic_timeseries)


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _domains(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# flag, converter, help. The flag doubles as the config-file key and, with
# dashes turned into underscores (--lr aside), names the PipelineConfig or
# SamplerParams field it sets; a setting not given keeps that field's default.
_PIPELINE_FLAGS = [
    ("window-len", int, "sliding window length in ticks"),
    ("slide-len", int, "window stride in ticks"),
    ("label-rule", str, "window labeling rule: majority|any_fault|midpoint"),
    ("default-label", str, "label assigned outside fault intervals"),
    ("domains", _domains, "feature domains, comma separated"),
    ("wpt-depth", int, "wavelet packet depth for the timefreq domain"),
    ("wavelet", str, "wavelet identifier"),
    ("standardize", _bool, "z-score features on the training fold"),
    ("reduce", str, "feature reduction: none|pca|lda"),
    ("pca-dims", int, "fixed PCA dimension"),
    ("pca-variance", float, "PCA explained-variance target in (0,1]"),
    ("lda-dims", int, "LDA dimension (capped at classes-1)"),
    ("sampler", str, "oversampler: none|random|smote|emicil|mwmote|ewmote"),
    ("k", int, "SMOTE neighbor count"),
    ("k1", int, "neighbors for the noisy-minority filter"),
    ("k2", int, "majority neighbors for the borderline set"),
    ("k3", int, "minority neighbors for the informative set (default |S_min|/2)"),
    ("cp", float, "cluster size tuning constant"),
    ("cf-th", float, "closeness cutoff"),
    ("cmax", float, "closeness scale"),
    ("emi-ridge", float, "ridge scale for the imputation Gaussian"),
    ("resample-stage", str, "after_reduce|before_reduce"),
    ("rounds", int, "boosting rounds"),
    ("lr", float, "boosting learning rate"),
    ("max-depth", int, "tree depth limit"),
    ("min-leaf", int, "minimum rows per leaf"),
    ("folds", int, "cross-validation folds"),
    ("seed", int, "random seed"),
]
_SAMPLER_FIELDS = {f.name for f in fields(SamplerParams)}


def _field(flag: str) -> str:
    return "learning_rate" if flag == "lr" else flag.replace("-", "_")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    for flag, _conv, help_text in _PIPELINE_FLAGS:
        parser.add_argument(f"--{flag}", help=help_text)


def _load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        for line_num, raw in enumerate(lines, start=1):
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


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings, overridden by the explicit flags; a setting
    given in neither keeps its PipelineConfig or SamplerParams default."""
    from_file = _load_config_file(args.config) if args.config else {}
    unknown = set(from_file) - {flag for flag, _, _ in _PIPELINE_FLAGS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sampler, pipeline = {}, {}
    for flag, conv, _help in _PIPELINE_FLAGS:
        text = getattr(args, flag.replace("-", "_"))
        if text is None:
            text = from_file.get(flag)
        if text is None:
            continue
        try:
            value = conv(text)
        except ValueError as exc:
            raise ConfigError(f"invalid --{flag} value {text!r}: {exc}") from None
        name = _field(flag)
        (sampler if name in _SAMPLER_FIELDS else pipeline)[name] = value
    return PipelineConfig(sampler_params=SamplerParams(**sampler), **pipeline)


def _read_series(path, intervals_path, args, cfg: PipelineConfig) -> LabeledSeries:
    channels = ([c.strip() for c in args.channels.split(",") if c.strip()]
                if args.channels else None)
    frame = read_timeseries_csv(path, args.timestamp_col, channels)
    intervals = read_intervals_csv(intervals_path) if intervals_path else []
    return label_timestamps(frame, intervals, cfg.default_label)


def _featurize_series(series: LabeledSeries, cfg: PipelineConfig):
    windows = segment(series, cfg.window_len, cfg.slide_len,
                      cfg.label_rule, cfg.default_label)
    return featurize(windows, cfg.feature_config())


def cmd_ingest(args, cfg: PipelineConfig) -> int:
    series = _read_series(args.series, args.intervals, args, cfg)
    write_labeled_csv(series, args.out, args.timestamp_col)
    print(f"wrote {series.frame.n_ticks} labeled ticks to {args.out}")
    return 0


def cmd_synthgen(args, cfg: PipelineConfig) -> int:
    if args.kind == "blobs":
        if args.dim < 1:
            raise ConfigError(f"--dim must be >= 1, got {args.dim}")
        class_specs = []
        for i, part in enumerate(args.counts.split(",")):
            label, _, count = part.partition(":")
            try:
                count = int(count)
            except ValueError:
                raise ConfigError("--counts wants label:count[,label:count...], "
                                  f"got {part!r}") from None
            mean = np.zeros(args.dim)
            mean[0] = i * args.distance
            class_specs.append((mean, 1.0, count, label.strip()))
        write_feature_csv(gaussian_blobs(class_specs, cfg.seed), args.out)
    elif args.kind == "fig2a":
        write_feature_csv(fig2a_noisy_scenario(cfg.seed).matrix, args.out)
    elif args.kind == "fig2b":
        write_feature_csv(fig2b_split_cluster_scenario(cfg.seed).matrix, args.out)
    elif args.kind == "timeseries":
        intervals = read_intervals_csv(args.intervals) if args.intervals else []
        frame, intervals = synthetic_timeseries(args.ticks, intervals,
                                                args.n_channels, args.shift, cfg.seed)
        series = label_timestamps(frame, intervals, cfg.default_label)
        write_labeled_csv(series, args.out)
        if args.out_intervals:
            write_intervals_csv(intervals, args.out_intervals)
    else:
        raise ConfigError(f"unknown synthgen kind {args.kind!r}")
    print(f"wrote {args.out}")
    return 0


def cmd_featurize(args, cfg: PipelineConfig) -> int:
    fm = _featurize_series(_read_series(args.series, args.intervals, args, cfg), cfg)
    write_feature_csv(fm, args.out)
    print(f"wrote {fm.n_rows} x {fm.n_features} features to {args.out}")
    return 0


def cmd_resample(args, cfg: PipelineConfig) -> int:
    fm = read_feature_csv(args.features)
    out = run_resample(fm, cfg, args.out)
    print(f"resampled {fm.n_rows} -> {out.n_rows} rows ({cfg.sampler}) to {args.out}")
    return 0


def cmd_crossval(args, cfg: PipelineConfig) -> int:
    if args.features:
        fm = read_feature_csv(args.features)
    elif args.series:
        fm = _featurize_series(_read_series(args.series, args.intervals, args, cfg), cfg)
    else:
        raise ConfigError("crossval needs --features or --series")
    result = run_crossval(fm, cfg, args.out_dir)
    macro = result["mean"]["__macro__"]
    print(f"crossval done: macro F={macro['f_measure']:.4f} "
          f"AUC={macro['auc']:.4f} MCC={macro['mcc']:.4f} FAM={macro['fam']:.4f}")
    print(f"reports in {args.out_dir}")
    return 0


def cmd_predict_events(args, cfg: PipelineConfig) -> int:
    train_series = _read_series(args.train_series, args.train_intervals, args, cfg)
    test_frame = read_timeseries_csv(args.test_series, args.timestamp_col,
                                     train_series.frame.channel_names)
    test_series = LabeledSeries(test_frame, [cfg.default_label] * test_frame.n_ticks)
    true_intervals = read_intervals_csv(args.test_intervals) if args.test_intervals else None
    result = run_predict_events(train_series, test_series, cfg, args.out_dir,
                                true_intervals=true_intervals,
                                model_out=args.model_out, model_in=args.model_in)
    print(f"predicted {len(result['events'])} events -> {result['events_path']}")
    if "fn_ticks" in result:
        print(f"fn_ticks={result['fn_ticks']} fp_ticks={result['fp_ticks']} "
              f"true_faulty_ticks={result['true_faulty_ticks']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, which main reports as one line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="imbfault",
        description="Class-imbalance learning pipeline for fault diagnostics and prognostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key-value config file")
        _add_pipeline_flags(p)

    def series_input(p, required=True, series_help=None):
        p.add_argument("--series", required=required, help=series_help)
        p.add_argument("--timestamp-col", default="timestamp")
        p.add_argument("--channels", default=None,
                       help="comma list; default: all non-timestamp columns")
        p.add_argument("--intervals", default=None)

    p = sub.add_parser("ingest", help="read, validate and label a time-series CSV")
    series_input(p)
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
    series_input(p)
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
    series_input(p, required=False, series_help="or: raw series to featurize")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _pipeline_config(args))
    except (DataError, ConfigError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        print("error: " + json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
