"""Traced runs: per-layer spans recorded from outside the library.

The tracer replaces layer entry points at the module attributes their
callers look up (``imbfault.cli.*``, ``imbfault.pipeline.*``, two
``imbfault.sampling`` functions and two classes' methods) with wrappers that
record one span per call: operation id, span id, parent span id, layer, name,
start, end and the counts read off the call's arguments and result. Spans
stay in memory and are written out once, when the benchmark ends. Nothing
under ``src/`` changes.

A layer's self time is its spans' duration minus the part covered by their
direct child spans. A wrapped attribute that no longer exists raises
``TraceError`` when the tracer is installed, so a later refactor cannot
silently turn a layer's numbers into zeros.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from dataclasses import dataclass
from time import perf_counter


class TraceError(RuntimeError):
    """The traced run cannot measure what the benchmark says it measures."""


def _rows(obj) -> int:
    """Row count of a frame, feature matrix, labeled series or list."""
    if hasattr(obj, "n_ticks"):
        return obj.n_ticks
    if hasattr(obj, "n_rows"):
        return obj.n_rows
    if hasattr(obj, "frame"):
        return obj.frame.n_ticks
    return len(obj)


def _read_counts(args, result):
    return {"rows_read": _rows(result)}


def _write_counts(args, result):
    return {"rows_written": _rows(args[0])}


def _segment_counts(args, result):
    return {"windows": len(result)}


def _featurize_counts(args, result):
    return {"cols": result.n_features}


def _projection_counts(args, result):
    return {"components": result.components.shape[1]}


def _resample_counts(args, result):
    return {"synthetic_rows": result.n_rows - args[0].n_rows}


def _cascade_counts(args, result):
    return {"s_min": len(args[0]), "s_minf": len(result.minf_indices),
            "s_bmaj": len(result.bmaj_indices), "s_imin": len(result.s_imin)}


def _train_counts(args, result):
    trees = [tree for round_trees in result.trees for tree in round_trees]
    return {"trees": len(trees), "nodes": sum(len(t["feature"]) for t in trees),
            "train_rows": args[0].n_rows}


def _raw_event_counts(args, result):
    return {"raw": len(result)}


def _merged_event_counts(args, result):
    return {"merged": len(result)}


# (owner, attribute, layer, counts). The owner is a module, or
# "module:Class" for a method the callers reach through an instance.
PROBES = (
    ("imbfault.cli", "main", "cli", None),
    ("imbfault.cli", "read_timeseries_csv", "ingestion.read", _read_counts),
    ("imbfault.cli", "read_intervals_csv", "ingestion.read", _read_counts),
    ("imbfault.cli", "read_feature_csv", "ingestion.read", _read_counts),
    ("imbfault.cli", "label_timestamps", "ingestion.label", None),
    ("imbfault.cli", "write_labeled_csv", "ingestion.write", _write_counts),
    ("imbfault.cli", "write_feature_csv", "ingestion.write", _write_counts),
    ("imbfault.cli", "write_intervals_csv", "ingestion.write", _write_counts),
    ("imbfault.cli", "segment", "segmentation", _segment_counts),
    ("imbfault.cli", "featurize", "features", _featurize_counts),
    ("imbfault.cli", "run_crossval", "pipeline", None),
    ("imbfault.cli", "run_predict_events", "pipeline", None),
    ("imbfault.cli", "run_resample", "pipeline", None),
    ("imbfault.pipeline", "run_crossval", "pipeline", None),
    ("imbfault.pipeline", "run_predict_events", "pipeline", None),
    ("imbfault.pipeline", "run_resample", "pipeline", None),
    ("imbfault.pipeline", "stratified_folds", "pipeline", None),
    ("imbfault.pipeline", "fit_fold", "pipeline", None),
    ("imbfault.pipeline", "apply_transforms", "pipeline", None),
    ("imbfault.pipeline", "segment", "segmentation", _segment_counts),
    ("imbfault.pipeline", "featurize", "features", _featurize_counts),
    ("imbfault.pipeline:Standardizer", "fit", "features.standardize", None),
    ("imbfault.pipeline:Standardizer", "transform", "features.standardize", None),
    ("imbfault.pipeline", "pca_fit", "reduction", _projection_counts),
    ("imbfault.pipeline", "pca_transform", "reduction", None),
    ("imbfault.pipeline", "lda_fit", "reduction", _projection_counts),
    ("imbfault.pipeline", "lda_transform", "reduction", None),
    ("imbfault.pipeline", "resample_multiclass", "sampling", _resample_counts),
    ("imbfault.sampling", "selection_probabilities", "sampling.cascade", _cascade_counts),
    ("imbfault.sampling", "impute_conditional", "imputation", None),
    ("imbfault.pipeline", "gbt_train", "classifier.train", _train_counts),
    ("imbfault.pipeline:GbtModel", "predict_proba", "classifier.predict", None),
    ("imbfault.pipeline", "macro_metrics", "metrics", None),
    ("imbfault.pipeline", "roc_points", "metrics", None),
    ("imbfault.pipeline", "windows_to_events", "events", _raw_event_counts),
    ("imbfault.pipeline", "merge_events", "events", _merged_event_counts),
    ("imbfault.pipeline", "event_confusion", "events", None),
    ("imbfault.pipeline", "write_feature_csv", "ingestion.write", _write_counts),
    ("imbfault.pipeline", "write_intervals_csv", "ingestion.write", _write_counts),
)

# Sampler fallbacks reported as sampling.fallbacks.<kind>, where the kind is
# the "<sampler>_<fallback>" pair a fallback warning names: the ewmote ladder,
# ewmote being the only sampler the workloads run.
FALLBACK_KINDS = ("ewmote_emicil", "ewmote_random", "emicil_random")

# Per-layer metrics: name -> (unit, better, how it is computed from one
# operation's spans). "busy" is the time inside a layer's outermost spans,
# "self" the time inside its spans not covered by child spans.
PER_LAYER = {
    "classifier.train_s": ("s", "lower", ("busy", "classifier.train")),
    "classifier.trees": ("count", "lower", ("sum", "classifier.train", "trees")),
    "classifier.nodes": ("count", "lower", ("sum", "classifier.train", "nodes")),
    "classifier.train_rows": ("count", "lower", ("sum", "classifier.train", "train_rows")),
    "classifier.predict_s": ("s", "lower", ("busy", "classifier.predict")),
    "classifier.predict_calls": ("count", "lower", ("calls", "classifier.predict")),
    "features.busy_s": ("s", "lower", ("busy", "features")),
    "features.standardize_s": ("s", "lower", ("busy", "features.standardize")),
    "features.cols": ("count", "lower", ("max", "features", "cols")),
    "segmentation.busy_s": ("s", "lower", ("busy", "segmentation")),
    "segmentation.windows": ("count", "lower", ("sum", "segmentation", "windows")),
    "reduction.busy_s": ("s", "lower", ("busy", "reduction")),
    "reduction.components": ("count", "lower", ("max", "reduction", "components")),
    "sampling.busy_s": ("s", "lower", ("self", "sampling")),
    "sampling.cascade_s": ("s", "lower", ("busy", "sampling.cascade")),
    "sampling.synthetic_rows": ("count", "lower", ("sum", "sampling", "synthetic_rows")),
    "imputation.busy_s": ("s", "lower", ("busy", "imputation")),
    "imputation.calls": ("count", "lower", ("calls", "imputation")),
    "sampling.s_minf": ("count", "higher", ("sum", "sampling.cascade", "s_minf")),
    "sampling.s_bmaj": ("count", "higher", ("sum", "sampling.cascade", "s_bmaj")),
    "sampling.s_imin": ("count", "higher", ("sum", "sampling.cascade", "s_imin")),
    "sampling.imin_ratio": ("ratio", "higher", ("ratio", "sampling.cascade", "s_imin", "s_min")),
    **{f"sampling.fallbacks.{kind}": ("count", "lower", ("fallback", kind))
       for kind in FALLBACK_KINDS},
    "ingestion.read_s": ("s", "lower", ("busy", "ingestion.read")),
    "ingestion.write_s": ("s", "lower", ("busy", "ingestion.write")),
    "ingestion.label_s": ("s", "lower", ("busy", "ingestion.label")),
    "ingestion.rows_read": ("count", "lower", ("sum", "ingestion.read", "rows_read")),
    "ingestion.rows_written": ("count", "lower", ("sum", "ingestion.write", "rows_written")),
    "events.busy_s": ("s", "lower", ("busy", "events")),
    "events.raw": ("count", "lower", ("sum", "events", "raw")),
    "events.merged": ("count", "lower", ("sum", "events", "merged")),
    "metrics.busy_s": ("s", "lower", ("busy", "metrics")),
    "pipeline.self_s": ("s", "lower", ("self", "pipeline")),
    "trace.overhead_s": ("s", "lower", ("overhead",)),
}


@dataclass
class Span:
    op: int
    sid: int
    parent: int
    layer: str
    name: str
    t0: float
    t1: float
    counts: dict | None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        if not hasattr(target, class_name):
            raise TraceError(f"{module_name}.{class_name} no longer exists")
        target = getattr(target, class_name)
    return target


class Tracer:
    """Records spans while installed; one tracer serves a whole run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = -1
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise TraceError("tracer already installed")
        try:
            for owner, attr, layer, counts in PROBES:
                target = _resolve_owner(owner)
                if attr not in vars(target):
                    raise TraceError(f"{owner.replace(':', '.')}.{attr} no longer exists")
                original = vars(target)[attr]
                setattr(target, attr, self._wrap(original, layer, f"{owner}.{attr}", counts))
                self._saved.append((target, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def begin_op(self) -> int:
        self._op += 1
        return self._op

    def _wrap(self, fn, layer: str, name: str, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = Span(self._op, sid, parent, layer, name, t0, t1, None)
            if counts is not None:
                spans[sid].counts = counts(args, result)
            return result

        return traced

    def op_spans(self, op: int) -> list:
        return [s for s in self.spans if s.op == op]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in self.spans], fh, separators=(",", ":"))


def _outermost(spans: list, layer: str) -> list:
    """Spans of `layer` with no ancestor span of the same layer."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.layer != layer:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def _self_seconds(spans: list, layer: str) -> float:
    child_time = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    return sum(s.seconds - child_time.get(s.sid, 0.0) for s in spans if s.layer == layer)


def op_metrics(spans: list, fallbacks: dict) -> dict:
    """Every per-layer metric except trace.overhead_s, for one operation."""
    out = {}
    for name, (_unit, _better, how) in PER_LAYER.items():
        kind = how[0]
        if kind == "busy":
            value = sum(s.seconds for s in _outermost(spans, how[1]))
        elif kind == "self":
            value = _self_seconds(spans, how[1])
        elif kind == "calls":
            value = sum(1 for s in spans if s.layer == how[1])
        elif kind in ("sum", "max", "ratio"):
            layer_counts = [s.counts for s in spans
                            if s.layer == how[1] and s.counts and how[2] in s.counts]
            values = [c[how[2]] for c in layer_counts]
            if kind == "sum":
                value = sum(values)
            elif kind == "max":
                value = max(values, default=0)
            else:
                base = sum(c[how[3]] for c in layer_counts)
                value = sum(values) / base if base else 0.0
        elif kind == "fallback":
            value = fallbacks.get(how[1], 0)
        else:
            continue
        out[name] = value
    return out


def require_layers(spans: list, layers) -> None:
    """Fail loudly when a layer the workload must exercise recorded no span."""
    seen = {s.layer for s in spans}
    missing = [layer for layer in layers if layer not in seen]
    if missing:
        raise TraceError(f"no span recorded for layers {missing}")


def per_layer_result(per_op: list, untraced_walls: list, traced_walls: list) -> dict:
    """Medians over the traced operations, plus the tracing overhead."""
    out = {}
    for name, (unit, _better, how) in PER_LAYER.items():
        if how[0] == "overhead":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            value = statistics.median(m[name] for m in per_op)
        out[name] = {"value": value, "unit": unit}
    return out
