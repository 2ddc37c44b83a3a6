"""imbfault benchmark: one workload per run, as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one operation at a time, with no extra threads and the
BLAS thread count pinned to BLAS_THREADS. Until --seconds have passed,
the run builds the workload's inputs from the seed, runs the timed
operation on them and checks its outputs. With --trace 0 it times the
reference kernel (reference.py) before the first operation and after each
one, and prints the end-to-end metrics: the median set-up time and the
median operation time in units of the reference kernel's time around it.
With --trace 1 it alternates untraced and traced operations and prints
the per-layer metrics, including the tracing overhead. The last line
of stdout is one JSON object: correct, attempted, failed and metrics; the
line before it records the environment and the per-operation detail.
--size small shrinks every workload for the benchmark's self-check.

The library is imported from the checkout's src/, never from an installed
copy; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The inputs are set up again before every operation, so the set-up times
# sample the whole run like the operation times do; an untraced run makes at
# least this many, for a median of several.
MIN_SETUPS = 3

# End-to-end metrics: name -> unit. A quality metric is reported on every
# workload; on one whose operation has no such output it reads the constant
# below.
END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
                    "macro_fam": "ratio", "tick_error_frac": "ratio"}
NOT_APPLICABLE = {"macro_fam": 1.0, "tick_error_frac": 1.0}

_FALLBACK = re.compile(r"^(\w+) .*falling back to (\w+)")


@dataclass
class Attempt:
    wall: float
    error: str | None
    quality: dict = field(default_factory=dict)
    fallbacks: dict = field(default_factory=dict)
    warnings: dict = field(default_factory=dict)
    op: int | None = None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux


def _classify_warnings(caught) -> tuple:
    """Sampler fallbacks keyed by (sampler)_(fallback), other warnings by text."""
    fallbacks, other = {}, {}
    for w in caught:
        text = str(w.message)
        match = _FALLBACK.match(text)
        if match:
            kind = f"{match[1]}_{match[2]}"
            fallbacks[kind] = fallbacks.get(kind, 0) + 1
        else:
            other[text] = other.get(text, 0) + 1
    return fallbacks, other


def _attempt(workload, tracer) -> Attempt:
    op = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            op = tracer.begin_op()
            tracer.install()
        t0 = perf_counter()
        try:
            result = workload.run()
            error = None
        except Exception:  # a failed operation is counted and reported, not fatal
            result, error = None, traceback.format_exc()
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
    fallbacks, other = _classify_warnings(caught)
    quality = {}
    if error is None:
        try:
            quality = workload.check(result)
        except Exception:  # a wrong or unreadable output fails this operation
            error = traceback.format_exc()
    return Attempt(wall, error, quality, fallbacks, other, op)


def _bench(args, workload) -> tuple:
    tracer = tracing.Tracer() if args.trace else None
    setups, untraced, traced = [], [], []
    # Reference kernel times: one before the first operation and one after
    # each; operation i sits between refs[i] and refs[i + 1].
    refs = []
    setup_rss_mb = None
    if tracer is None:
        reference.measure()                 # warm-up, not recorded
        refs.append(reference.measure())
    start = perf_counter()
    while (perf_counter() - start < args.seconds
           or (tracer is None and len(setups) < MIN_SETUPS)):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
        if setup_rss_mb is None:
            setup_rss_mb = _peak_rss_mb()
        untraced.append(_attempt(workload, None))
        if tracer is None:
            refs.append(reference.measure())
        else:
            attempt = _attempt(workload, tracer)
            traced.append(attempt)
            if attempt.error is None:
                tracing.require_layers(tracer.op_spans(attempt.op), workload.layers)
            undeclared = set(attempt.fallbacks) - set(tracing.FALLBACK_KINDS)
            if undeclared:
                raise tracing.TraceError(f"undeclared sampler fallback kinds {sorted(undeclared)}")

    attempts = untraced + traced
    ok = [a for a in attempts if a.error is None]
    if tracer is not None:
        per_op = [tracing.op_metrics(tracer.op_spans(a.op), a.fallbacks) for a in traced]
        metrics = tracing.per_layer_result(per_op, [a.wall for a in untraced],
                                           [a.wall for a in traced])
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
    else:
        trace_file = None
        values = {
            "wall_ref": statistics.median(a.wall / ((before + after) / 2)
                                          for a, before, after in zip(attempts, refs, refs[1:])),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _peak_rss_mb(),
        }
        for name, absent in NOT_APPLICABLE.items():
            measured = [a.quality[name] for a in ok if name in a.quality]
            values[name] = statistics.median(measured) if measured else absent
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}

    detail = {
        "why": workload.why, "stresses": workload.stresses, "bypasses": workload.bypasses,
        "setup_s": setups, "peak_rss_mb_after_setup": setup_rss_mb,
        "wall_s": [a.wall for a in untraced],
        "reference_s": refs,
        "traced_wall_s": [a.wall for a in traced],
        "fallbacks": [a.fallbacks for a in attempts],
        "warnings": [a.warnings for a in attempts],
        "errors": [a.error for a in attempts if a.error],
        "report_sha256": workload.report_digest,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    result = {"correct": len(ok) == len(attempts), "attempted": len(attempts),
              "failed": len(attempts) - len(ok), "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)    # before numpy loads its BLAS
    if not (SRC / "imbfault" / "__init__.py").is_file():
        print(f"error: {SRC / 'imbfault'} not found; run from a full imbfault checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import imbfault
    from workloads import WORKLOADS

    if Path(imbfault.__file__).resolve().parent != (SRC / "imbfault").resolve():
        print(f"error: imbfault imported from {imbfault.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](str(run_dir), args.seed, args.size == "small")
        detail, result = _bench(args, workload)
    except tracing.TraceError as exc:
        print(f"error: trace: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"env": _environment(args), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
