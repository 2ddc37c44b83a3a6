"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload once at reduced size (--size small),
untraced and traced, and asserts that each run exits 0 with correct outputs
and emits exactly the metrics BENCHMARK.json names for that mode, each with
its unit. Then copies BENCHMARK.json and the benchmark's files, alone, into a
scratch directory and asserts that the benchmark exits non-zero there
without printing a result. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180
# Defined in workloads.py and runnable by hand, but not in BENCHMARK.json.
EXTRA_WORKLOADS = ("resample_wide_ewmote",)


def _run(cwd: Path, args) -> subprocess.CompletedProcess:
    cmd = [sys.executable if a == "python3" else a for a in args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result_line(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def check_workloads(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = [*spec["command"], "--workload", name, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--size", "small"]
            proc = _run(ROOT, args)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                raise AssertionError(f"{label} exited {proc.returncode}:\n{proc.stderr}")
            result = _result_line(proc.stdout)
            if result is None:
                raise AssertionError(f"{label} printed no result line")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{label} result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{label} failed its output checks:\n{proc.stdout}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {metric: m.get("unit") for metric, m in result["metrics"].items()}
            if emitted != expected:
                missing = sorted(set(expected) - set(emitted))
                extra = sorted(set(emitted) - set(expected))
                wrong = sorted(n for n in set(expected) & set(emitted)
                               if expected[n] != emitted[n])
                raise AssertionError(f"{label}: missing {missing}, unexpected {extra}, "
                                     f"wrong unit {wrong}")
            for metric, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
                    raise AssertionError(f"{label}: {metric} is not a number")
            print(f"ok  {label}: {len(emitted)} metrics")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = _run(bare, [*spec["command"], "--workload", name, "--seed", "0",
                           "--seconds", "1", "--trace", "0"])
        if proc.returncode == 0 or _result_line(proc.stdout) is not None:
            raise AssertionError("the benchmark ran without the library's sources")
        print(f"ok  without the library: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_workloads(spec)
        check_bare_directory(spec)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
