"""Properties over the whole command line, run in-process.

Every drawn invocation of every command, with valid, invalid, missing and
unknown flag values, a valid or broken `--config` file and valid or broken
input files (feature, series and interval CSVs, `--model-in` JSON), must
end in exit 0, or in exit 2 with exactly one ``error: {json}`` line on
stderr, and raise no RuntimeWarning. Ticks, rounds, depth, folds and window
sizes are capped so that no case runs long.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from imbfault.cli import _PIPELINE_FLAGS, main
from imbfault.core import FaultInterval
from imbfault.ingestion import label_timestamps, write_feature_csv, write_labeled_csv
from imbfault.pipeline import REDUCERS, RESAMPLE_STAGES
from imbfault.sampling import METHODS
from imbfault.segmentation import LABEL_RULES
from imbfault.synthgen import gaussian_blobs, synthetic_timeseries

small_int = st.integers(1, 6).map(str)
VALID = {
    "window-len": small_int,
    "slide-len": small_int,
    "label-rule": st.sampled_from(LABEL_RULES),
    "default-label": st.sampled_from(["normal", "N"]),
    "domains": st.sampled_from(["time", "frequency,time", "origin,timefreq"]),
    "wpt-depth": st.integers(1, 3).map(str),
    "wavelet": st.sampled_from(["haar", "db2"]),
    "standardize": st.sampled_from(["true", "false", "1", "off"]),
    "reduce": st.sampled_from(REDUCERS),
    "pca-dims": st.integers(0, 4).map(str),
    "pca-variance": st.sampled_from(["0.5", "0.95", "1"]),
    "lda-dims": st.integers(1, 3).map(str),
    "sampler": st.sampled_from(METHODS),
    "k": small_int,
    "k1": small_int,
    "k2": small_int,
    "k3": small_int,
    "cp": st.sampled_from(["0.5", "3", "50"]),
    "cf-th": st.sampled_from(["0.5", "5"]),
    "cmax": st.sampled_from(["1", "2"]),
    "emi-ridge": st.sampled_from(["0", "1e-6", "0.5"]),
    "resample-stage": st.sampled_from(RESAMPLE_STAGES),
    "rounds": st.integers(1, 3).map(str),
    "lr": st.sampled_from(["0.1", "0.3", "1"]),
    "max-depth": st.integers(1, 2).map(str),
    "min-leaf": st.integers(1, 4).map(str),
    "folds": st.integers(2, 3).map(str),
    "seed": st.integers(0, 2**64).map(str),
}
# None of these is a large valid count, so the caps above still hold.
INVALID = st.sampled_from(["", "abc", "0", "-1", "1.5", "nan", "inf", "1e400", "\x00", "é"])
UNKNOWN = st.sampled_from(["--no-such-flag", "--round", "stray", "--features-x=1"])
# The caps come first; a drawn flag given later overrides them.
CAPS = ["--rounds", "2", "--max-depth", "2", "--folds", "3"]


def test_every_flag_has_a_valid_strategy():
    assert sorted(VALID) == sorted(flag for flag, _, _ in _PIPELINE_FLAGS)


@st.composite
def flag_args(draw):
    """One drawn setting as argv words: a valid or invalid value, a flag
    with its value missing, or an unknown word."""
    kind = draw(st.sampled_from(["valid"] * 6 + ["invalid", "missing", "unknown"]))
    if kind == "unknown":
        return [draw(UNKNOWN)]
    flag = draw(st.sampled_from(sorted(VALID)))
    if kind == "missing":
        return [f"--{flag}"]
    value = draw(VALID[flag] if kind == "valid" else INVALID)
    return [f"--{flag}={value}"]


def _file_bytes(write) -> bytes:
    """The bytes `write(path)` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


def _series_csv(seed: int) -> bytes:
    """A 90-tick, 2-channel labeled series with faults F and G."""
    ivs = [FaultInterval(20, 39, "F"), FaultInterval(55, 74, "G")]
    frame, ivs = synthetic_timeseries(90, ivs, 2, 3.0, seed)
    return _file_bytes(lambda path: write_labeled_csv(label_timestamps(frame, ivs), path))


VALID_CSV = _file_bytes(lambda path: write_feature_csv(gaussian_blobs(
    [((0.0, 0.0, 0.0), 1.0, 16, "N"), ((2.0, 1.0, 0.0), 1.0, 6, "F"),
     ((0.0, 3.0, 1.0), 0.5, 5, "G")], seed=1), path))
TRAIN_CSV, TEST_CSV = _series_csv(1), _series_csv(2)
INTERVALS_CSV = b"t_start,t_end,label\n20,39,F\n55,74,G\n"


def _model_json() -> bytes:
    """A model saved by predict-events on the train series, as the caps and
    the default settings train it, with standardization off."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("train", "test", "ivs", "m")}
        for name, data in (("train", TRAIN_CSV), ("test", TEST_CSV), ("ivs", INTERVALS_CSV)):
            with open(paths[name], "wb") as fh:
                fh.write(data)
        rc = main(["predict-events", "--train-series", paths["train"],
                   "--train-intervals", paths["ivs"], "--test-series", paths["test"],
                   "--out-dir", os.path.join(tmp, "out"), "--model-out", paths["m"],
                   "--standardize", "false", *CAPS])
        assert rc == 0
        with open(paths["m"], "rb") as fh:
            return fh.read()


with contextlib.redirect_stdout(io.StringIO()):
    MODEL_JSON = _model_json()


@st.composite
def corrupted(draw, valid: bytes):
    """`valid`, or a truncated, junk, NUL-bearing or non-UTF-8 copy."""
    kind = draw(st.sampled_from(["valid"] * 4 + ["truncated", "junk", "nul", "non_utf8"]))
    if kind == "valid":
        return valid
    if kind == "junk":
        return draw(st.binary(max_size=80))
    at = draw(st.integers(0, len(valid)))
    if kind == "truncated":
        return valid[:at]
    return valid[:at] + (b"\x00" if kind == "nul" else b"\xff") + valid[at:]


@st.composite
def config_files(draw):
    """A `--config` file of drawn `key value` lines, or a broken one."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["valid"] * 4 + ["invalid", "unknown", "no_value", "comment"]))
        flag = draw(st.sampled_from(sorted(VALID)))
        if kind == "unknown":
            lines.append("no-such-key 1")
        elif kind == "no_value":
            lines.append(flag)
        elif kind == "comment":
            lines.append(f"# {flag} 0")
        else:
            value = draw(VALID[flag] if kind == "valid" else INVALID)
            lines.append(draw(st.sampled_from([f"{flag} {value}", f"--{flag} = {value}"])))
    return draw(corrupted("\n".join(lines).encode("utf-8")))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, "1e400"])
WRONG_TYPE = st.sampled_from([None, "x", [], {}, [[]], 1.5, True, -1, 0])
TREE_KEYS = ("feature", "threshold", "left", "right", "value")


@st.composite
def model_files(draw):
    """The saved model, or a copy with a key missing, a value of the wrong
    type, a tree that points back into itself, or a non-finite number; or
    broken bytes, or arrays nested too deep to parse."""
    kind = draw(st.sampled_from(["valid", "missing", "wrong_type", "cycle", "non_finite",
                                 "bytes", "deep"]))
    if kind == "valid":
        return MODEL_JSON
    if kind == "bytes":
        return draw(corrupted(MODEL_JSON))
    if kind == "deep":   # past the JSON parser's recursion limit
        return b"[" * 100_000 + b"]" * 100_000
    blob = json.loads(MODEL_JSON)
    trees = [tree for round_trees in blob["trees"] for tree in round_trees]
    tree = draw(st.sampled_from(trees))
    if kind == "missing":
        target = draw(st.sampled_from([blob, tree]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif kind == "wrong_type":
        target = draw(st.sampled_from(["top", "node"]))
        if target == "top":
            blob[draw(st.sampled_from(sorted(blob)))] = draw(WRONG_TYPE)
        else:
            column = tree[draw(st.sampled_from(TREE_KEYS))]
            column[draw(st.integers(0, len(column) - 1))] = draw(WRONG_TYPE)
    elif kind == "cycle":
        nid = draw(st.integers(0, len(tree["left"]) - 1))
        tree["feature"][nid] = max(tree["feature"][nid], 0)
        tree[draw(st.sampled_from(["left", "right"]))][nid] = draw(st.integers(0, nid))
    else:
        value = draw(NON_FINITE)
        where = draw(st.sampled_from(["init", "learning_rate", "threshold", "value"]))
        if where == "init":
            blob["init"][0] = value
        elif where == "learning_rate":
            blob["learning_rate"] = value
        else:
            tree[where][draw(st.integers(0, len(tree[where]) - 1))] = value
    text = json.dumps(blob)   # NaN and Infinity as Python's json writes them
    return text.replace('"1e400"', "1e400").encode("utf-8")


def run_cli(tmp, argv, files, settings_args, config):
    """Write `files` (name -> bytes) into tmp, run `main` on argv (its file
    names taken in tmp), the config file, the caps and the drawn settings,
    and check the outcome."""
    for name, data in files.items():
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(data)
    argv = [os.path.join(tmp, word) if word.endswith((".csv", ".json")) or word == "out"
            else word for word in argv]
    if config is not None:
        argv += ["--config", os.path.join(tmp, "config.txt")]
        with open(argv[-1], "wb") as fh:
            fh.write(config)
    argv += [*CAPS, *[word for words in settings_args for word in words]]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main(argv)
    lines = err.getvalue().splitlines()
    event(f"exit {rc}")   # shown by --hypothesis-show-statistics
    if rc == 0:
        assert lines == []
    else:
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        payload = json.loads(lines[0][len("error: "):])
        assert sorted(payload) == ["message", "type"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv


SETTINGS = st.lists(flag_args(), max_size=4)
CONFIG = st.none() | config_files()
PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
FEW = settings(PROPERTY, max_examples=60)


@PROPERTY
@given(command=st.sampled_from(["resample", "crossval"]), data=corrupted(VALID_CSV),
       settings_args=SETTINGS, config=CONFIG)
def test_cli_exits_zero_or_with_one_error_line(command, data, settings_args, config):
    out = ["--out", "out.csv"] if command == "resample" else ["--out-dir", "out"]
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(tmp, [command, "--features", "f.csv", *out], {"f.csv": data},
                settings_args, config)


@st.composite
def series_args(draw):
    """(argv words, files) naming a drawn series, an optional drawn
    interval file and optional column choices."""
    words, files = ["--series", "s.csv"], {"s.csv": draw(corrupted(TRAIN_CSV))}
    if draw(st.booleans()):
        words += ["--intervals", "ivs.csv"]
        if draw(st.integers(0, 9)):   # else the interval file is missing
            files["ivs.csv"] = draw(corrupted(INTERVALS_CSV))
    if draw(st.integers(0, 3)) == 0:
        words += ["--channels", draw(st.sampled_from(["ch0", "ch1,ch0", "ch0,ch0", "nope",
                                                      ",", ""]))]
    if draw(st.integers(0, 3)) == 0:
        words += ["--timestamp-col", draw(st.sampled_from(["timestamp", "ch0", "label",
                                                           "nope"]))]
    return words, files


@FEW
@given(command=st.sampled_from(["ingest", "featurize"]), series=series_args(),
       settings_args=SETTINGS, config=CONFIG)
def test_series_commands_exit_zero_or_with_one_error_line(command, series, settings_args,
                                                          config):
    words, files = series
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(tmp, [command, *words, "--out", "out.csv"], files, settings_args, config)


SYNTHGEN_VALUES = {
    "kind": st.sampled_from(["blobs", "fig2a", "fig2b", "timeseries", "nope"]),
    "counts": st.sampled_from(["N:30,F:5", "A:3,B:4,C:2", "N:1", "N:0,F:3", "N:-2",
                               "N:x", "N", ":3", "N:3,,F:2", ""]),
    "dim": st.sampled_from(["1", "2", "3", "0", "-1", "x"]),
    "distance": st.sampled_from(["0", "2.5", "-1", "nan", "inf", "1e308"]),
    "ticks": st.sampled_from(["1", "2", "60", "200", "0", "-5", "x"]),
    "n-channels": st.sampled_from(["1", "3", "0", "-1"]),
    "shift": st.sampled_from(["0", "3", "-2", "nan", "inf", "1e308"]),
}


@FEW
@given(kind=SYNTHGEN_VALUES["kind"],
       options=st.lists(st.sampled_from(sorted(SYNTHGEN_VALUES)).flatmap(
           lambda flag: SYNTHGEN_VALUES[flag].map(lambda v: [f"--{flag}={v}"])), max_size=3),
       intervals=st.none() | corrupted(INTERVALS_CSV), copy_intervals=st.booleans(),
       settings_args=SETTINGS, config=CONFIG)
def test_synthgen_exits_zero_or_with_one_error_line(kind, options, intervals, copy_intervals,
                                                    settings_args, config):
    # Default counts and ticks would run long; drawn options override these.
    argv = ["synthgen", "--kind", kind, "--out", "out.csv", "--counts", "N:30,F:5",
            "--ticks", "60", *[word for words in options for word in words]]
    files = {}
    if intervals is not None:
        argv += ["--intervals", "ivs.csv"]
        files["ivs.csv"] = intervals
    if copy_intervals:
        argv += ["--out-intervals", "out-ivs.csv"]
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(tmp, argv, files, settings_args, config)


@st.composite
def predict_inputs(draw):
    """(argv words, files) for predict-events: train and test series, each
    interval file and a `--model-in` file present or not, with at most one
    of them broken so that most cases reach the model."""
    broken = draw(st.sampled_from([None, "train.csv", "test.csv", "train-ivs.csv",
                                   "test-ivs.csv", "m.json"]))
    files = {"train.csv": TRAIN_CSV, "test.csv": TEST_CSV}
    words = []
    for flag, name, data in (("--train-intervals", "train-ivs.csv", INTERVALS_CSV),
                             ("--test-intervals", "test-ivs.csv", INTERVALS_CSV),
                             ("--model-in", "m.json", MODEL_JSON)):
        if name == broken or draw(st.booleans()):
            words += [flag, name]
            files[name] = data
    if "m.json" in files:
        words += ["--standardize", "false"]   # --model-in refuses a standardizer
    if broken == "m.json":
        files[broken] = draw(model_files())
    elif broken is not None:
        files[broken] = draw(corrupted(files[broken]))
    if draw(st.booleans()):
        words += ["--model-out", "out-m.json"]
    return words, files


@FEW
@given(inputs=predict_inputs(), settings_args=SETTINGS, config=CONFIG)
def test_predict_events_exits_zero_or_with_one_error_line(inputs, settings_args, config):
    words, files = inputs
    argv = ["predict-events", "--train-series", "train.csv", "--test-series", "test.csv",
            "--out-dir", "out", *words]
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(tmp, argv, files, settings_args, config)
