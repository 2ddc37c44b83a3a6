"""A property over the whole command line, run in-process.

Every drawn `resample` or `crossval` invocation, with valid, invalid,
missing and unknown flag values and a valid or broken feature file, must
end in exit 0, or in exit 2 with exactly one ``error: {json}`` line on
stderr. Rounds, depth and folds are capped so that no case runs long.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imbfault.cli import _PIPELINE_FLAGS, main
from imbfault.ingestion import write_feature_csv
from imbfault.pipeline import REDUCERS, RESAMPLE_STAGES
from imbfault.sampling import METHODS
from imbfault.segmentation import LABEL_RULES
from imbfault.synthgen import gaussian_blobs

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


def _valid_csv() -> bytes:
    fm = gaussian_blobs([((0.0, 0.0, 0.0), 1.0, 16, "N"), ((2.0, 1.0, 0.0), 1.0, 6, "F"),
                         ((0.0, 3.0, 1.0), 0.5, 5, "G")], seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        write_feature_csv(fm, path)
        with open(path, "rb") as fh:
            return fh.read()


VALID_CSV = _valid_csv()


@st.composite
def feature_files(draw):
    """The valid CSV, or a truncated, junk, NUL-bearing or non-UTF-8 file."""
    kind = draw(st.sampled_from(["valid"] * 4 + ["truncated", "junk", "nul", "non_utf8"]))
    if kind == "valid":
        return VALID_CSV
    if kind == "junk":
        return draw(st.binary(max_size=80))
    at = draw(st.integers(0, len(VALID_CSV)))
    if kind == "truncated":
        return VALID_CSV[:at]
    return VALID_CSV[:at] + (b"\x00" if kind == "nul" else b"\xff") + VALID_CSV[at:]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["resample", "crossval"]), data=feature_files(),
       settings_args=st.lists(flag_args(), max_size=4))
def test_cli_exits_zero_or_with_one_error_line(command, data, settings_args):
    with tempfile.TemporaryDirectory() as tmp:
        features = os.path.join(tmp, "f.csv")
        with open(features, "wb") as fh:
            fh.write(data)
        out = ["--out", os.path.join(tmp, "o.csv")] if command == "resample" else \
            ["--out-dir", os.path.join(tmp, "cv")]
        argv = [command, "--features", features, *out, *CAPS,
                *[word for words in settings_args for word in words]]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
        payload = json.loads(lines[0][len("error: "):])
        assert sorted(payload) == ["message", "type"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
