import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imbfault.core import TimeSeriesFrame
from imbfault.errors import ConfigError, DataError
from imbfault.ingestion import LabeledSeries
from imbfault.rng import Pcg32
from imbfault.segmentation import segment


def window_label(labels, rule, default_label="normal", ties=None):
    """Scalar oracle: label one window from its per-timestamp labels with a
    Counter. Each ambiguous fault tie appends the warning segment() logs to
    `ties`."""
    labels = [str(v) for v in labels]
    if rule == "midpoint":
        return labels[(len(labels) - 1) // 2]
    counts = Counter(labels)
    fault_counts = {c: n for c, n in counts.items() if c != default_label}
    if not fault_counts:
        return default_label
    top = max(fault_counts.values())
    tied = sorted(c for c, n in fault_counts.items() if n == top)
    if len(tied) > 1 and ties is not None:
        ties.append(f"ambiguous window: fault labels {tied} tie at {top} timestamps")
    if rule == "majority" and counts.get(default_label, 0) > top:
        return default_label
    return tied[0]


def _series(n, labels=None, channels=2, seed=0):
    rng = Pcg32(seed)
    frame = TimeSeriesFrame(np.arange(n), tuple(f"c{i}" for i in range(channels)),
                            rng.normals(channels * n).reshape(channels, n))
    return LabeledSeries(frame, labels if labels is not None else ["N"] * n)


def _one_window(labels, rule="majority", default_label="N"):
    batch = segment(_series(len(labels), labels), len(labels), 1, rule, default_label)
    assert len(batch) == 1
    return batch.labels[0]


class TestSegment:
    def test_starts_for_len10_l4_n2(self):
        windows = segment(_series(10), 4, 2)
        assert windows.starts.tolist() == [0, 2, 4, 6]

    def test_case1_window_geometry(self):
        # L=106, N=20 on 2000 ticks
        windows = segment(_series(2000), 106, 20)
        assert len(windows) == (2000 - 106) // 20 + 1

    def test_case2_window_geometry(self):
        windows = segment(_series(200), 20, 5)
        assert len(windows) == (200 - 20) // 5 + 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(5, 60), st.integers(1, 20), st.integers(1, 10))
    def test_window_count_formula(self, n, length, stride):
        if length > n:
            length = n
        windows = segment(_series(n), length, stride)
        assert len(windows) == (n - length) // stride + 1

    def test_windows_are_exact_slices(self):
        series = _series(30, seed=3)
        batch = segment(series, 7, 3)
        assert batch.values.shape == (len(batch), 2, 7)
        for i, start in enumerate(batch.starts):
            assert np.array_equal(batch.values[i], series.frame.values[:, start:start + 7])

    def test_window_too_long(self):
        with pytest.raises(DataError):
            segment(_series(5), 6, 1)
        with pytest.raises(DataError):
            segment(_series(5), 3, 0)

    def test_labels_assigned_per_rule(self):
        labels = ["N"] * 4 + ["F"] * 6
        windows = segment(_series(10, labels), 4, 2, rule="any_fault")
        assert windows.labels.tolist() == ["N", "F", "F", "F"]

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), rule=st.sampled_from(["majority", "any_fault", "midpoint"]),
           names=st.lists(st.sampled_from(["N", "F1", "F2", "F10", "f", "normal"]),
                          min_size=1, max_size=5, unique=True),
           default_kind=st.sampled_from(["first", "last", "absent"]))
    def test_labels_and_tie_logs_match_oracle(self, caplog, data, rule, names, default_kind):
        default_label = {"first": names[0], "last": names[-1], "absent": "absent"}[default_kind]
        n = data.draw(st.integers(1, 60))
        labels = data.draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
        window_len = data.draw(st.integers(1, n))
        slide_len = data.draw(st.integers(1, 10))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="imbfault.segmentation"):
            batch = segment(_series(n, labels), window_len, slide_len, rule, default_label)
        ties = []
        expected = [window_label(labels[s:s + window_len], rule, default_label, ties)
                    for s in range(0, n - window_len + 1, slide_len)]
        assert batch.labels.tolist() == expected
        assert all(type(label) is str for label in batch.labels)
        assert [r.getMessage() for r in caplog.records] == ties


class TestWindowLabel:
    def test_majority_basic(self):
        assert _one_window(["N", "N", "F", "F", "F"]) == "F"

    def test_any_fault_all_normal(self):
        assert _one_window(["N", "N", "N", "N"], "any_fault") == "N"

    def test_majority_tie_favors_fault(self):
        assert _one_window(["N", "F"]) == "F"

    def test_majority_normal_wins_plurality(self):
        assert _one_window(["N", "N", "N", "F1", "F2"]) == "N"

    def test_two_fault_tie_earlier_label(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imbfault.segmentation"):
            assert _one_window(["F2", "F1", "F1", "F2"]) == "F1"
        assert [r.getMessage() for r in caplog.records] == [
            "ambiguous window: fault labels ['F1', 'F2'] tie at 2 timestamps"]

    def test_any_fault_picks_most_frequent_fault(self):
        assert _one_window(["N", "N", "N", "F2", "F2", "F1"], "any_fault") == "F2"

    def test_midpoint(self):
        assert _one_window(["N", "F", "N"], "midpoint") == "F"
        assert _one_window(["N", "F", "X", "N"], "midpoint") == "F"

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            segment(_series(10), 4, 2, rule="mode")
