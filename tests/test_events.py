import numpy as np
import pytest

from imbfault.core import FaultEvent, FaultInterval
from imbfault.errors import DataError
from imbfault.events import coverage, event_confusion, merge_events, windows_to_events
from imbfault.rng import Pcg32

from oracles import union_sweep_oracle


def pairwise_fixpoint_oracle(events):
    """Literal repeat-until-no-overlapping-same-label-pair merging."""
    items = [(ev.t_start, ev.t_end, ev.label) for ev in events]
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                s1, e1, l1 = items[i]
                s2, e2, l2 = items[j]
                if l1 == l2 and s1 <= e2 and s2 <= e1:
                    merged = (min(s1, s2), max(e1, e2), l1)
                    items = [it for k, it in enumerate(items) if k not in (i, j)]
                    items.append(merged)
                    changed = True
                    break
            if changed:
                break
    return sorted(FaultEvent(s, e, l) for s, e, l in items)


def random_events(rng, n):
    events = []
    for _ in range(n):
        s = rng.randint(100)
        events.append(FaultEvent(float(s), float(s + rng.randint(20)),
                                 f"F{rng.randint(3)}"))
    return events


class TestWindowsToEvents:
    def test_all_normal_empty(self):
        out = windows_to_events(["normal"] * 4, [0, 5, 10, 15], 10, np.arange(30))
        assert out == []

    def test_case1_window_geometry(self):
        out = windows_to_events(["F"], [20], 106, np.arange(200))
        assert out == [FaultEvent(20.0, 125.0, "F")]

    def test_adjacent_windows_two_events(self):
        out = windows_to_events(["F", "F"], [0, 5], 20, np.arange(40))
        assert len(out) == 2
        assert out[0].t_end >= out[1].t_start    # they overlap pre-merge

    def test_misaligned_errors(self):
        with pytest.raises(DataError):
            windows_to_events(["F"], [0, 5], 10, np.arange(20))
        with pytest.raises(DataError):
            windows_to_events(["F"], [15], 10, np.arange(20))

    def test_negative_start_errors(self):
        # a negative start used to wrap around to the end of the series
        with pytest.raises(DataError, match="starts non-negative"):
            windows_to_events(["F"], [-3], 2, np.arange(10))
        with pytest.raises(DataError, match="starts non-negative"):
            windows_to_events(["normal", "normal"], [0, -1], 2, np.arange(10))

    @pytest.mark.parametrize("window_len", [0, -2])
    def test_window_len_below_one_errors(self, window_len):
        # window_len=0 used to emit one event covering the whole series
        with pytest.raises(DataError, match="must be >= 1"):
            windows_to_events(["F"], [0], window_len, np.arange(10))

    def test_timestamp_values_used(self):
        ts = np.arange(50) * 2.5 + 100.0
        out = windows_to_events(["F"], [4], 8, ts)
        assert out == [FaultEvent(float(ts[4]), float(ts[11]), "F")]


class TestMergeEvents:
    def test_overlapping_same_label(self):
        out = merge_events([FaultEvent(0, 10, "F"), FaultEvent(5, 15, "F")])
        assert out == [FaultEvent(0, 15, "F")]

    def test_different_labels_untouched(self):
        events = [FaultEvent(0, 10, "F"), FaultEvent(5, 15, "N")]
        assert merge_events(events) == sorted(events)

    def test_chain_merges_to_one(self):
        chain = [FaultEvent(0, 5, "F"), FaultEvent(4, 9, "F"), FaultEvent(8, 12, "F")]
        assert merge_events(chain) == [FaultEvent(0, 12, "F")]

    def test_touching_not_merged(self):
        events = [FaultEvent(0, 5, "F"), FaultEvent(6, 10, "F")]
        assert merge_events(events) == events

    def test_inclusive_boundary_merges(self):
        events = [FaultEvent(0, 5, "F"), FaultEvent(5, 10, "F")]
        assert merge_events(events) == [FaultEvent(0, 10, "F")]

    def test_idempotent(self):
        rng = Pcg32(0)
        events = random_events(rng, 30)
        once = merge_events(events)
        assert merge_events(once) == once

    def test_order_invariant(self):
        rng = Pcg32(1)
        events = random_events(rng, 20)
        base = merge_events(events)
        for _ in range(5):
            perm = list(events)
            idx = np.arange(len(perm))
            rng.shuffle(idx)
            assert merge_events([perm[i] for i in idx]) == base

    def test_vs_both_oracles(self):
        rng = Pcg32(2)
        for _ in range(200):
            events = random_events(rng, 1 + rng.randint(25))
            got = merge_events(events)
            assert got == union_sweep_oracle(events)
            assert got == pairwise_fixpoint_oracle(events)

    def test_no_same_label_overlap_in_output(self):
        rng = Pcg32(3)
        for _ in range(30):
            out = merge_events(random_events(rng, 15))
            for i, a in enumerate(out):
                for b in out[i + 1:]:
                    if a.label == b.label:
                        assert a.t_end < b.t_start or b.t_end < a.t_start


class TestEventConfusion:
    def test_perfect_coverage(self):
        ts = np.arange(100)
        ivs = [FaultInterval(10, 29, "F")]
        assert event_confusion(ivs, ivs, ts) == (0, 0)

    def test_no_predictions(self):
        ts = np.arange(100)
        ivs = [FaultInterval(10, 29, "F")]
        assert event_confusion([], ivs, ts) == (20, 0)

    def test_shifted_by_five(self):
        ts = np.arange(100)
        true = [FaultInterval(10, 29, "F")]
        pred = [FaultEvent(15, 34, "F")]
        assert event_confusion(pred, true, ts) == (5, 5)

    def test_label_mismatch_counts_both_ways(self):
        ts = np.arange(10)
        true = [FaultInterval(0, 4, "F1")]
        pred = [FaultEvent(0, 4, "F2")]
        assert event_confusion(pred, true, ts) == (5, 5)

    def test_non_integer_timestamps(self):
        ts = np.arange(20) * 0.5
        true = [FaultInterval(1.0, 2.0, "F")]       # ticks 1.0, 1.5, 2.0
        pred = [FaultEvent(1.5, 2.5, "F")]          # ticks 1.5, 2.0, 2.5
        assert event_confusion(pred, true, ts) == (1, 1)


class TestCoverage:
    def test_all_labels_is_union_of_each_label(self):
        ts = np.arange(40) * 0.5
        ivs = [FaultInterval(1, 4, "F1"), FaultInterval(3, 6.5, "F2"),
               FaultInterval(10, 12, "F1"), FaultInterval(12, 12, "F2")]
        union = coverage(ivs, ts, "F1") | coverage(ivs, ts, "F2")
        assert np.array_equal(coverage(ivs, ts), union)
        assert int(coverage(ivs, ts).sum()) == 17      # [1, 6.5] and [10, 12]
        assert not coverage(ivs, ts, "F3").any() and not coverage([], ts).any()

    def test_random_intervals_vs_tick_oracle(self):
        rng = Pcg32(12)
        ts = np.arange(60, dtype=float)
        for _ in range(20):
            ivs = []
            for _ in range(rng.randint(5)):
                s = float(rng.randint(60))
                ivs.append(FaultInterval(s, s + rng.randint(10), "AB"[rng.randint(2)]))
            for label in (None, "A", "B"):
                expected = [any(iv.t_start <= t <= iv.t_end for iv in ivs
                                if label is None or iv.label == label) for t in ts.tolist()]
                assert coverage(ivs, ts, label).tolist() == expected
