import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbfault import ingestion
from imbfault.core import FaultInterval
from imbfault.errors import DataError, LabelConflictError, ParseError, SchemaError
from imbfault.ingestion import (INTERVAL_COLUMNS, LabeledSeries, label_timestamps,
                                read_feature_csv, read_intervals_csv, read_labeled_csv,
                                read_timeseries_csv, write_feature_csv,
                                write_intervals_csv, write_labeled_csv)
from imbfault.core import FeatureMatrix, TimeSeriesFrame
from imbfault.rng import Pcg32


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadTimeseries:
    def test_small_file(self, tmp_path):
        p = _write(tmp_path / "s.csv", "t,a,b\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n")
        frame = read_timeseries_csv(p, "t", ["a", "b"])
        assert frame.n_ticks == 3 and frame.n_channels == 2
        assert np.array_equal(frame.values, [[1, 3, 5], [2, 4, 6]])

    def test_28_channel_file(self, tmp_path):
        cols = [f"c{i}" for i in range(28)]
        rng = Pcg32(0)
        lines = ["t," + ",".join(cols)]
        for t in range(5):
            lines.append(f"{t}," + ",".join(repr(rng.random()) for _ in cols))
        p = _write(tmp_path / "scada.csv", "\n".join(lines) + "\n")
        frame = read_timeseries_csv(p, "t", cols)
        assert frame.n_channels == 28

    def test_blank_cell_names_row(self, tmp_path):
        p = _write(tmp_path / "s.csv", "t,a\n0,1.0\n1,\n")
        with pytest.raises(ParseError, match="row 3"):
            read_timeseries_csv(p, "t", ["a"])

    def test_non_numeric_cell(self, tmp_path):
        p = _write(tmp_path / "s.csv", "t,a\n0,1.0\n1,oops\n")
        with pytest.raises(ParseError, match="row 3"):
            read_timeseries_csv(p, "t", ["a"])

    def test_short_row_names_row(self, tmp_path):
        p = _write(tmp_path / "s.csv", "timestamp,a,b\n0,1,2\n1,3\n")
        with pytest.raises(ParseError, match="short row.*row 3"):
            read_timeseries_csv(p, "timestamp", ["a", "b"])

    def test_channels_default_to_every_other_column(self, tmp_path):
        p = _write(tmp_path / "s.csv", "b,t,label,a\n3,1,N,4\n1,0,F,2\n")
        frame = read_timeseries_csv(p, "t")
        assert frame.channel_names == ("b", "a")
        assert np.array_equal(frame.values, [[1, 3], [2, 4]])

    def test_no_channels_rejected(self, tmp_path):
        p = _write(tmp_path / "s.csv", "t\n0\n1\n2\n")
        with pytest.raises(DataError, match="at least one channel"):
            read_timeseries_csv(p, "t", [])

    def test_missing_column(self, tmp_path):
        p = _write(tmp_path / "s.csv", "t,a\n0,1.0\n")
        with pytest.raises(SchemaError, match="missing columns"):
            read_timeseries_csv(p, "t", ["a", "zz"])

    def test_rows_sorted_and_duplicates_rejected(self, tmp_path):
        p = _write(tmp_path / "s.csv", "t,a\n2,3.0\n0,1.0\n1,2.0\n")
        frame = read_timeseries_csv(p, "t", ["a"])
        assert np.array_equal(frame.timestamps, [0, 1, 2])
        assert np.array_equal(frame.values[0], [1, 2, 3])
        p2 = _write(tmp_path / "d.csv", "t,a\n0,1.0\n0,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            read_timeseries_csv(p2, "t", ["a"])


    def test_nan_timestamp_rejected(self, tmp_path):
        p = _write(tmp_path / "s.csv", "timestamp,a\n0,1\nnan,2\n")
        with pytest.raises(DataError, match="finite"):
            read_timeseries_csv(p, "timestamp")

    def test_repeated_inf_timestamps_rejected(self, tmp_path):
        p = _write(tmp_path / "s.csv", "timestamp,a\n0,1\ninf,2\ninf,3\n")
        with pytest.raises(DataError, match="duplicate"):
            read_timeseries_csv(p, "timestamp")


BIG_CELL = "x" * 140_000        # over the csv module's 128 KiB field size limit


@pytest.mark.parametrize("reader, text, row", [
    (lambda p: read_timeseries_csv(p, "t"), f"t,a\n0,1\n1,{BIG_CELL}\n", 3),
    (read_labeled_csv, f"timestamp,a,label\n0,1,n\n1,{BIG_CELL},n\n", 3),
    (read_feature_csv, f"a,label\n{BIG_CELL},n\n", 2),
    (read_intervals_csv, f"t_start,t_end,label\n0,1,F\n2,3,{BIG_CELL}\n", 3),
    (read_intervals_csv, f"t_start,t_end,{BIG_CELL}\n", 1),
], ids=["series", "labeled", "features", "intervals", "interval_header"])
def test_oversized_cell_is_a_parse_error(tmp_path, reader, text, row):
    p = _write(tmp_path / "big.csv", text)
    with pytest.raises(ParseError, match=f"big.csv: .*field larger than field limit.* at row {row}$"):
        reader(p)


@pytest.mark.parametrize("reader, data", [
    (lambda p: read_timeseries_csv(p, "t"), b"t,a\n0,1\n1,2\xff\n"),
    (lambda p: read_timeseries_csv(p, "t"), b"t,\xffa\n0,1\n"),
    (read_labeled_csv, b"timestamp,a,label\n0,1,n\n1,2,\xff\n"),
    (read_feature_csv, b"a,label\n" + b"1,n\n" * 5000 + b"2,\xe9\n"),
    (read_intervals_csv, b"t_start,t_end,label\n0,1,F\xff\n"),
    (read_intervals_csv, b"\xfft_start,t_end,label\n"),
], ids=["series", "series_header", "labeled", "features_late", "intervals",
        "interval_header"])
def test_non_utf8_is_a_parse_error(tmp_path, reader, data):
    # features_late puts the bad byte past the decoder's first chunk, so the
    # header reads and the C reader fails first.
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(ParseError, match="bad.csv: not UTF-8 text"):
        reader(p)


class TestIntervals:
    def test_one_row(self, tmp_path):
        p = _write(tmp_path / "i.csv", "t_start,t_end,label\n100,200,F\n")
        ivs = read_intervals_csv(p)
        assert ivs == [FaultInterval(100, 200, "F")]

    def test_inverted_row(self, tmp_path):
        p = _write(tmp_path / "i.csv", "t_start,t_end,label\n200,100,F\n")
        with pytest.raises(DataError):
            read_intervals_csv(p)

    @pytest.mark.parametrize("row", ["nan,5,F", "0,inf,F", "-inf,5,F", "nan,nan,F"])
    def test_non_finite_bound(self, tmp_path, row):
        p = _write(tmp_path / "i.csv", f"t_start,t_end,label\n{row}\n")
        with pytest.raises(DataError, match="non-finite"):
            read_intervals_csv(p)

    def test_short_row_names_row(self, tmp_path):
        p = _write(tmp_path / "i.csv", "t_start,t_end,label\n0,1,F\n2,3\n")
        with pytest.raises(ParseError, match="short row.*row 3"):
            read_intervals_csv(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "i.csv", "")
        assert read_intervals_csv(p) == []

    def test_wrong_header(self, tmp_path):
        p = _write(tmp_path / "i.csv", "start,end,label\n0,1,F\n")
        with pytest.raises(SchemaError):
            read_intervals_csv(p)

    def test_round_trip(self, tmp_path):
        ivs = [FaultInterval(0.25, 7.5, "F1"), FaultInterval(9.0, 9.0, "F2")]
        p = tmp_path / "i.csv"
        write_intervals_csv(ivs, p)
        assert read_intervals_csv(p) == ivs


class TestLabelTimestamps:
    def _frame(self, n=10):
        return TimeSeriesFrame(np.arange(n), ("a",), [np.zeros(n)])

    def test_basic_labeling(self):
        series = label_timestamps(self._frame(), [FaultInterval(5, 7, "F")], "N")
        assert list(series.labels) == ["N"] * 5 + ["F"] * 3 + ["N"] * 2

    def test_no_intervals_all_default(self):
        series = label_timestamps(self._frame(), [], "N")
        assert set(series.labels) == {"N"}

    def test_conflicting_overlap(self):
        with pytest.raises(LabelConflictError):
            label_timestamps(self._frame(),
                             [FaultInterval(0, 4, "F1"), FaultInterval(3, 6, "F2")], "N")

    @pytest.mark.parametrize("ivs", [
        [FaultInterval(2, 5, "normal"), FaultInterval(4, 7, "F")],
        [FaultInterval(4, 7, "F"), FaultInterval(2, 5, "normal")],
    ])
    def test_default_label_interval_conflicts_in_either_order(self, ivs):
        with pytest.raises(LabelConflictError, match="timestamp 4.0 covered by labels"):
            label_timestamps(self._frame(), ivs, "normal")

    def test_same_label_overlap_merges_silently(self):
        series = label_timestamps(self._frame(),
                                  [FaultInterval(0, 4, "F"), FaultInterval(3, 6, "F")], "N")
        assert list(series.labels[:7]) == ["F"] * 7

    def test_idempotent(self):
        ivs = [FaultInterval(2, 5, "F")]
        once = label_timestamps(self._frame(), ivs, "N")
        relabeled = label_timestamps(once.frame, ivs, "N")
        assert list(once.labels) == list(relabeled.labels)

    def test_label_vector_length_checked(self):
        with pytest.raises(DataError):
            LabeledSeries(self._frame(), ["N"] * 3)


@pytest.mark.parametrize("reader,text", [
    (read_labeled_csv, "timestamp,a,label\n0,1.0,N\n1,2.0\n"),
    (read_feature_csv, "f0,f1,label\n1.0,2.0,a\n3.0,4.0\n"),
])
def test_short_row_names_row(tmp_path, reader, text):
    with pytest.raises(ParseError, match="short row.*row 3"):
        reader(_write(tmp_path / "s.csv", text))


class TestRoundTrips:
    def test_labeled_series_round_trip_bit_exact(self, tmp_path):
        rng = Pcg32(1)
        frame = TimeSeriesFrame(
            np.arange(20) + 0.5,
            ("a", "b"),
            [rng.normals(20), rng.normals(20) * 1e-7],
        )
        series = label_timestamps(frame, [FaultInterval(3, 8, "F")], "N")
        p = tmp_path / "ls.csv"
        write_labeled_csv(series, p)
        back = read_labeled_csv(p)
        assert np.array_equal(back.frame.timestamps, frame.timestamps)
        assert np.array_equal(back.frame.values, frame.values)
        assert list(back.labels) == list(series.labels)
        assert back.frame.channel_names == frame.channel_names

    def test_feature_csv_round_trip(self, tmp_path):
        rng = Pcg32(2)
        fm = FeatureMatrix(rng.normals(12).reshape(4, 3), ["a", "b", "a", "b"],
                           ("f0", "f1", "f2"))
        p = tmp_path / "f.csv"
        write_feature_csv(fm, p)
        back = read_feature_csv(p)
        assert np.array_equal(back.data, fm.data)
        assert list(back.labels) == list(fm.labels)
        assert back.feature_names == fm.feature_names

    def test_feature_csv_extras_ignored_on_read(self, tmp_path):
        fm = FeatureMatrix([[1.0], [2.0]], ["a", "b"], ("x",))
        p = tmp_path / "f.csv"
        write_feature_csv(fm, p, extra_columns={"synthetic": [0, 1]})
        back = read_feature_csv(p)
        assert back.feature_names == ("x",)
        assert back.n_rows == 2


# Fuzzing. The series, labeled and feature readers parse floats with numpy's
# C reader and hand a file it refuses to the row parser. Forcing the row
# parser (np.loadtxt raising ValueError) gives the oracle: on any CSV text
# both paths must give the same bytes or the same error type and message.

_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "-0.0", ".5", "1.", "+3", "1E-310", "1e400", "inf", "-nan"]),
)
# float() reads the first three, which numpy's C reader refuses.
_ODD_NUMBERS = st.sampled_from(["1_000", "٣", "１", "0x10", "nan(1)", "1e"])
_JUNK = st.sampled_from(["", "  ", "\t", "abc", "1 2", "1,5", '1"2', '"1"2', '"', '""',
                         "\x00", "1\x00", "﻿1", "\xa01　", "\x1c", "\n", "\r", "\r\n"])
_LABELS = st.sampled_from(["normal", "F1", " F2 ", "", "a b", "x,y", 'a"b', '"q', "\x00", "\t"])
_COLUMNS = ("t", "a", "b", "label", "timestamp")


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@st.composite
def _cell(draw, column, clean):
    odds = 2 if clean else draw(st.integers(0, 9))
    if column == "label":
        text = draw(_LABELS)
    else:
        text = draw(_JUNK if odds == 0 else _ODD_NUMBERS if odds == 1 else _NUMBERS)
    pad = st.sampled_from(["", "", " ", "\t"])
    text = draw(pad) + text + draw(pad)
    return _quoted(text) if draw(st.integers(0, 4)) == 0 else text


@st.composite
def _csv_text(draw, header):
    """CSV text under `header`: numeric rows, some lengthened or blank and,
    unless the file is drawn clean, some cut short or spoiled, with \\n,
    \\r\\n or \\r line ends."""
    header = list(header)
    clean = draw(st.booleans())
    kinds = ["row"] * 6 + ["long", "blank", "blanks"] + ([] if clean else ["short", "junk"])
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.lists(st.sampled_from(_COLUMNS), max_size=4))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)] if header or draw(st.booleans()) else []
    for row in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        if kind == "blanks":
            lines.append(",".join(draw(st.lists(st.sampled_from(["", " ", '""']),
                                                min_size=2, max_size=5))))
            continue
        cells = [str(row) if clean and column in ("t", "timestamp") else draw(_cell(column, clean))
                 for column in header]
        if kind == "short":
            cells = cells[:draw(st.integers(0, max(len(cells) - 1, 0)))]
        elif kind == "long":
            cells += draw(st.lists(st.one_of(_NUMBERS, _JUNK, _LABELS), min_size=1, max_size=3))
        elif kind == "junk" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_JUNK)
        lines.append(",".join(cells))
    return sep.join(lines) + (sep if draw(st.booleans()) else "")


def _outcome(read, path):
    """A reader's result as comparable bytes and strings, or its error."""
    try:
        out = read(path)
    except Exception as exc:
        return ("error", type(exc), str(exc))
    frame = getattr(out, "frame", out)
    if isinstance(frame, TimeSeriesFrame):
        arrays = (frame.timestamps, frame.values)
        names = frame.channel_names
    else:
        arrays, names = (out.data,), out.feature_names
    labels = list(getattr(out, "labels", []))
    return ("ok", [(a.shape, a.tobytes()) for a in arrays], names, labels)


def _refuse(*args, **kwargs):
    raise ValueError("refused")


def _assert_same_as_row_parser(read, path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    got = _outcome(read, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingestion.np, "loadtxt", _refuse)
        want = _outcome(read, path)
    assert got == want


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "in.csv")


_FUZZ = settings(max_examples=200, deadline=None)


@pytest.mark.parametrize("channels", [None, ["a"], ["b", "a"]])
@_FUZZ
@given(text=_csv_text(("t", "a", "b")))
def test_fuzz_timeseries_reader_matches_row_parser(fuzz_path, channels, text):
    _assert_same_as_row_parser(lambda p: read_timeseries_csv(p, "t", channels), fuzz_path, text)


@_FUZZ
@given(text=_csv_text(("timestamp", "a", "label")))
def test_fuzz_labeled_reader_matches_row_parser(fuzz_path, text):
    _assert_same_as_row_parser(read_labeled_csv, fuzz_path, text)


@_FUZZ
@given(text=_csv_text(("a", "b", "label", "t")))
def test_fuzz_feature_reader_matches_row_parser(fuzz_path, text):
    _assert_same_as_row_parser(read_feature_csv, fuzz_path, text)


@_FUZZ
@given(text=st.one_of(_csv_text(INTERVAL_COLUMNS), st.text(max_size=40)))
def test_fuzz_intervals_reader_returns_list_or_data_error(fuzz_path, text):
    with open(fuzz_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    try:
        out = read_intervals_csv(fuzz_path)
    except DataError:
        return
    assert isinstance(out, list) and all(isinstance(iv, FaultInterval) for iv in out)


def test_well_formed_files_skip_the_row_parser(tmp_path, monkeypatch):
    """Quoted cells, padding, CRLF and blank lines are all the C reader's."""
    text = 't,a,label\r\n\r\n" 1.5",1e3,"F,1"\r\n2 ,-0.0, N \r\n'
    p = _write(tmp_path / "s.csv", text)
    monkeypatch.setattr(ingestion, "_parse_float", None)
    assert read_timeseries_csv(p, "t").values.tolist() == [[1000.0, -0.0]]
    assert list(read_labeled_csv(p, "t").labels) == ["F,1", "N"]
    fm = read_feature_csv(p)
    assert fm.data.tolist() == [[1.5, 1000.0], [2.0, -0.0]] and list(fm.labels) == ["F,1", "N"]


@pytest.mark.parametrize("c_reader", [True, False], ids=["c_reader", "row_parser"])
def test_label_nul_reads_the_same_in_every_reader(tmp_path, monkeypatch, c_reader):
    """A str array would drop the trailing NUL that an object array keeps."""
    p = _write(tmp_path / "s.csv", "t,a,label\n0,1.0,F\x00\n1,2.0,N\n")
    if not c_reader:
        monkeypatch.setattr(ingestion.np, "loadtxt", _refuse)
    assert list(read_feature_csv(p).labels) == ["F\x00", "N"]
    assert list(read_labeled_csv(p, "t").labels) == ["F\x00", "N"]


@pytest.mark.parametrize("cell", ["1_000", "٣"])
def test_cells_only_float_accepts_are_read(tmp_path, cell):
    p = _write(tmp_path / "s.csv", f"t,a\n0,{cell}\n1,2\n")
    assert read_timeseries_csv(p, "t").values[0, 0] == float(cell)
