"""CSV ingestion: time-series files, fault-interval files, label joining.

Files are UTF-8 (else a ParseError), comma-separated, with a header row.
Interval files carry exactly the columns ``t_start,t_end,label``. Floats are
written with ``repr`` so a write/read round trip is bit-exact.

The series, labeled and feature readers parse their float columns with
numpy's C reader (``np.loadtxt``). Where it refuses a file, the row parser
reads it again: that parser names the offending row in its ParseError,
accepts every cell ``float()`` accepts (``1_000``, non-ASCII digits) and
skips rows whose cells are all blank, so both paths accept the same files
with the same values and reject the same files with the same error.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FaultInterval, FeatureMatrix, TimeSeriesFrame, as_labels
from .errors import DataError, LabelConflictError, ParseError, SchemaError

INTERVAL_COLUMNS = ("t_start", "t_end", "label")


@dataclass(frozen=True)
class LabeledSeries:
    """A TimeSeriesFrame plus one class label per timestamp."""

    frame: TimeSeriesFrame
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", as_labels(self.labels))
        if len(self.labels) != self.frame.n_ticks:
            raise DataError("label vector length must equal timestamp count")


def _parse_float(cell: str, row_num: int, column: str) -> float:
    cell = cell.strip()
    if cell == "":
        raise ParseError(f"blank cell in column {column!r} at row {row_num}")
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"non-numeric cell {cell!r} in column {column!r} at row {row_num}") from None


def _csv_rows(fh, path):
    """The csv module's rows of fh; a row it refuses, such as one with a cell
    over its field size limit, is a ParseError naming the file and the row,
    and so is text that is not UTF-8."""
    row_num = 1
    try:
        for row in csv.reader(fh):
            yield row
            row_num += 1
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc} at row {row_num}") from None
    except UnicodeDecodeError as exc:
        # The decoder reads ahead, so the row it fails in is not known.
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_header(reader, path) -> list:
    """The header row's stripped cells; an empty file is a SchemaError."""
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise SchemaError(f"{path}: empty file, header row required") from None


def _data_rows(reader, width: int, path):
    """(row number, row) of each non-blank data row; a row with fewer than
    `width` cells is a ParseError naming it."""
    for row_num, row in enumerate(reader, start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        if len(row) < width:
            raise ParseError(f"{path}: short row, {len(row)} of {width} cells, at row {row_num}")
        yield row_num, row


def _rows_after_header(fh, path):
    """An iterator over fh's data rows: fh is rewound and its header row
    read and dropped."""
    fh.seek(0)
    reader = _csv_rows(fh, path)
    next(reader)
    return reader


def _read_cells(fh, path, cols: list, names: list, label_col: int | None = None):
    """The float cells of columns `cols` (named `names`) of every data row,
    shape (rows, len(cols)), and the stripped cells of `label_col` as an
    object array of `str` (none without one), so no trailing NUL is lost.

    numpy's C reader parses the floats and, as Python strings, the labels,
    in one pass. When it refuses the file or finds no row, the row parser
    reads it instead and raises the ParseError or DataError that names the
    row; so it does with no `cols`, where the C reader would count all-blank
    rows."""
    if label_col is None:
        dtype, usecols, ndmin = float, cols, 2
    else:   # ndmin=1 keeps a one-row file's records 1-d
        dtype, usecols, ndmin = [("v", float, (len(cols),)), ("l", object)], [*cols, label_col], 1
    cells = []
    if cols:
        _rows_after_header(fh, path)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                cells = np.loadtxt(fh, dtype=dtype, delimiter=",", usecols=usecols,
                                   comments=None, quotechar='"', ndmin=ndmin)
            except ValueError:
                pass
    if len(cells) and label_col is None:
        return cells, []
    if len(cells):
        return cells["v"], np.array([label.strip() for label in cells["l"]], dtype=object)
    width = max([*cols, -1 if label_col is None else label_col]) + 1
    rows, labels = [], []
    for row_num, row in _data_rows(_rows_after_header(fh, path), width, path):
        rows.append([_parse_float(row[j], row_num, names[k]) for k, j in enumerate(cols)])
        if label_col is not None:
            labels.append(row[label_col].strip())
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), np.array(labels, dtype=object)


def read_timeseries_csv(path, timestamp_col: str, channel_cols=None) -> TimeSeriesFrame:
    """Read a multichannel series; rows are sorted by timestamp.

    Channels are parsed in the declared order; `None` means every header
    column but the timestamp and `label`, in header order. Duplicate
    timestamps are an error because the sliced windows would be ambiguous.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(_csv_rows(fh, path), path)
        if channel_cols is None:
            channel_cols = [c for c in header if c not in (timestamp_col, "label")]
        channel_cols = list(channel_cols)
        names = [timestamp_col] + channel_cols
        missing = [c for c in names if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        cells, _ = _read_cells(fh, path, [header.index(c) for c in names], names)
    order = np.argsort(cells[:, 0], kind="stable")
    ts, values = cells[order, 0], cells[order, 1:].T
    if np.any(ts[1:] == ts[:-1]):
        raise DataError(f"{path}: duplicate timestamps after sorting")
    return TimeSeriesFrame(timestamps=ts, channel_names=tuple(channel_cols), values=values)


def read_intervals_csv(path) -> list:
    """Read fault intervals; a zero-byte file yields an empty list."""
    intervals = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            return []
        header = tuple(h.strip() for h in header)
        if header != INTERVAL_COLUMNS:
            raise SchemaError(f"{path}: interval header must be {','.join(INTERVAL_COLUMNS)}")
        for row_num, row in _data_rows(reader, len(INTERVAL_COLUMNS), path):
            t0 = _parse_float(row[0], row_num, "t_start")
            t1 = _parse_float(row[1], row_num, "t_end")
            label = row[2].strip()
            if label == "":
                raise ParseError(f"{path}: blank label at row {row_num}")
            intervals.append(FaultInterval(t0, t1, label))
    return intervals


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the header row, then `rows`, whose cells are
    already text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_intervals_csv(intervals, path) -> None:
    write_csv(path, INTERVAL_COLUMNS,
              ([repr(float(iv.t_start)), repr(float(iv.t_end)), iv.label] for iv in intervals))


def label_timestamps(frame: TimeSeriesFrame, intervals, default_label: str = "normal") -> LabeledSeries:
    """Assign each timestamp the label of any interval containing it
    (inclusive bounds), else the default.

    Same-label overlaps merge silently; a timestamp covered by two
    different labels raises LabelConflictError. Idempotent by construction.
    """
    ts = frame.timestamps
    labels = np.array([default_label] * len(ts), dtype=object)
    covered = np.zeros(len(ts), dtype=bool)    # ticks some interval has labelled
    for iv in intervals:
        mask = iv.covers(ts)
        clash = mask & covered & (labels != iv.label)
        if np.any(clash):
            t_bad = ts[clash][0]
            raise LabelConflictError(
                f"timestamp {t_bad} covered by labels {labels[clash][0]!r} and {iv.label!r}"
            )
        labels[mask] = iv.label
        covered |= mask
    return LabeledSeries(frame=frame, labels=labels)


def write_labeled_csv(series: LabeledSeries, path, timestamp_col: str = "timestamp") -> None:
    """Write timestamp, channels..., label. Floats use repr (round-trip exact)."""
    frame = series.frame
    rows = ([repr(float(t)), *[repr(float(v)) for v in values], label]
            for t, values, label in zip(frame.timestamps, frame.values.T, series.labels))
    write_csv(path, [timestamp_col, *frame.channel_names, "label"], rows)


def read_labeled_csv(path, timestamp_col: str = "timestamp") -> LabeledSeries:
    """Inverse of write_labeled_csv; channel order is taken from the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(_csv_rows(fh, path), path)
        if timestamp_col not in header or "label" not in header:
            raise SchemaError(f"{path}: need {timestamp_col!r} and 'label' columns")
        names = [timestamp_col] + [c for c in header if c not in (timestamp_col, "label")]
        cells, labels = _read_cells(fh, path, [header.index(c) for c in names], names,
                                    header.index("label"))
    frame = TimeSeriesFrame(cells[:, 0], tuple(names[1:]), cells[:, 1:].T)
    return LabeledSeries(frame=frame, labels=labels)


def write_feature_csv(fm, path, extra_columns=None) -> None:
    """Feature matrix CSV: feature columns, then `label`, then any extras.

    extra_columns: optional dict name -> sequence (e.g. a synthetic flag).
    """
    extras = extra_columns or {}
    rows = ([*[repr(float(v)) for v in fm.data[i]], fm.labels[i],
             *[str(col[i]) for col in extras.values()]] for i in range(fm.n_rows))
    write_csv(path, [*fm.feature_names, "label", *extras.keys()], rows)


def read_feature_csv(path):
    """Read a feature CSV written by write_feature_csv; extras are ignored."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(_csv_rows(fh, path), path)
        if "label" not in header:
            raise SchemaError(f"{path}: missing 'label' column")
        l_i = header.index("label")
        feature_names = header[:l_i]
        data, labels = _read_cells(fh, path, list(range(l_i)), feature_names, l_i)
    return FeatureMatrix(data, labels, tuple(feature_names))
