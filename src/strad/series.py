"""Core series containers: CSV ingestion, normalization, windowing, label segments.

All types are immutable after construction (backing arrays are marked
read-only), so they can be shared freely between threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    MissingColumnError,
    NonBinaryLabelError,
    NonFiniteValueError,
    NonNumericCellError,
    ShapeMismatchError,
)

# Channels with (population) standard deviation below this floor are stored
# with std equal to the floor, so constant channels normalize to zero instead
# of dividing by zero.
STD_FLOOR = 1e-8


def is_binary(a: np.ndarray) -> bool:
    """Whether every entry of `a` equals 0 or 1; callers ask before casting to
    int, which would turn 0.5 into an accepted 0."""
    return bool(((a == 0) | (a == 1)).all())


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSeries:
    """A real-valued series of shape (length, channels) with optional 0/1 labels.

    Parameters
    ----------
    values : array (M, d)
        One row per time point. 1-D input is promoted to a single channel.
    labels : array (M,), optional
        Per-point anomaly indicator, values in {0, 1}.
    name : str
        Identifier used in reports and file names.
    """

    values: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "series"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise DataError(f"values must be 1-D or 2-D, got ndim={values.ndim}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"values must be non-empty, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
            raise NonFiniteValueError(f"non-finite value at row {bad} of series {self.name!r}")
        object.__setattr__(self, "values", _readonly(values))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (values.shape[0],):
                raise DataError(
                    f"labels length {labels.shape} does not match series length {values.shape[0]}"
                )
            if not is_binary(labels):
                raise NonBinaryLabelError("labels must contain only 0 and 1")
            object.__setattr__(self, "labels", _readonly(np.asarray(labels, dtype=np.int64)))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel mean and clamped population standard deviation."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), >= STD_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "mean", _readonly(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(self, "std", _readonly(np.asarray(self.std, dtype=np.float64)))
        if (self.std < STD_FLOOR).any():
            raise DataError("std entries must be clamped to at least the floor")


@dataclass(frozen=True, order=True)
class Segment:
    """An inclusive index range [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise DataError(f"invalid segment ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def read_text(path, decode_error: type[Exception]) -> str:
    """The whole text of `path`, with its line ends as written (newline="").

    A path that names no readable regular file, such as a directory, raises
    FileNotFoundError; bytes that do not decode raise `decode_error`.
    """
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file: {path}") from None
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise FileNotFoundError(f"{path}: not a readable file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise decode_error(f"{path}: cannot decode: {exc}") from None


def load_csv(
    path,
    value_columns: Sequence[str],
    label_column: Optional[str] = None,
    name: Optional[str] = None,
) -> TimeSeries:
    """The `TimeSeries` of `load_columns`; an empty `label_column` means none, as None does."""
    values, labels = load_columns(path, value_columns, label_column or None)
    return TimeSeries(values=values, labels=labels, name=name or Path(path).stem)


def load_columns(path, value_columns: Sequence[str], label_column: Optional[str]):
    """(values, labels) of a headed CSV file's named columns; labels is None if `label_column` is.

    Row order defines time order; there is no timestamp parsing. Lines
    starting with '#' are treated as provenance comments and skipped. Value
    cells are parsed as finite decimal floats into a (rows, columns) array,
    the label column as integer 0/1; no other column is parsed.

    A plain file (no quotes, no carriage returns, every row as wide as the
    header), as strad writes them, is parsed a whole column at a time; any
    other file, or any cell the column pass rejects, goes through the
    row-by-row parse, which names the first bad row and column. Both give
    the same arrays.

    Raises
    ------
    FileNotFoundError
        If `path` does not name a readable file.
    DataError
        If the file is not valid text.
    MissingColumnError, NonNumericCellError, NonBinaryLabelError,
    NonFiniteValueError
        On the corresponding malformed content, naming row and column.
    """
    text = read_text(path, DataError)
    return (_parse_columns(text, value_columns, label_column)
            or _parse_rows(Path(path), text, value_columns, label_column))


def _parse_columns(text: str, value_columns: Sequence[str], label_column: Optional[str]):
    """(values, labels) of a plain file in one pass per column, or None.

    None means the row loop must decide: it accepts everything accepted here,
    with bit-identical results, and alone raises the errors that name a cell.
    Every data row must hold exactly as many commas as the header; that is
    checked by one vectorized pass over the text's commas and line ends.
    """
    if '"' in text or "\r" in text:
        return None
    lines = [ln for ln in text.split("\n") if ln and ln[0] != "#"]
    if len(lines) < 2:
        return None
    header, data = lines[0].split(","), lines[1:]
    col_index = {c: i for i, c in enumerate(header)}
    wanted = list(value_columns) + ([] if label_column is None else [label_column])
    if any(c not in col_index for c in wanted):
        return None
    # a row the csv module would split differently, or a line long enough to
    # hold a cell over the csv module's field limit. In UTF-8 no byte of a
    # multi-byte character is "," or "\n", so the separators read in order
    # must be, row after row, ncol - 1 commas and a line end.
    ncol = len(header)
    joined = "\n".join(data)
    chars = np.frombuffer(joined.encode(), np.uint8)
    marks = np.append(chars[(chars == ord(",")) | (chars == ord("\n"))], ord("\n"))
    if (marks.size != ncol * len(data)
            or (marks.reshape(-1, ncol)[:, :-1] != ord(",")).any()
            or max(map(len, data)) > csv.field_size_limit()):
        return None
    cells = joined.replace("\n", ",").split(",")
    values = np.empty((len(data), len(value_columns)), dtype=np.float64)
    try:
        for j, col in enumerate(value_columns):
            values[:, j] = np.fromiter(map(float, cells[col_index[col]::ncol]), np.float64,
                                       len(data))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    if label_column is None:
        return values, None
    stripped = [c.strip() for c in cells[col_index[label_column]::ncol]]
    if not set(stripped) <= {"0", "1"}:
        return None
    return values, np.array(stripped, dtype=np.int64)


def _parse_rows(path: Path, text: str, value_columns: Sequence[str],
                label_column: Optional[str]):
    """(values, labels) by the csv module, one cell at a time."""
    try:
        rows = [r for r in csv.reader(io.StringIO(text, newline=""))
                if r and not r[0].startswith("#")]
    except csv.Error as exc:  # such as a cell over `csv.field_size_limit()`
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no header row")
    header, data_rows = rows[0], rows[1:]
    col_index = {c: i for i, c in enumerate(header)}
    wanted = list(value_columns) + ([] if label_column is None else [label_column])
    for col in wanted:
        if col not in col_index:
            raise MissingColumnError(f"{path}: column {col!r} not in header {header}")
    if not data_rows:
        raise DataError(f"{path}: no data rows")

    width = max(col_index[c] for c in wanted) + 1 if wanted else 0
    values = np.empty((len(data_rows), len(value_columns)), dtype=np.float64)
    labels = None if label_column is None else np.empty(len(data_rows), dtype=np.int64)
    for i, row in enumerate(data_rows):
        if len(row) < width:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        for j, col in enumerate(value_columns):
            cell = row[col_index[col]]
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCellError(
                    f"{path}: row {i}, column {col!r}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(v):
                raise NonFiniteValueError(f"{path}: row {i}, column {col!r}: non-finite value")
            values[i, j] = v
        if labels is not None:
            cell = row[col_index[label_column]].strip()
            try:
                lab = int(cell)
            except ValueError:
                lab = -1
            if lab not in (0, 1):
                raise NonBinaryLabelError(
                    f"{path}: row {i}, column {label_column!r}: {cell!r} is not 0/1"
                )
            labels[i] = lab
    return values, labels


def fit_normalization(series: TimeSeries) -> NormalizationStats:
    """Per-channel mean and population standard deviation (divide by M)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mean = series.values.mean(axis=0)
        std = series.values.std(axis=0)  # population formula
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise DataError(f"{series.name}: channel {bad[0]} has a mean or std that overflows")
    std = np.maximum(std, STD_FLOOR)
    return NormalizationStats(mean=mean, std=std)


def apply_normalization(series: TimeSeries, stats: NormalizationStats) -> TimeSeries:
    """Return a z-scored copy of `series`; labels are carried over unchanged."""
    if stats.mean.shape[0] != series.channels:
        raise ShapeMismatchError(
            f"stats have {stats.mean.shape[0]} channels, series has {series.channels}"
        )
    values = (series.values - stats.mean) / stats.std
    return TimeSeries(values=values, labels=series.labels, name=series.name)


def sliding_windows(series: TimeSeries, length: int, stride: int = 1) -> np.ndarray:
    """Cut the series into N = floor((M - t)/stride) + 1 windows of length t.

    Returns one read-only (N, t, d) view of the parent array, not a copy;
    window k covers rows [k*stride, k*stride + t).
    """
    if length < 1:
        raise DataError(f"window length must be >= 1, got {length}")
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    if length > series.length:
        raise DataError(f"window length {length} exceeds series length {series.length}")
    # (M - t + 1, d, t) -> every stride-th window -> (N, t, d); still a view
    view = np.lib.stride_tricks.sliding_window_view(series.values, length, axis=0)
    return view[::stride].swapaxes(1, 2)


def segments_from_labels(labels) -> list[Segment]:
    """Maximal runs of 1s as inclusive segments, in index order."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DataError("labels must be 1-D")
    if not is_binary(labels):
        raise NonBinaryLabelError("labels must contain only 0 and 1")
    padded = np.concatenate(([0], np.asarray(labels, dtype=np.int64), [0]))
    delta = np.diff(padded)
    starts = np.flatnonzero(delta == 1)
    ends = np.flatnonzero(delta == -1) - 1
    return [Segment(int(s), int(e)) for s, e in zip(starts, ends)]


def labels_from_segments(segments: Sequence[Segment], length: int) -> np.ndarray:
    """Expand inclusive segments back into a binary label array."""
    labels = np.zeros(length, dtype=np.int64)
    for seg in segments:
        if seg.end >= length:
            raise DataError(f"segment ({seg.start}, {seg.end}) exceeds length {length}")
        labels[seg.start : seg.end + 1] = 1
    return labels
