"""Core series containers: CSV ingestion, normalization, windowing, label segments.

All types are immutable after construction (backing arrays are marked
read-only), so they can be shared freely between threads.
"""

from __future__ import annotations

import csv
import io
import locale
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, ShapeMismatchError

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
            raise DataError(f"non-finite value at row {bad} of series {self.name!r}")
        object.__setattr__(self, "values", _readonly(values))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (values.shape[0],):
                raise DataError(
                    f"labels length {labels.shape} does not match series length {values.shape[0]}"
                )
            if not is_binary(labels):
                raise DataError("labels must contain only 0 and 1")
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


def read_bytes(path, inputs: Optional[dict] = None) -> bytes:
    """The bytes of `path`, as written.

    With `inputs`, a dict of path -> bytes that the caller keeps, a path is
    opened only if it is not a key yet, and its bytes are then added: every
    reader of that path in one call sees the same bytes. A path that names
    no readable regular file, such as a directory, raises FileNotFoundError.
    """
    if inputs is not None and path in inputs:
        return inputs[path]
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file: {path}") from None
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise FileNotFoundError(f"{path}: not a readable file ({exc.strerror})") from None
    if inputs is not None:
        inputs[path] = raw
    return raw


def decode(path, raw: bytes, decode_error: type[Exception]) -> str:
    """`raw` as text in the encoding `open` uses, line ends kept; `decode_error` if it fails."""
    try:
        return raw.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError as exc:
        raise decode_error(f"{path}: cannot decode: {exc}") from None


def read_text(path, decode_error: type[Exception]) -> str:
    """The whole text of `path`, with its line ends as written; see `read_bytes` and `decode`."""
    return decode(path, read_bytes(path), decode_error)


def encode(path, text: str) -> bytes:
    """`text` in the encoding `open` uses, which `decode` reads; DataError naming `path` if not."""
    try:
        return text.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError as exc:
        raise DataError(f"{path}: cannot encode: {exc}") from None


def write_text(path, text: str | bytes) -> None:
    """Write `text` to `path` as `open(path, "w")` would, but rewrite an existing file in place.

    The whole text is encoded first (`encode`), so text the encoding cannot
    hold raises DataError before the file is opened; `bytes` are written as
    given, for a caller that has encoded its text already. The file is opened
    without O_TRUNC, written, and cut to the length written: the bytes, and an
    existing file's inode, mode and links, are those `open(path, "w")` leaves,
    and a new file gets mode 0o666 less the umask. Truncating a file to zero
    makes ext4 start writeback at close (its `auto_da_alloc` rule); rewriting
    in place does not. A crash before writeback may leave old and new bytes
    mixed, where truncation could leave the file empty.
    """
    raw = text if isinstance(text, bytes) else encode(path, text)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        view = memoryview(raw)
        while view:
            view = view[os.write(fd, view):]
        if regular:  # O_TRUNC does nothing to a FIFO or device, and ftruncate fails there
            os.ftruncate(fd, len(raw))
    finally:
        os.close(fd)


def load_csv(
    path,
    value_columns: Sequence[str],
    label_column: Optional[str] = None,
    name: Optional[str] = None,
) -> TimeSeries:
    """The `TimeSeries` of `load_columns`; an empty `label_column` means none, as None does."""
    values, labels = load_columns(path, value_columns, label_column or None)
    return TimeSeries(values=values, labels=labels, name=name or Path(path).stem)


def load_columns(path, value_columns: Sequence[str], label_column: Optional[str],
                 inputs: Optional[dict] = None):
    """(values, labels) of a headed CSV file's named columns; labels is None if `label_column` is.

    Row order defines time order; there is no timestamp parsing. Lines
    starting with '#' are treated as provenance comments and skipped. Value
    cells are parsed as finite decimal floats into a (rows, columns) array,
    the label column as 0/1: a label cell must be `0` or `1`, give or take
    surrounding whitespace. No other column is parsed. The file is read
    through `read_bytes`, so `inputs` lets several reads share one open.

    A plain file, as strad writes them, is parsed by one pass over its bytes
    (`_parse_columns`); any other file, or any cell that pass does not
    accept, goes through the row-by-row parse, which names the first bad row
    and column. Both give the same arrays.

    Raises
    ------
    FileNotFoundError
        If `path` does not name a readable file.
    DataError
        If the file is not valid text, or on malformed content, naming row and column.
    """
    raw = read_bytes(path, inputs)
    return (_parse_columns(raw, value_columns, label_column)
            or _parse_rows(Path(path), decode(path, raw, DataError), value_columns, label_column))


def _parse_columns(raw: bytes, value_columns: Sequence[str], label_column: Optional[str]):
    """(values, labels) of a plain file in one pass over its bytes, or None.

    None means the row loop must decide: it accepts everything accepted here,
    with bit-identical results, and alone raises the errors that name a cell.
    A plain file is ASCII without quotes or carriage returns, no line of it
    is longer than the csv module's field limit, and no line after its
    header (the first line that is neither blank nor a '#' comment) is blank
    or a comment. Every data row holds exactly as many commas as the header.
    Value cells become strings for `float` only if a value column is asked
    for; a label cell must be the one byte `0` or `1`, read as it is.
    """
    if not raw.isascii() or b'"' in raw or b"\r" in raw:
        return None
    chars = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", np.uint8)
    newline = chars == ord("\n")
    line_ends = np.flatnonzero(newline)
    line_starts = np.concatenate(([0], line_ends[:-1] + 1))
    first = chars[line_starts]
    skipped = (first == ord("\n")) | (first == ord("#"))  # blank or comment lines
    h = int(np.argmin(skipped))  # the header line
    if (skipped[h] or h + 1 == line_ends.size or skipped[h + 1:].any()
            or (line_ends - line_starts).max() > csv.field_size_limit()):
        return None
    header = raw[line_starts[h]:line_ends[h]].decode().split(",")
    col_index = {c: i for i, c in enumerate(header)}
    wanted = list(value_columns) + ([] if label_column is None else [label_column])
    if any(c not in col_index for c in wanted):
        return None
    body = chars[line_starts[h + 1]:]
    # In order, the separators of each row must be ncol - 1 commas and a line end.
    ncol, nrows = len(header), line_ends.size - h - 1
    seps = np.flatnonzero(newline[line_starts[h + 1]:] | (body == ord(",")))
    if seps.size != ncol * nrows or (body[seps.reshape(nrows, ncol)[:, :-1]] != ord(",")).any():
        return None

    values = np.empty((nrows, len(value_columns)), dtype=np.float64)
    if value_columns:
        # one split into every cell: on a 1,000-row score file it took half
        # the time of picking out one column's bytes first
        cells = body[:-1].tobytes().decode().replace("\n", ",").split(",")
        try:
            for j, col in enumerate(value_columns):
                values[:, j] = np.fromiter(map(float, cells[col_index[col]::ncol]), np.float64,
                                           nrows)
        except ValueError:
            return None
        if not np.isfinite(values).all():
            return None
    if label_column is None:
        return values, None
    cell = np.arange(nrows) * ncol + col_index[label_column]  # each label cell's index
    starts = np.concatenate(([0], seps[:-1] + 1))[cell]
    labels = body[starts]
    if ((seps[cell] - starts != 1) | ((labels != ord("0")) & (labels != ord("1")))).any():
        return None
    return values, (labels - ord("0")).astype(np.int64)


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
            raise DataError(f"{path}: column {col!r} not in header {header}")
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
                raise DataError(f"{path}: row {i}, column {col!r}: {cell!r} is not numeric") from None
            if not math.isfinite(v):
                raise DataError(f"{path}: row {i}, column {col!r}: non-finite value")
            values[i, j] = v
        if labels is not None:
            cell = row[col_index[label_column]].strip()
            if cell not in ("0", "1"):  # not `int`, which takes "+1", "01" and "0_0"
                raise DataError(f"{path}: row {i}, column {label_column!r}: {cell!r} is not 0/1")
            labels[i] = cell == "1"
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


def segments_from_labels(labels) -> np.ndarray:
    """The maximal runs of 1s in a 1-D 0/1 array, in order: one (k, 2) int64
    array of inclusive (start, end) rows."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DataError("labels must be 1-D")
    if not is_binary(labels):
        raise DataError("labels must contain only 0 and 1")
    padded = np.concatenate(([0], np.asarray(labels, dtype=np.int64), [0]))
    # the value changes alternate: up at each start, down one past each end
    segments = np.flatnonzero(np.diff(padded)).reshape(-1, 2)
    segments[:, 1] -= 1
    return segments
