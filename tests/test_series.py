import csv
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from strad.detector import ScoreSeries, threshold_best_f1

from strad.errors import (
    DataError,
    MissingColumnError,
    NonBinaryLabelError,
    NonFiniteValueError,
    NonNumericCellError,
    ShapeMismatchError,
)
from strad.experiments import read_scores_csv, write_scores_csv, write_series_csv
from strad.metrics import rpa_counts
from strad.series import (
    STD_FLOOR,
    TimeSeries,
    apply_normalization,
    fit_normalization,
    _parse_columns,
    _parse_rows,
    load_columns,
    load_csv,
    segments_from_labels,
    sliding_windows,
    write_text,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_single_value_column(self, tmp_path):
        path = write_csv(tmp_path, "v\n1.0\n2.0\n3.0\n")
        ts = load_csv(path, ["v"])
        assert ts.length == 3 and ts.channels == 1
        assert np.array_equal(ts.values[:, 0], [1.0, 2.0, 3.0])
        assert ts.labels is None

    def test_labels_attached_verbatim(self, tmp_path):
        path = write_csv(tmp_path, "v,label\n1,0\n2,1\n3,0\n")
        ts = load_csv(path, ["v"], label_column="label")
        assert np.array_equal(ts.labels, [0, 1, 0])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "v\n1.0\nabc\n")
        with pytest.raises(NonNumericCellError, match=r"row 1.*'v'"):
            load_csv(path, ["v"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", ["v"])

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "a\n1\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, ["v"])

    def test_non_binary_label(self, tmp_path):
        path = write_csv(tmp_path, "v,label\n1,2\n")
        with pytest.raises(NonBinaryLabelError):
            load_csv(path, ["v"], label_column="label")

    def test_non_finite_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "v\n1.0\nnan\n")
        with pytest.raises(NonFiniteValueError):
            load_csv(path, ["v"])

    def test_column_order_and_row_order_preserved(self, tmp_path):
        path = write_csv(tmp_path, "b,a\n1,10\n2,20\n")
        ts = load_csv(path, ["a", "b"])
        assert np.array_equal(ts.values, [[10.0, 1.0], [20.0, 2.0]])

    def test_leading_comment_lines_skipped(self, tmp_path):
        path = write_csv(tmp_path, "# config=abc seed=0\nv\n5.0\n")
        ts = load_csv(path, ["v"])
        assert ts.length == 1


# Cells that the column pass must either read exactly as `float`/`int` do,
# or leave to the row loop: quoting, padding, underscores, non-ASCII digits,
# non-finite and out-of-range values, and labels that only `int` accepts.
ODD_CELLS = ['"0.5"', " 0.5 ", "\t1", "", " ", "abc", "nan", "inf", "-inf", "1e400",
             "4.9e-324", "-0", "1_000", "\u0661", "+1", "01", " 1", "1 ", "2", "1.0", "0x1"]


@st.composite
def csv_cases(draw):
    """(text, value_columns, label_column): a valid strad-like file, then mutations."""
    ncol = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(ncol)]
    label = draw(st.sampled_from([None, *header]))  # first, middle or last column
    finite = st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__)
    rows = [[draw(st.sampled_from(["0", "1"])) if h == label else draw(finite) for h in header]
            for _ in range(draw(st.integers(0, 6)))]
    # no value column is the label read of `strad eval`
    value_columns = draw(st.lists(st.sampled_from(header), min_size=label is None, max_size=3))
    value_columns += draw(st.sampled_from([[]] * 9 + [["absent"]]))
    lines = [",".join(r) for r in rows]
    newline = "\n"
    for kind, at, value in draw(st.lists(
            st.tuples(st.sampled_from(["cell", "cell", "cell", "quote", "drop", "comma",
                                       "comment", "blank", "crlf"]),
                      st.integers(0, 24), st.sampled_from(ODD_CELLS)), max_size=3)):
        if kind == "crlf":
            newline = "\r\n"
            continue
        if not rows:
            continue
        r = at % len(rows)
        c = at % max(len(rows[r]), 1)
        if kind == "cell" and rows[r]:
            rows[r][c] = value
        elif kind == "quote" and rows[r]:
            rows[r][c] = f'"{rows[r][c]}"'
        elif kind == "drop":
            rows[r] = rows[r][:-1]
        elif kind == "comma":
            rows[r] = rows[r] + [""]
        lines = [",".join(row) for row in rows]
        if kind in ("comment", "blank"):
            lines.insert(r, "# note, mid-file" if kind == "comment" else "")
    text = newline.join(["# config=x seed=0", ",".join(header), *lines])
    text += draw(st.sampled_from([newline, ""]))
    return text, value_columns, label


def _outcome(load):
    try:
        ts = load()
    except DataError as exc:
        return type(exc), str(exc)
    labels = None if ts.labels is None else (ts.labels.dtype, ts.labels.tobytes())
    return ts.values.shape, ts.values.tobytes(), labels


def _columns_outcome(load):
    """`_outcome` of a (values, labels) pair, which may hold no value column."""
    try:
        values, labels = load()
    except DataError as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes(), None if labels is None else (labels.dtype,
                                                                         labels.tobytes())


class TestColumnPass:
    """The column pass of `load_csv` against the row loop as the oracle."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_cases())
    # ragged files: the flat split shifts every later cell by a column
    @example(case=("c0,c1\n0\n0,1\n", ["c0"], None))
    @example(case=("c0,c1\n0,1,2\n3,4\n", ["c0"], None))
    @example(case=("c0,c1\n0,1\n2\n3,4\n", ["c0"], None))
    # as many commas as the header's in all, but not row by row
    @example(case=("c0,c1\n0\n1,2,3\n", ["c0"], None))
    # the csv module reads a comment line too, and rejects one over its field limit
    @example(case=("# " + "x" * (csv.field_size_limit() + 1) + "\nc0\n1\n", ["c0"], None))
    def test_agrees_with_row_loop(self, tmp_path, case):
        text, value_columns, label = case
        path = tmp_path / "data.csv"
        path.write_text(text, newline="")
        expected = _columns_outcome(lambda: _parse_rows(path, text, value_columns, label))
        assert _columns_outcome(lambda: load_columns(path, value_columns, label)) == expected
        if _parse_columns(text.encode(), value_columns, label) is not None:
            assert not isinstance(expected[0], type)  # accepted only what the loop accepts

    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_every_odd_cell_agrees(self, tmp_path, cell):
        for header, row, label in (("v", cell, None), ("v,label", f"1.5,{cell}", "label")):
            text = f"{header}\n{row}\n"
            path = write_csv(tmp_path, text)
            expected = _outcome(lambda: TimeSeries(
                *_parse_rows(path, text, ["v"], label), name=path.stem))
            assert _outcome(lambda: load_csv(path, ["v"], label)) == expected

    def test_strad_files_take_the_column_pass(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        ts = TimeSeries(values=rng.normal(size=(40, 2)),
                        labels=(rng.uniform(size=40) < 0.3).astype(np.int64))
        scores = np.abs(rng.normal(size=40))
        write_series_csv(ts, tmp_path / "series.csv", "# config=x seed=0")
        write_scores_csv(ScoreSeries(scores), tmp_path / "scores.csv", "# config=x seed=0")

        def no_row_loop(*args, **kwargs):
            raise AssertionError("the row loop ran on a file strad wrote")

        monkeypatch.setattr(csv, "reader", no_row_loop)
        back = load_csv(tmp_path / "series.csv", ["v0", "v1"], "label")
        assert back.values.tobytes() == ts.values.tobytes()
        assert np.array_equal(back.labels, ts.labels)
        assert read_scores_csv(tmp_path / "scores.csv").tobytes() == scores.tobytes()


# Floats whose `%.17g` text is easy to get wrong: signed zeros, subnormals,
# the extremes, integers beyond 2**53 and short decimals.
ADVERSARIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
                      2.0 ** 53, 2.0 ** 53 + 2, 1e16, 123456789.0, 0.1, 1 / 3, -2.5e-7]


def _old_fmt(value) -> str:
    return f"{value:.17g}"


def _old_series_csv(ts: TimeSeries, prov: str) -> str:
    """The per-value rendering `write_series_csv` must reproduce byte for byte."""
    lines = [prov]
    header = [f"v{c}" for c in range(ts.channels)]
    if ts.labels is not None:
        header.append("label")
    lines.append(",".join(header))
    for i in range(ts.length):
        row = [_old_fmt(v) for v in ts.values[i]]
        if ts.labels is not None:
            row.append(str(int(ts.labels[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _old_scores_csv(scores: np.ndarray, prov: str) -> str:
    lines = [prov, "index,score"]
    lines.extend(f"{i},{_old_fmt(s)}" for i, s in enumerate(scores))
    return "\n".join(lines) + "\n"


class TestCsvWriters:
    def adversarial(self, n):
        rng = np.random.default_rng(11)
        values = np.concatenate([ADVERSARIAL_FLOATS, rng.normal(size=n),
                                 rng.normal(size=n) * 1e-310, rng.normal(size=n) * 1e300])
        return values

    def test_template_equals_per_value_format(self):
        values = self.adversarial(300)
        row = " ".join(["%.17g"] * values.size)
        assert row % tuple(values.tolist()) == " ".join(_old_fmt(v) for v in values)
        assert all("%.17g" % v == _old_fmt(v) for v in values.tolist())

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("labelled", [False, True])
    def test_series_csv_matches_per_value_rendering(self, tmp_path, channels, labelled):
        values = self.adversarial(40)
        values = values[: values.size // channels * channels].reshape(-1, channels)
        labels = np.arange(values.shape[0]) % 3 == 0 if labelled else None
        ts = TimeSeries(values=values, labels=labels)
        path = tmp_path / "series.csv"
        write_series_csv(ts, path, "# config=x seed=0")
        assert path.read_text() == _old_series_csv(ts, "# config=x seed=0")

    def test_scores_csv_matches_per_value_rendering(self, tmp_path):
        scores = self.adversarial(40)
        path = tmp_path / "scores.csv"
        write_scores_csv(ScoreSeries(scores), path, "# config=x seed=0")
        assert path.read_text() == _old_scores_csv(scores, "# config=x seed=0")
        assert read_scores_csv(path).tobytes() == scores.tobytes()


class TestWriteText:
    """`write_text` leaves the bytes `open(path, "w")` leaves, rewriting a file in place."""

    OLD = "old line\n" * 20

    @pytest.mark.parametrize("new", ["short\n", "x" * 179 + "\n", "longer line\n" * 40],
                             ids=["shorter", "same-length", "longer"])
    def test_rerun_leaves_exactly_the_new_bytes(self, tmp_path, new):
        path = tmp_path / "out.txt"
        write_text(path, self.OLD)
        write_text(path, new)
        assert path.read_bytes() == new.encode()

    def test_rewrite_keeps_inode_mode_and_hard_links(self, tmp_path):
        path, link = tmp_path / "out.txt", tmp_path / "link.txt"
        write_text(path, self.OLD)
        os.link(path, link)
        path.chmod(0o640)
        inode = path.stat().st_ino
        write_text(path, "new\n")
        assert path.stat().st_ino == inode
        assert path.stat().st_mode & 0o7777 == 0o640
        assert link.read_bytes() == b"new\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text(tmp_path / "ours.txt", "x\n")
            with open(tmp_path / "theirs.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert (tmp_path / "ours.txt").stat().st_mode == (tmp_path / "theirs.txt").stat().st_mode

    def test_unencodable_text_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, self.OLD)
        with pytest.raises(DataError, match=f"{path}: cannot encode"):
            write_text(path, "name d\udcffx\n")
        assert path.read_text() == self.OLD

    def test_unencodable_text_creates_no_file(self, tmp_path):
        with pytest.raises(DataError):
            write_text(tmp_path / "out.txt", "\udcff\n")
        assert not (tmp_path / "out.txt").exists()

    def test_device_that_cannot_be_truncated(self):
        write_text(os.devnull, "discarded\n")


class TestNormalization:
    def test_two_point_channel(self):
        ts = TimeSeries(values=np.array([1.0, 3.0]))
        stats = fit_normalization(ts)
        # population std = sqrt(((1-2)^2 + (3-2)^2)/2) = 1
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0

    def test_constant_channel_clamped(self):
        stats = fit_normalization(TimeSeries(values=np.array([5.0, 5.0, 5.0])))
        assert stats.mean[0] == 5.0
        assert stats.std[0] == STD_FLOOR

    def test_single_point(self):
        stats = fit_normalization(TimeSeries(values=np.array([7.0])))
        assert stats.mean[0] == 7.0
        assert stats.std[0] == STD_FLOOR

    def test_apply_known_stats(self):
        ts = TimeSeries(values=np.array([1.0, 3.0]))
        out = apply_normalization(ts, fit_normalization(ts))
        assert np.allclose(out.values[:, 0], [-1.0, 1.0])

    def test_self_normalization_zero_mean(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(values=rng.normal(size=(50, 3)))
        out = apply_normalization(ts, fit_normalization(ts))
        assert np.abs(out.values.mean(axis=0)).max() < 1e-9

    def test_labels_untouched(self):
        train = TimeSeries(values=np.arange(10.0))
        test = TimeSeries(values=np.arange(10.0) + 5, labels=np.array([0, 1] * 5))
        out = apply_normalization(test, fit_normalization(train))
        assert np.array_equal(out.labels, test.labels)

    def test_channel_mismatch(self):
        stats = fit_normalization(TimeSeries(values=np.zeros((4, 2)) + 1))
        with pytest.raises(ShapeMismatchError):
            apply_normalization(TimeSeries(values=np.ones((4, 3))), stats)

    @pytest.mark.parametrize("channel", [0, 1])
    def test_overflowing_channel_is_data_error(self, channel):
        # squares of 1e300 leave the float range: the std would be inf and the
        # channel would normalize to all zeros
        values = np.ones((100, 2))
        values[:, channel] = 1e300 * np.sin(np.arange(100.0))
        with pytest.raises(DataError, match=f"channel {channel} "):
            fit_normalization(TimeSeries(values=values))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_round_trip_inverse(self, values):
        ts = TimeSeries(values=np.array(values))
        stats = fit_normalization(ts)
        if stats.std[0] <= STD_FLOOR:
            return
        out = apply_normalization(ts, stats)
        restored = out.values[:, 0] * stats.std[0] + stats.mean[0]
        scale = max(1.0, np.abs(ts.values).max())
        assert np.abs(restored - ts.values[:, 0]).max() < 1e-9 * scale


class TestSlidingWindows:
    def test_enumerated_starts(self):
        ts = TimeSeries(values=np.arange(10.0))
        ws = sliding_windows(ts, 4, 2)
        assert len(ws) == 4
        assert [w[0, 0] for w in ws] == [0, 2, 4, 6]  # values equal indices: first value = start

    def test_full_length_single_window(self):
        ts = TimeSeries(values=np.arange(6.0))
        assert len(sliding_windows(ts, 6, 3)) == 1

    def test_overrun_excluded(self):
        ts = TimeSeries(values=np.arange(5.0))
        ws = sliding_windows(ts, 4, 3)
        assert len(ws) == 1 and ws[0, 0, 0] == 0

    def test_length_exceeds_series(self):
        with pytest.raises(DataError):
            sliding_windows(TimeSeries(values=np.arange(3.0)), 4, 1)

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3),
    )
    def test_non_overlapping_round_trip(self, m, t, d):
        if t > m:
            return
        rng = np.random.default_rng(m * 100 + t)
        ts = TimeSeries(values=rng.normal(size=(m, d)))
        ws = sliding_windows(ts, t, t)
        flat = ws.reshape(-1, d)
        n = len(ws)
        assert np.array_equal(flat, ts.values[: n * t])

    def test_count_formula(self):
        ts = TimeSeries(values=np.arange(100.0))
        for t in (1, 7, 50):
            for stride in (1, 3, 11):
                assert len(sliding_windows(ts, t, stride)) == (100 - t) // stride + 1


class TestSegments:
    def test_two_runs(self):
        assert segments_from_labels([0, 1, 1, 0, 1]).tolist() == [[1, 2], [4, 4]]

    def test_all_zero(self):
        empty = segments_from_labels([0, 0, 0])
        assert empty.shape == (0, 2) and empty.dtype == np.int64

    def test_all_one(self):
        assert segments_from_labels([1, 1, 1]).tolist() == [[0, 2]]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_round_trip(self, labels):
        expanded = np.zeros(len(labels), dtype=np.int64)
        for start, end in segments_from_labels(labels):
            expanded[start : end + 1] = 1
        assert np.array_equal(expanded, labels)

    def test_segments_sorted_disjoint(self):
        segments = segments_from_labels([1, 0, 1, 1, 0, 0, 1])
        for (_, a_end), (b_start, _) in zip(segments, segments[1:]):
            assert a_end + 1 < b_start  # maximal: adjacent runs would have merged


# every 0/1 check, with the exception class it raises
BINARY_CHECKS = [
    (lambda a: TimeSeries(np.zeros(a.size), labels=a), NonBinaryLabelError),
    (segments_from_labels, NonBinaryLabelError),
    (lambda a: rpa_counts(a, []), DataError),  # predictions, through metrics._as_binary
    (lambda a: threshold_best_f1(ScoreSeries(np.arange(a.size, dtype=float)), a, "pa"),
     NonBinaryLabelError),
]
BINARY_CHECK_IDS = ["TimeSeries", "segments_from_labels", "_as_binary", "threshold_best_f1"]


class TestBinaryChecks:
    @pytest.mark.parametrize("bad", [2, -1, 0.5])  # 0.5 was truncated to 0 and accepted
    @pytest.mark.parametrize("check, error", BINARY_CHECKS, ids=BINARY_CHECK_IDS)
    def test_rejects_non_binary_entry(self, check, error, bad):
        with pytest.raises(DataError) as excinfo:
            check(np.array([0, 1, bad, 0]))
        assert excinfo.type is error

    @pytest.mark.parametrize("good", [[0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0], [False, True, True, False]])
    @pytest.mark.parametrize("check, error", BINARY_CHECKS, ids=BINARY_CHECK_IDS)
    def test_accepts_zeros_and_ones_of_any_dtype(self, check, error, good):
        check(np.array(good))


class TestTimeSeriesChecks:
    def test_nan_value_names_its_row(self):
        values = np.zeros((5, 3))
        values[3, 2] = np.nan
        with pytest.raises(NonFiniteValueError, match="row 3 of series 'tiny'"):
            TimeSeries(values=values, name="tiny")

    @pytest.mark.parametrize("values, message", [
        (np.zeros((2, 3, 1)), "1-D or 2-D, got ndim=3"),
        (np.zeros(0), r"non-empty, got shape \(0, 1\)"),
        (np.zeros((4, 0)), r"non-empty, got shape \(4, 0\)"),
    ])
    def test_rejects_values_of_another_shape(self, values, message):
        with pytest.raises(DataError, match=message) as excinfo:
            TimeSeries(values=values)
        assert excinfo.type is DataError

    @pytest.mark.parametrize("length", [3, 5])
    def test_rejects_labels_of_another_length(self, length):
        with pytest.raises(DataError, match="does not match series length 4") as excinfo:
            TimeSeries(values=np.zeros(4), labels=np.zeros(length))
        assert excinfo.type is DataError


class TestImmutability:
    def test_values_read_only(self):
        ts = TimeSeries(values=np.arange(4.0))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_window_views_read_only(self):
        ts = TimeSeries(values=np.arange(8.0))
        ws = sliding_windows(ts, 4, 2)
        with pytest.raises(ValueError):
            ws[0][0, 0] = 1.0

    def test_window_set_is_one_read_only_view(self):
        ts = TimeSeries(values=np.arange(24.0).reshape(12, 2))
        ws = sliding_windows(ts, 4, 3)
        assert ws.shape == (3, 4, 2)
        assert np.shares_memory(ws, ts.values)
        assert not ws.flags.writeable
        for k, w in enumerate(ws):
            assert np.array_equal(w, ts.values[3 * k : 3 * k + 4])
