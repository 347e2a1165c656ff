import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strad.errors import (
    DataError,
    MissingColumnError,
    NonBinaryLabelError,
    NonFiniteValueError,
    NonNumericCellError,
    ShapeMismatchError,
)
from strad.series import (
    STD_FLOOR,
    Segment,
    TimeSeries,
    apply_normalization,
    fit_normalization,
    labels_from_segments,
    load_csv,
    segments_from_labels,
    sliding_windows,
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
        assert segments_from_labels([0, 1, 1, 0, 1]) == [Segment(1, 2), Segment(4, 4)]

    def test_all_zero(self):
        assert segments_from_labels([0, 0, 0]) == []

    def test_all_one(self):
        assert segments_from_labels([1, 1, 1]) == [Segment(0, 2)]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_round_trip(self, labels):
        segments = segments_from_labels(labels)
        assert np.array_equal(labels_from_segments(segments, len(labels)), labels)

    def test_segments_sorted_disjoint(self):
        segments = segments_from_labels([1, 0, 1, 1, 0, 0, 1])
        for a, b in zip(segments, segments[1:]):
            assert a.end + 1 < b.start  # maximal: adjacent runs would have merged


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
