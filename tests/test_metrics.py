import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strad.errors import DataError, ShapeMismatchError
from strad.metrics import (
    ConfusionCounts,
    air,
    avg_improved,
    entire_f1,
    pa_counts,
    point_adjust,
    rpa_counts,
)
from strad.series import segments_from_labels


# --- independent reference recounts, written as plain per-definition loops ---


def runs_of_ones(bits):
    runs = []
    i = 0
    while i < len(bits):
        if bits[i] == 1:
            j = i
            while j < len(bits) and bits[j] == 1:
                j += 1
            runs.append((i, j - 1))
            i = j
        else:
            i += 1
    return runs


def brute_pa(preds, labels):
    adjusted = list(preds)
    for s, e in runs_of_ones(labels):
        if any(preds[k] for k in range(s, e + 1)):
            for k in range(s, e + 1):
                adjusted[k] = 1
    tp = sum(1 for k in range(len(labels)) if adjusted[k] == 1 and labels[k] == 1)
    fp = sum(1 for k in range(len(labels)) if adjusted[k] == 1 and labels[k] == 0)
    fn = sum(1 for k in range(len(labels)) if adjusted[k] == 0 and labels[k] == 1)
    return tp, fp, fn


def brute_rpa(preds, labels):
    tp = fn = fp = 0
    for s, e in runs_of_ones(labels):
        if any(preds[k] for k in range(s, e + 1)):
            tp += 1
        else:
            fn += 1
    for s, e in runs_of_ones(preds):
        if not any(labels[k] for k in range(s, e + 1)):
            fp += 1
    return tp, fp, fn


class TestConfusionCounts:
    def test_zero_conventions(self):
        empty = ConfusionCounts(tp=0, fp=0, fn=0)
        assert empty.precision == 0.0 and empty.recall == 0.0 and empty.f1 == 0.0

    def test_perfect(self):
        assert ConfusionCounts(tp=3, fp=0, fn=0).f1 == 1.0

    @pytest.mark.parametrize("count", [lambda n: n, lambda n: np.array([n])], ids=["int", "array"])
    def test_as_many_found_as_missed(self, count):
        # tp == fn > 0, as when RPA finds 4 of 8 segments: recall's denominator is 8, not 0
        counts = ConfusionCounts(tp=count(4), fp=count(0), fn=count(4))
        assert np.array_equal(counts.precision, count(1.0))
        assert np.array_equal(counts.recall, count(0.5))
        assert np.array_equal(counts.f1, count(2 / 3))
        assert type(counts.f1) is type(count(2 / 3))  # a float for int counts


class TestPointAdjust:
    def test_hit_fills_segment(self):
        out = point_adjust([0, 0, 1, 0, 0], [(1, 3)])
        assert np.array_equal(out, [0, 1, 1, 1, 0])

    def test_miss_leaves_unchanged(self):
        out = point_adjust([1, 0, 0, 0, 0], [(2, 3)])
        assert np.array_equal(out, [1, 0, 0, 0, 0])

    def test_independent_segments(self):
        out = point_adjust([0, 1, 0, 0, 0, 1, 0], [(0, 2), (4, 6)])
        assert np.array_equal(out, [1, 1, 1, 0, 1, 1, 1])

    def test_segment_out_of_range(self):
        with pytest.raises(DataError):
            point_adjust([0, 1], [(1, 5)])

    def test_no_pairs_leaves_preds_unchanged(self):
        preds = [1, 0, 1, 1, 0, 0]
        assert np.array_equal(point_adjust(preds, []), preds)

    @pytest.mark.parametrize("count", [point_adjust, rpa_counts], ids=["point_adjust", "rpa"])
    @pytest.mark.parametrize("segments", [[(1, 2)], [(-1, 0)], [(1, 0)], [(0.0, 1.0)],
                                          [(0, 1, 1)], [(0,), (0, 1)], [0, 1]],
                             ids=["end_one_past", "negative_start", "end_before_start",
                                  "float", "triple", "ragged", "flat"])
    def test_segment_rule(self, count, segments):
        # 0 <= start <= end < len(preds), as integer pairs
        with pytest.raises(DataError):
            count([0, 1], segments)


class TestPaCounts:
    def test_adjusted_example(self):
        counts = pa_counts([0, 0, 1, 0, 0], [0, 1, 1, 1, 0])
        assert (counts.tp, counts.fp, counts.fn) == (3, 0, 0)
        assert counts.f1 == 1.0

    def test_all_zero_preds(self):
        counts = pa_counts([0, 0, 0, 0], [0, 1, 0, 1])
        assert (counts.tp, counts.fn) == (0, 2) and counts.f1 == 0.0

    def test_all_one_preds(self):
        counts = pa_counts([1, 1, 1, 1, 1], [1, 1, 1, 0, 0])
        assert (counts.tp, counts.fp, counts.fn) == (3, 2, 0)
        assert counts.precision == pytest.approx(0.6)
        assert counts.recall == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            pa_counts([0, 1], [0, 1, 0])


class TestRpaCounts:
    def test_worked_example(self):
        preds = [0, 1, 0, 0, 1, 1, 0]
        counts = rpa_counts(preds, [(1, 2)])
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)
        assert counts.precision == pytest.approx(0.5)
        assert counts.recall == 1.0
        assert counts.f1 == pytest.approx(2 / 3)

    def test_all_zero_preds(self):
        counts = rpa_counts([0, 0, 0], [(1, 1)])
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 1) and counts.f1 == 0.0

    def test_no_pairs_counts_runs_as_false_positives(self):
        counts = rpa_counts([1, 0, 1, 1, 0, 1], [])
        assert (counts.tp, counts.fp, counts.fn) == (0, 3, 0)

    def test_exact_match(self):
        labels = [1, 1, 0, 0, 1, 0, 1]
        counts = rpa_counts(labels, segments_from_labels(labels))
        assert (counts.tp, counts.fp, counts.fn) == (3, 0, 0) and counts.f1 == 1.0

    def test_run_absorbed_with_out_of_segment_tail(self):
        # a run overlapping a segment leaves no residual fp for its tail
        counts = rpa_counts([0, 1, 1, 1, 1, 0], [(2, 3)])
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_widening_inside_one_segment_rpa_invariant_pa_not(self):
        labels = [0, 0, 1, 1, 1, 1, 1, 0, 0, 0]
        segments = segments_from_labels(labels)
        narrow = [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        widened = [0, 1, 1, 1, 1, 1, 1, 1, 1, 0]  # same segment, tails outside
        rpa_narrow = rpa_counts(narrow, segments)
        rpa_wide = rpa_counts(widened, segments)
        assert rpa_narrow.f1 == rpa_wide.f1 == 1.0
        pa_narrow = pa_counts(narrow, labels)
        pa_wide = pa_counts(widened, labels)
        assert pa_narrow.f1 == 1.0
        assert pa_wide.f1 < pa_narrow.f1


class TestBruteForceEquivalence:
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_instances(self, labels, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 2, size=len(labels)).tolist()
        segments = segments_from_labels(labels)
        got = rpa_counts(preds, segments)
        assert (got.tp, got.fp, got.fn) == brute_rpa(preds, labels)
        got_pa = pa_counts(preds, labels)
        assert (got_pa.tp, got_pa.fp, got_pa.fn) == brute_pa(preds, labels)


class TestEntireF1:
    def test_weighted_example(self):
        assert entire_f1([(2, 0.5), (3, 1.0)]) == pytest.approx(0.8)

    def test_single_subdataset(self):
        assert entire_f1([(7, 0.42)]) == pytest.approx(0.42)

    def test_constant_fixed_point(self):
        assert entire_f1([(1, 0.3), (9, 0.3), (5, 0.3)]) == pytest.approx(0.3)

    def test_subdataset_without_segments_weighs_nothing(self):
        assert entire_f1([(0, 0.0), (4, 0.5)]) == 0.5

    def test_zero_total_rejected(self):
        with pytest.raises(DataError):
            entire_f1([(0, 0.5), (0, 1.0)])

    @given(st.lists(st.tuples(st.integers(1, 20), st.floats(0, 1)), min_size=1, max_size=8))
    def test_bounds(self, pairs):
        result = entire_f1(pairs)
        f1s = [f for _, f in pairs]
        assert min(f1s) - 1e-12 <= result <= max(f1s) + 1e-12


class TestImprovementStats:
    def test_avg_improved_identity(self):
        assert avg_improved([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_avg_improved_example(self):
        assert avg_improved([0.3, 0.5], [0.1, 0.1]) == pytest.approx(0.3)

    def test_avg_improved_single(self):
        assert avg_improved([0.9], [0.6]) == pytest.approx(0.3)

    def test_air_example(self):
        assert air([0.2], [0.1]) == pytest.approx(1.0)

    def test_air_identity(self):
        assert air([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_air_two_datasets(self):
        assert air([0.2, 0.3], [0.1, 0.3]) == pytest.approx(0.5)

    def test_air_drops_zero_baselines_with_warning(self):
        with pytest.warns(UserWarning, match="zero MSE baseline"):
            value = air([0.2, 0.4], [0.1, 0.0])
        assert value == pytest.approx(1.0)

    def test_air_all_zero_baselines(self):
        with pytest.warns(UserWarning):
            assert np.isnan(air([0.2], [0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            avg_improved([0.1], [0.1, 0.2])
