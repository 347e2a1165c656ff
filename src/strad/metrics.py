"""Segment-level (RPA) and point-adjust (PA) detection metrics plus aggregates.

RPA counting treats every ground-truth anomaly segment as a single sample:
one true positive per segment containing at least one predicted point, one
false negative per untouched segment. False positives are counted per maximal
contiguous predicted run that overlaps no truth segment; a run that overlaps a
segment is fully absorbed by that segment's true positive, with no residual
false positive for the part hanging outside.

PA counting applies the classic point-adjustment first (a hit anywhere inside
a truth segment marks the whole segment as predicted) and then counts points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, ShapeMismatchError
from .series import is_binary, segments_from_labels

THRESHOLD_METRICS = ("rpa", "pa")


@dataclass(frozen=True)
class ConfusionCounts:
    """One prediction's int counts or a sweep's int64 arrays; the only F1 rule."""

    tp: int | np.ndarray
    fp: int | np.ndarray
    fn: int | np.ndarray

    @property
    def precision(self):
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self):
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return _ratio(2 * p * r, p + r)


def _ratio(num, den):
    """num / den elementwise, 0 where den is 0: num is 0 there too (counts are
    never negative), so it is divided by 1 instead. Scalars give a float."""
    return num / (den + (den == 0))


def _as_binary(preds) -> np.ndarray:
    preds = np.asarray(preds)
    if preds.ndim != 1 or not is_binary(preds):
        raise DataError("predictions must be a 1-D 0/1 array")
    return np.asarray(preds, dtype=np.int64)


def _check_segments(preds: np.ndarray, segments) -> np.ndarray:
    """`segments`, a (k, 2) integer array or a sequence of inclusive (start, end)
    pairs, as a (k, 2) array; DataError unless 0 <= start <= end < len(preds)."""
    try:
        bounds = np.asarray(segments)
    except ValueError:  # ragged pairs
        bounds = np.empty(())
    if bounds.shape == (0,):  # no pairs
        bounds = np.empty((0, 2), np.int64)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.dtype.kind not in "iu":
        raise DataError("segments must be a (k, 2) integer array or a sequence of pairs")
    starts, ends = bounds.T
    bad = (starts < 0) | (ends < starts) | (ends >= len(preds))
    if bad.any():
        raise DataError(f"segment {bounds[bad][0].tolist()} out of range for length {len(preds)}")
    return bounds


def point_adjust(preds, truth_segments) -> np.ndarray:
    """Mark every truth segment containing a predicted point as fully predicted."""
    preds = _as_binary(preds)
    adjusted = preds.copy()
    for start, end in _check_segments(preds, truth_segments).tolist():
        if preds[start : end + 1].any():
            adjusted[start : end + 1] = 1
    return adjusted


def pa_counts(preds, truth_labels) -> ConfusionCounts:
    """Point-adjusted point-wise confusion counts against the raw labels."""
    preds = _as_binary(preds)
    truth = _as_binary(truth_labels)
    if preds.shape != truth.shape:
        raise ShapeMismatchError(f"preds length {preds.shape} != labels length {truth.shape}")
    adjusted = point_adjust(preds, segments_from_labels(truth))
    tp = int(np.sum((adjusted == 1) & (truth == 1)))
    fp = int(np.sum((adjusted == 1) & (truth == 0)))
    fn = int(np.sum((adjusted == 0) & (truth == 1)))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def rpa_counts(preds, truth_segments) -> ConfusionCounts:
    """Segment-as-sample confusion counts; see the module docstring for rules."""
    preds = _as_binary(preds)
    segments = _check_segments(preds, truth_segments).tolist()
    truth_mask = np.zeros(preds.shape[0], dtype=bool)
    for start, end in segments:
        truth_mask[start : end + 1] = True

    tp = sum(1 for start, end in segments if preds[start : end + 1].any())
    fn = len(segments) - tp

    fp = sum(1 for start, end in segments_from_labels(preds).tolist()
             if not truth_mask[start : end + 1].any())
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


@dataclass(frozen=True)
class Truth:
    """A 0/1 label array and what every sweep over it reads, computed once.

    Build it with `as_truth`. Segments are the maximal runs of 1s, with
    inclusive bounds. A run is given to `np.ufunc.reduceat` as the pair
    (start, end + 1) of a flat index array, over the values with one element
    appended, so that a run may end the series. A closed gap is a maximal run
    of 0s with a segment on each side: the points between two segments.
    """

    labels: np.ndarray  # (M,) int64
    normal: np.ndarray  # (M,) bool: labels == 0
    normal_pairs: np.ndarray  # (M - 1,) bool: points i and i + 1 both normal
    edge_pairs: np.ndarray  # (M - 1,) bool: exactly one of points i and i + 1 normal
    segments: np.ndarray  # (k, 2) int64: `segments_from_labels(labels)`
    segment_runs: np.ndarray  # reduceat indices of the segments
    gap_runs: np.ndarray  # reduceat indices of each closed gap, widened by a point per side


def as_truth(labels) -> Truth:
    """`labels` as a `Truth`: one is returned as it is, a 1-D 0/1 array is checked and read."""
    if isinstance(labels, Truth):
        return labels
    segments = segments_from_labels(labels)
    labels = np.asarray(labels, dtype=np.int64)
    normal = labels == 0
    # a closed gap widened by a point per side runs from one segment's end to the next's start
    gaps = np.stack([segments[:-1, 1], segments[1:, 0]], axis=1)
    return Truth(labels, normal, normal[:-1] & normal[1:], normal[:-1] != normal[1:],
                 segments, (segments + [0, 1]).ravel(), (gaps + [0, 1]).ravel())


def check_scored(scores: np.ndarray, truth: Truth, metric: str) -> None:
    """What every thresholded F1 needs: a known metric, and one score per label."""
    if metric not in THRESHOLD_METRICS:
        raise DataError(f"metric must be one of {THRESHOLD_METRICS}, got {metric!r}")
    if np.shape(scores) != truth.labels.shape:
        raise ShapeMismatchError(
            f"scores length {np.shape(scores)} != labels length {truth.labels.shape}")


def sweep_counts(levels: np.ndarray, inv: np.ndarray, truth: Truth, metric: str):
    """Confusion counts of `scores >= theta` at +inf and every distinct score theta, in one pass.

    `levels, inv = np.unique(scores, return_inverse=True)`. Returns (thresholds,
    counts): +inf, then the distinct scores in descending order, and as int64
    arrays the `ConfusionCounts` that `rpa_counts` (metric "rpa") or
    `pa_counts` (metric "pa") give for each threshold's prediction.

    Point i is predicted at the j-th smallest distinct score iff its level
    inv[i] is >= j. So every count is the number of events switched on at that
    threshold, where an event switches on at the level of a point or at the
    min (all of several points on) or max (any one on) of several levels: a
    bincount of event levels, summed from the top.
    """
    check_scored(inv, truth, metric)

    def on(event_levels: np.ndarray) -> np.ndarray:
        """Per threshold, descending, how many of the events are on; none at +inf."""
        return np.cumsum(np.bincount(event_levels, minlength=levels.size + 1)[::-1])

    padded = np.append(inv, 0)  # for `Truth`'s reduceat runs
    hit = np.maximum.reduceat(padded, truth.segment_runs)[::2]  # any of a segment's points on
    thresholds = np.concatenate(([np.inf], levels[::-1]))
    fp = on(inv[truth.normal])
    if metric == "pa":
        # a hit segment counts all its points as true positives
        tp = on(np.repeat(hit, truth.segments[:, 1] - truth.segments[:, 0] + 1))
        return thresholds, ConfusionCounts(tp, fp, int(truth.labels.sum()) - tp)

    tp = on(hit)
    # Runs of on normal points are on normal points minus on normal-normal
    # pairs. Those touching truth are the on (normal, truth) pairs, less the
    # closed gaps that are on end to end with both neighbours, which touch
    # truth twice.
    pair = np.minimum(inv[:-1], inv[1:])
    fp = (fp - on(pair[truth.normal_pairs]) - on(pair[truth.edge_pairs])
          + on(np.minimum.reduceat(padded, truth.gap_runs)[::2]))
    return thresholds, ConfusionCounts(tp, fp, len(truth.segments) - tp)


def segment_total(counts: Sequence[int]) -> int:
    """The sum of per-sub-dataset segment counts, which `entire_f1` divides by."""
    total = sum(counts)
    if any(e < 0 for e in counts):
        raise DataError("segment counts must be non-negative")
    if total == 0:
        raise DataError("total segment count is zero")
    return total


def entire_f1(per_subdataset: Sequence[tuple[int, float]]) -> float:
    """Segment-count-weighted average of per-sub-dataset F1 scores."""
    total = segment_total([e for e, _ in per_subdataset])
    return sum(e * f1 for e, f1 in per_subdataset) / total


def avg_improved(f1_star: Sequence[float], f1_mse: Sequence[float]) -> float:
    """Mean of pairwise F1 differences against the MSE baseline."""
    if len(f1_star) != len(f1_mse):
        raise ShapeMismatchError("F1 lists must have equal length")
    if not f1_star:
        raise DataError("need at least one dataset")
    return float(np.mean(np.asarray(f1_star) - np.asarray(f1_mse)))


def air(f1_star: Sequence[float], f1_mse: Sequence[float]) -> float:
    """Mean relative F1 improvement over the MSE baseline.

    Datasets with a zero baseline are dropped with a warning (the denominator
    count shrinks accordingly); if every baseline is zero A.I.R. is undefined
    and this returns NaN, so the caller can still report the other columns.
    """
    if len(f1_star) != len(f1_mse):
        raise ShapeMismatchError("F1 lists must have equal length")
    pairs = [(s, m) for s, m in zip(f1_star, f1_mse) if m > 0]
    dropped = len(f1_star) - len(pairs)
    if dropped:
        warnings.warn(f"dropping {dropped} dataset(s) with zero MSE baseline from A.I.R.")
    if not pairs:
        return np.nan
    return float(np.mean([(s - m) / m for s, m in pairs]))
