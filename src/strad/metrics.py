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
from .series import Segment, is_binary, segments_from_labels


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def _as_binary(preds) -> np.ndarray:
    preds = np.asarray(preds)
    if preds.ndim != 1 or not is_binary(preds):
        raise DataError("predictions must be a 1-D 0/1 array")
    return np.asarray(preds, dtype=np.int64)


def _check_segments(preds: np.ndarray, segments: Sequence[Segment]) -> None:
    for seg in segments:
        if seg.end >= preds.shape[0]:
            raise DataError(f"segment ({seg.start}, {seg.end}) out of range for length {preds.shape[0]}")


def point_adjust(preds, truth_segments: Sequence[Segment]) -> np.ndarray:
    """Mark every truth segment containing a predicted point as fully predicted."""
    preds = _as_binary(preds)
    _check_segments(preds, truth_segments)
    adjusted = preds.copy()
    for seg in truth_segments:
        if preds[seg.start : seg.end + 1].any():
            adjusted[seg.start : seg.end + 1] = 1
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


def rpa_counts(preds, truth_segments: Sequence[Segment]) -> ConfusionCounts:
    """Segment-as-sample confusion counts; see the module docstring for rules."""
    preds = _as_binary(preds)
    _check_segments(preds, truth_segments)
    truth_mask = np.zeros(preds.shape[0], dtype=bool)
    for seg in truth_segments:
        truth_mask[seg.start : seg.end + 1] = True

    tp = sum(1 for seg in truth_segments if preds[seg.start : seg.end + 1].any())
    fn = len(truth_segments) - tp

    fp = sum(1 for run in segments_from_labels(preds) if not truth_mask[run.start : run.end + 1].any())
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def _bounds(segments: Sequence[Segment]) -> tuple[np.ndarray, np.ndarray]:
    starts = np.array([s.start for s in segments], dtype=np.intp)
    ends = np.array([s.end for s in segments], dtype=np.intp)
    return starts, ends


def _run_reduce(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """`ufunc` reduced over each inclusive run values[start:end + 1]."""
    bounds = np.stack([starts, ends + 1], axis=1).ravel()
    return ufunc.reduceat(np.append(values, 0), bounds)[::2]


def sweep_counts(scores, truth_labels, metric: str):
    """Confusion counts of `scores >= theta` at every distinct score theta, in one pass.

    Returns (thresholds, tp, fp, fn): the distinct scores in descending order
    and, per threshold, the int64 counts that `rpa_counts` (metric "rpa") or
    `pa_counts` (metric "pa") give for that prediction.

    Point i is predicted at the j-th smallest distinct score iff its level
    (`np.unique`'s inverse index) is >= j. So every count is the number of
    events switched on at that threshold, where an event switches on at the
    level of a point or at the min (all of several points on) or max (any one
    on) of several levels: a bincount of event levels, summed from the top.
    """
    if metric not in ("rpa", "pa"):
        raise DataError(f"metric must be 'rpa' or 'pa', got {metric!r}")
    scores = np.asarray(scores, dtype=np.float64)
    segments = segments_from_labels(truth_labels)
    truth = np.asarray(truth_labels, dtype=np.int64) == 1
    if scores.shape != truth.shape:
        raise ShapeMismatchError(f"scores length {scores.shape} != labels length {truth.shape}")
    levels, inv = np.unique(scores, return_inverse=True)

    def on(event_levels: np.ndarray) -> np.ndarray:
        return np.cumsum(np.bincount(event_levels, minlength=levels.size)[::-1])

    starts, ends = _bounds(segments)
    hit = _run_reduce(np.maximum, inv, starts, ends)  # a segment is hit when any point is on
    normal = ~truth
    fp = on(inv[normal])
    if metric == "pa":
        # a hit segment counts all its points as true positives
        tp = on(np.repeat(hit, ends - starts + 1))
        return levels[::-1], tp, fp, int(truth.sum()) - tp

    tp = on(hit)
    gap_starts, gap_ends = _bounds(segments_from_labels(normal))
    # Runs of on normal points are on normal points minus on normal-normal
    # pairs. Those touching truth are the on (normal, truth) pairs, less the
    # gaps between two segments that are on end to end with both neighbours,
    # which touch truth twice.
    pair = np.minimum(inv[:-1], inv[1:])
    closed = (gap_starts > 0) & (gap_ends < scores.size - 1)
    fp = (fp - on(pair[normal[:-1] & normal[1:]]) - on(pair[truth[:-1] != truth[1:]])
          + on(_run_reduce(np.minimum, inv, gap_starts[closed] - 1, gap_ends[closed] + 1)))
    return levels[::-1], tp, fp, len(segments) - tp


def entire_f1(per_subdataset: Sequence[tuple[int, float]]) -> float:
    """Segment-count-weighted average of per-sub-dataset F1 scores."""
    total = sum(e for e, _ in per_subdataset)
    if any(e < 0 for e, _ in per_subdataset):
        raise DataError("segment counts must be non-negative")
    if total == 0:
        raise DataError("total segment count is zero")
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
    count shrinks accordingly); if every baseline is zero this is an error.
    """
    if len(f1_star) != len(f1_mse):
        raise ShapeMismatchError("F1 lists must have equal length")
    pairs = [(s, m) for s, m in zip(f1_star, f1_mse) if m > 0]
    dropped = len(f1_star) - len(pairs)
    if dropped:
        warnings.warn(f"dropping {dropped} dataset(s) with zero MSE baseline from A.I.R.")
    if not pairs:
        raise DataError("all MSE baselines are zero; A.I.R. undefined")
    return float(np.mean([(s - m) / m for s, m in pairs]))
