"""Training loop, per-point anomaly scoring, and threshold selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeMismatchError
from .losses import LossWeights, mse_batch, seasonality_batch, strad_batch, trend_batch
from .metrics import as_truth, check_scored, pa_counts, rpa_counts, sweep_counts
from .model import DenseAutoencoder, adam_step, backward_batch, forward_batch, init_adam
from .series import TimeSeries, sliding_windows

LOSS_KINDS = ("mse", "strad", "mse_plus_strad")
SCORE_MODES = ("shape_only", "strad_broadcast")
SCORE_CHUNK = 128  # windows per reconstruction block in `score`


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    loss_kind: str = "strad"
    weights: LossWeights = field(default_factory=LossWeights)
    mix: float = 0.5  # mse_plus_strad: mix*MSE + (1-mix)*StrAD
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if not 0.0 <= self.mix <= 1.0:
            raise ConfigError(f"mix must lie in [0, 1], got {self.mix}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class TrainResult:
    model: DenseAutoencoder
    history: list[dict[str, float]]  # per epoch: each named loss's mean per window


@dataclass(frozen=True)
class ScoreSeries:
    """Per-point anomaly scores, read-only."""

    scores: np.ndarray  # (M,)

    def __post_init__(self):
        if not np.isfinite(self.scores).all():
            raise NumericError("anomaly scores contain non-finite values")
        scores = np.asarray(self.scores).view()  # the caller's array stays writable
        scores.setflags(write=False)  # `levels` is computed once
        object.__setattr__(self, "scores", scores)

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """`np.unique(scores, return_inverse=True)`, computed once for every sweep."""
        return np.unique(self.scores, return_inverse=True)


def _batch_loss(X, XR, cfg: TrainConfig):
    """Per-window loss values by name, "total" first, and the total's gradient."""
    if cfg.loss_kind == "mse":
        values, grads = mse_batch(X, XR, want_grad=True)
        return {"total": values}, grads
    tre, sea, shp, total, grads = strad_batch(X, XR, cfg.weights, want_grad=True)
    components = {"trend": tre, "seasonality": sea, "shape": shp}
    if cfg.loss_kind == "strad":
        return {"total": total, **components}, grads
    mvalues, mgrads = mse_batch(X, XR, want_grad=True)
    values = cfg.mix * mvalues + (1.0 - cfg.mix) * total
    grads = cfg.mix * mgrads + (1.0 - cfg.mix) * grads
    return {"total": values, "mse": mvalues, **components}, grads


def train(model: DenseAutoencoder, windows: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Algorithmic core: encode, reconstruct, evaluate objective, Adam update.

    `windows` is the (N, t, d) stack from `sliding_windows`. Each epoch walks
    a seeded permutation of the windows in batches; the per-batch parameter
    gradient is the mean over the batch. Each history row maps every value
    `_batch_loss` names, "total" first, to its per-window mean over the epoch.
    Raises NumericError the moment a loss, gradient, or parameter goes
    non-finite instead of clipping.
    """
    n, t, d = windows.shape
    if t * d != model.input_size:
        raise ShapeMismatchError(f"windows flatten to {t * d}, model expects {model.input_size}")
    if n == 0:
        raise DataError("no windows to train on")
    rng = np.random.default_rng(cfg.seed)
    # one copy, trained in place, so the caller's model keeps its parameters
    model = DenseAutoencoder(layer_sizes=model.layer_sizes, params=model.params.copy())
    state = init_adam(model, lr=cfg.lr)
    history: list[dict[str, float]] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        sums: dict[str, float] = {}
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            X = windows[idx]
            flat = X.reshape(len(idx), -1)
            acts = forward_batch(model, flat)
            XR = acts[-1].reshape(X.shape)
            values, grads = _batch_loss(X, XR, cfg)
            if not np.isfinite(values["total"]).all():
                raise NumericError("non-finite loss during training")
            for name, v in values.items():
                sums[name] = sums.get(name, 0.0) + float(v.sum())
            upstream = grads.reshape(len(idx), -1)
            upstream /= len(idx)  # mean over the batch
            grad = backward_batch(model, acts, upstream)
            adam_step(model, grad, state)
        history.append({name: s / n for name, s in sums.items()})
    return TrainResult(model=model, history=history)


def score(
    model: DenseAutoencoder,
    series: TimeSeries,
    length: int,
    stride: int,
    weights: LossWeights,
    mode: str,
) -> ScoreSeries:
    """Per-point anomaly scores from sliding-window reconstruction error.

    Every window contributes, to each of its points, the channel-summed
    absolute reconstruction error scaled by lambda3. In "strad_broadcast" mode
    the window-level trend (monotone variant, regardless of the training
    variant, so scores never reward mismatch) and seasonality terms are
    additionally spread uniformly over the window's points. A point covered by
    several windows gets the average of its contributions. Points left
    uncovered score 0; with stride <= length that is possible only in the tail
    after the last window.

    Windows are reconstructed `SCORE_CHUNK` at a time, and each block's
    contributions go straight into the point sums (`overlap_add`), so memory
    is O(M + SCORE_CHUNK * t) however many windows there are. The model's
    input size is checked by `forward_batch` on the first block.
    """
    if mode not in SCORE_MODES:
        raise ConfigError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    data = sliding_windows(series, length, stride)  # (N, t, d)
    n, t, _ = data.shape
    sums = np.zeros(series.length)
    for lo in range(0, n, SCORE_CHUNK):
        X = data[lo : lo + SCORE_CHUNK]
        count = len(X)
        XR = forward_batch(model, X.reshape(count, -1))[-1].reshape(X.shape)
        part = weights.lambda3 * np.sum(np.abs(X - XR), axis=2)  # (count, t)
        if mode == "strad_broadcast":
            sea, _ = seasonality_batch(X, XR)
            tre, _ = trend_batch(X, XR, weights.epsilon, "monotone")
            part += ((weights.lambda1 * tre + weights.lambda2 * sea) / t)[:, None]
        overlap_add(sums, lo, part, stride)
    coverage = window_coverage(series.length, n, t, stride)
    np.divide(sums, coverage, out=sums, where=coverage > 0)  # uncovered points stay 0
    return ScoreSeries(sums)


def overlap_add(sums: np.ndarray, first: int, part: np.ndarray, stride: int) -> None:
    """Add windows first .. first + len(part) - 1 into `sums`, in place: window
    i adds part[i - first, j] to point i*stride + j.

    `np.bincount` adds its weights in input order, so each point adds its
    running sum and then its windows oldest first, one term at a time, the way
    a loop over windows would; the sums do not depend on how the windows are
    split into blocks. The bins start at +0.0, and no sum is ever -0.0.
    """
    count, t = part.shape
    span = sums[first * stride : (first + count - 1) * stride + t]  # the points it touches
    offsets = (np.arange(0, count * stride, stride)[:, None] + np.arange(t)).ravel()
    span[...] = np.bincount(np.concatenate((np.arange(len(span)), offsets)),
                            np.concatenate((span, part.ravel())), len(span))


def window_coverage(length: int, n: int, t: int, stride: int) -> np.ndarray:
    """How many of the n windows (window i covers points i*stride ..
    i*stride + t - 1) cover each of `length` points, as int64."""
    points = np.arange(length)
    last = points // stride
    np.minimum(last, n - 1, out=last)  # the last window starting at or before each point
    points += stride - t
    points //= stride
    first = np.maximum(points, 0, out=points)  # the first reaching it: ceil((p-t+1)/stride)
    last -= first
    last += 1
    return np.maximum(last, 0, out=last)


def f1_at(scores: np.ndarray, threshold: float, labels, metric: str) -> float:
    """F1 of the predictions `scores >= threshold` under the RPA or PA metric.

    `labels` is the 0/1 array or its `metrics.Truth`, one label per score.
    """
    truth = as_truth(labels)
    check_scored(scores, truth, metric)
    preds = (scores >= threshold).astype(np.int64)
    if metric == "rpa":
        return rpa_counts(preds, truth.segments).f1
    return pa_counts(preds, truth.labels).f1


def threshold_best_f1(score_series: ScoreSeries, labels, metric: str) -> tuple[float, float, float]:
    """Best-F1 threshold sweep over the distinct observed scores plus +inf.

    `labels` is the 0/1 array or its `metrics.Truth`; sweeps of one
    `ScoreSeries` share its `levels`, and of one `Truth` its segments.
    Predictions at threshold theta are `scores >= theta`. Ties are broken
    toward the higher threshold (fewer positives). Returns (threshold, f1,
    all_positive_f1); the last is the F1 at the lowest threshold, the minimum
    score, where every point is predicted (0.0 when there are no scores). It
    equals `f1_at` there bit for bit, so a caller can compare it with the best
    F1 without a recount.
    The sweep costs O(M log M): `sweep_counts` gets every threshold's counts
    at once, each count being the number of events (points, segments, runs)
    whose switch-on level is at or above the threshold's.
    """
    if labels is None:
        raise DataError("threshold_best_f1 requires labels")
    thresholds, tp, fp, fn = sweep_counts(*score_series.levels, as_truth(labels), metric)
    # ConfusionCounts.f1's expression and 0/0 -> 0 convention, on every threshold
    p = _ratio(tp, tp + fp)
    r = _ratio(tp, tp + fn)
    f1 = _ratio(2 * p * r, p + r)
    all_positive = float(f1[-1]) if f1.size else 0.0  # thresholds descend
    if f1.size and f1.max() > 0:
        best = int(np.argmax(f1))  # the first maximum: ties keep the higher threshold
        return float(thresholds[best]), float(f1[best]), all_positive
    return np.inf, 0.0, all_positive  # +inf predicts nothing: F1 = 0 under the 0/0 convention


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(den.shape), where=den != 0)


def threshold_quantile(score_series: ScoreSeries, q: float) -> float:
    """Linear-interpolation q-quantile of (training-split) scores.

    It is `np.quantile`'s default "linear" method written out, bit for bit,
    with one partial sort; `np.quantile` itself imports `numpy.ma`.
    """
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"q must lie in (0, 1], got {q}")
    scores = score_series.scores
    if scores.size == 0:
        raise DataError("cannot take a quantile of empty scores")
    index = (scores.size - 1) * q
    if index >= scores.size - 1:  # numpy takes the maximum twice, at index -1
        below = above = scores.max()
        gamma = index + 1
    else:
        lo = math.floor(index)
        below, above = np.partition(scores, (lo, lo + 1))[lo : lo + 2]
        gamma = index - lo
    diff = above - below
    # numpy's `_lerp`: from the nearer end, so gamma = 1 gives `above` exactly
    if gamma >= 0.5:
        return float(above - diff * (1 - gamma))
    return float(below + diff * gamma)
