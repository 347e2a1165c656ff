"""Training loop, per-point anomaly scoring, and threshold selection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeMismatchError
from .losses import LossWeights, mse_batch, seasonality_batch, strad_batch, trend_batch
from .metrics import pa_counts, rpa_counts, sweep_counts
from .model import DenseAutoencoder, adam_step, backward_batch, forward_batch, init_adam
from .series import Segment, TimeSeries, sliding_windows

LOSS_KINDS = ("mse", "strad", "mse_plus_strad")
SCORE_MODES = ("shape_only", "strad_broadcast")
THRESHOLD_METRICS = ("rpa", "pa")


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


@dataclass(frozen=True)
class EpochStats:
    """Mean per-window losses over one epoch; components are None for MSE."""

    total: float
    trend: Optional[float] = None
    seasonality: Optional[float] = None
    shape: Optional[float] = None


@dataclass
class TrainResult:
    model: DenseAutoencoder
    history: list[EpochStats]
    steps: int


@dataclass(frozen=True)
class ScoreSeries:
    """Per-point anomaly scores."""

    scores: np.ndarray  # (M,)

    def __post_init__(self):
        if not np.isfinite(self.scores).all():
            raise NumericError("anomaly scores contain non-finite values")


def _batch_loss(X, XR, cfg: TrainConfig):
    """Per-window loss values, upstream gradients, and component means."""
    if cfg.loss_kind == "mse":
        values, grads = mse_batch(X, XR, want_grad=True)
        return values, grads, None
    tre, sea, shp, total, sgrads = strad_batch(X, XR, cfg.weights, want_grad=True)
    components = (tre, sea, shp)
    if cfg.loss_kind == "strad":
        return total, sgrads, components
    mvalues, mgrads = mse_batch(X, XR, want_grad=True)
    values = cfg.mix * mvalues + (1.0 - cfg.mix) * total
    grads = cfg.mix * mgrads + (1.0 - cfg.mix) * sgrads
    return values, grads, components


def train(model: DenseAutoencoder, windows: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Algorithmic core: encode, reconstruct, evaluate objective, Adam update.

    `windows` is the (N, t, d) stack from `sliding_windows`. Each epoch walks
    a seeded permutation of the windows in batches; the per-batch parameter
    gradient is the mean over the batch. History records per-epoch mean total
    loss, plus component means for the combined objective.
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
    history: list[EpochStats] = []
    steps = 0
    track_components = cfg.loss_kind != "mse"
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total_sum = 0.0
        comp_sums = np.zeros(3)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            X = windows[idx]
            flat = X.reshape(len(idx), -1)
            acts = forward_batch(model, flat)
            XR = acts[-1].reshape(X.shape)
            values, grads, components = _batch_loss(X, XR, cfg)
            if not np.isfinite(values).all():
                raise NumericError("non-finite loss during training")
            total_sum += float(values.sum())
            if components is not None:
                comp_sums += [float(c.sum()) for c in components]
            upstream = grads.reshape(len(idx), -1)
            upstream /= len(idx)  # mean over the batch
            grad = backward_batch(model, acts, upstream)
            adam_step(model, grad, state)
            steps += 1
        components = comp_sums / n if track_components else (None, None, None)
        history.append(EpochStats(total_sum / n, *components))
    return TrainResult(model=model, history=history, steps=steps)


def score(
    model: DenseAutoencoder,
    series: TimeSeries,
    length: int,
    stride: int,
    weights: LossWeights,
    mode: str,
    chunk: int = 128,
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

    Windows are reconstructed `chunk` at a time: at the default 128, a block's
    activations stay small enough to be reused from the heap call after call.
    """
    if mode not in SCORE_MODES:
        raise ConfigError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    data = sliding_windows(series, length, stride)  # (N, t, d)
    n, t, d = data.shape
    if t * d != model.input_size:
        raise ShapeMismatchError(f"windows flatten to {t * d}, model expects {model.input_size}")
    contrib = np.empty((n, t))  # window i's contribution to each of its points
    for lo in range(0, n, chunk):
        X = data[lo : lo + chunk]
        count = len(X)
        XR = forward_batch(model, X.reshape(count, -1))[-1].reshape(X.shape)
        part = contrib[lo : lo + count]
        part[...] = weights.lambda3 * np.sum(np.abs(X - XR), axis=2)
        if mode == "strad_broadcast":
            sea, _ = seasonality_batch(X, XR)
            tre, _ = trend_batch(X, XR, weights.epsilon, "monotone")
            part += ((weights.lambda1 * tre + weights.lambda2 * sea) / t)[:, None]
    # Window i adds contrib[i, j] at point i*stride + j. Offsets run from t-1
    # down so every point sums its windows in start order.
    sums = np.zeros(series.length)
    coverage = np.zeros(series.length, dtype=np.int64)
    for j in range(t - 1, -1, -1):
        points = slice(j, j + n * stride, stride)
        sums[points] += contrib[:, j]
        coverage[points] += 1
    scores = np.divide(sums, coverage, out=np.zeros_like(sums), where=coverage > 0)
    return ScoreSeries(scores)


def f1_at(scores: np.ndarray, threshold: float, labels: np.ndarray, segments: list[Segment],
          metric: str) -> float:
    """F1 of the predictions `scores >= threshold` under the RPA or PA metric."""
    preds = (scores >= threshold).astype(np.int64)
    if metric == "rpa":
        return rpa_counts(preds, segments).f1
    return pa_counts(preds, labels).f1


def threshold_best_f1(score_series: ScoreSeries, labels,
                      metric: str = "rpa") -> tuple[float, float, float]:
    """Best-F1 threshold sweep over the distinct observed scores plus +inf.

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
    if metric not in THRESHOLD_METRICS:
        raise ConfigError(f"metric must be one of {THRESHOLD_METRICS}, got {metric!r}")
    if labels is None:
        raise DataError("threshold_best_f1 requires labels")
    labels = np.asarray(labels)  # `sweep_counts` checks the 0/1 entries before any cast
    if labels.shape != score_series.scores.shape:
        raise ShapeMismatchError("labels and scores must have equal length")
    thresholds, tp, fp, fn = sweep_counts(score_series.scores, labels, metric)
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
    """Linear-interpolation q-quantile of (training-split) scores."""
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"q must lie in (0, 1], got {q}")
    if score_series.scores.size == 0:
        raise DataError("cannot take a quantile of empty scores")
    return float(np.quantile(score_series.scores, q))
