"""Training loop, per-point anomaly scoring, and threshold selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeMismatchError
from .losses import LossWeights, mse_batch, seasonality_batch, strad_batch, trend_batch
from .metrics import as_truth, check_scored, pa_counts, rpa_counts, sweep_counts
from .model import DenseAutoencoder, adam_step, backward_batch, forward_batch, init_adam
from .series import TimeSeries, sliding_windows

LOSS_KINDS = ("mse", "strad", "mse_plus_strad")
SCORE_MODES = ("shape_only", "strad_broadcast")
SCORE_CHUNK = 256  # windows per reconstruction block in `score`


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


def train(model: DenseAutoencoder, windows: np.ndarray,
          cfgs: Sequence[TrainConfig]) -> list[TrainResult]:
    """Algorithmic core: encode, reconstruct, evaluate objective, Adam update,
    for K fits of `model` in lockstep; one TrainResult per fit.

    `windows` is a (K, N, t, d) stack: fit k trains a copy of `model` on
    `windows[k]` (one `sliding_windows` result) with `cfgs[k]`. The fits must
    share epochs, batch size, seed and learning rate; their loss settings may
    differ. Each epoch walks one seeded permutation of the N windows in
    batches. Per batch the stack gets one forward pass, one `_batch_loss` call
    per contiguous run of fits with equal loss settings, one backward pass and
    one Adam step over the (K, P) parameter stack; the parameter gradient is
    the mean over the batch. The loss works window by window and the other
    steps elementwise across fits or as one matrix product per fit, so every
    fit ends with the parameters and history it gets when trained alone
    (K = 1). Each history row maps every value `_batch_loss` names, "total"
    first, to its per-window mean over the epoch.
    Raises NumericError the moment a loss, gradient, or parameter of any fit
    goes non-finite instead of clipping; when several fits fail, the first
    error met in step order is raised. The model's input size is checked by
    `forward_batch` on the first batch.

    A step's loss values and gradients and its parameter gradient are dropped
    at its end, and its batch and activations when the next step replaces
    them, so training holds one step's arrays at a time next to the parameter
    stack and Adam's three stacks: O(K * P) memory, at its peak in the
    backward pass and Adam step.
    """
    k, n, t, d = windows.shape
    if len(cfgs) != k:
        raise ShapeMismatchError(f"{len(cfgs)} train configs for a stack of {k} window sets")
    first = cfgs[0]
    schedule = (first.epochs, first.batch_size, first.seed, first.lr)
    if any((cfg.epochs, cfg.batch_size, cfg.seed, cfg.lr) != schedule for cfg in cfgs):
        raise ConfigError("fits trained in lockstep must share epochs, batch_size, seed and lr")
    if n == 0:
        raise DataError("no windows to train on")
    # fits a..b-1 of each run (a, b) agree on what `_batch_loss` reads, so share its call
    settings = [(cfg.loss_kind, cfg.weights, cfg.mix) for cfg in cfgs]
    starts = [i for i in range(k) if i == 0 or settings[i] != settings[i - 1]]
    runs = list(zip(starts, [*starts[1:], k]))
    rng = np.random.default_rng(first.seed)
    # one copy per fit, trained in place, so the caller's model keeps its parameters;
    # rebinding the name frees a model the caller does not hold
    model = DenseAutoencoder(layer_sizes=model.layer_sizes, params=np.tile(model.params, (k, 1)))
    state = init_adam(model, lr=first.lr)
    histories: list[list[dict[str, float]]] = [[] for _ in range(k)]
    for _ in range(first.epochs):
        order = rng.permutation(n)
        sums: list[dict[str, float]] = [{} for _ in range(k)]
        for lo in range(0, n, first.batch_size):
            idx = order[lo : lo + first.batch_size]
            X = windows[:, idx]
            acts = forward_batch(model, X.reshape(k, len(idx), -1))
            XR = acts[-1].reshape(X.shape)
            grads = []
            for a, b in runs:
                values, g = _batch_loss(X[a:b].reshape(-1, t, d), XR[a:b].reshape(-1, t, d), cfgs[a])
                if not np.isfinite(values["total"]).all():
                    raise NumericError("non-finite loss during training")
                for name, v in values.items():
                    # each fit sums its own windows, as it does when trained alone
                    for fit_sums, total in zip(sums[a:b], v.reshape(b - a, -1).sum(axis=1).tolist()):
                        fit_sums[name] = fit_sums.get(name, 0.0) + total
                grads.append(g)
            upstream = (grads[0] if len(grads) == 1 else np.concatenate(grads)).reshape(k, len(idx), -1)
            upstream /= len(idx)  # mean over the batch
            grad = backward_batch(model, acts, upstream)
            adam_step(model, grad, state)
            # freed here, so the next step allocates into their memory. The batch
            # and activations stay until the next step replaces them: freeing them
            # here too let glibc hand the heap top back to the OS at every step,
            # to be faulted in again by the next
            del values, v, g, grads, upstream, grad
        for history, fit_sums in zip(histories, sums):
            history.append({name: s / n for name, s in fit_sums.items()})
    return [TrainResult(model=DenseAutoencoder(layer_sizes=model.layer_sizes, params=params),
                        history=history)
            for params, history in zip(model.params, histories)]


def score(
    model: DenseAutoencoder,
    series: TimeSeries,
    length: int,
    stride: int,
    weights: LossWeights,
    mode: str,
) -> ScoreSeries:
    """Per-point anomaly scores from sliding-window reconstruction error.

    Every window contributes, to each of its points, lambda3 times the
    absolute reconstruction error summed over the channels first to last,
    ((e0 + e1) + e2) + ... (`np.sum`'s order below 8 channels). In
    "strad_broadcast" mode the window-level trend (monotone variant, regardless
    of the training variant, so scores never reward mismatch) and seasonality
    terms are additionally spread uniformly over the window's points. A point
    covered by several windows gets the average of its contributions. Points
    left uncovered score 0; with stride <= length that is possible only in the
    tail after the last window.

    Windows are reconstructed `SCORE_CHUNK` at a time, and each block's
    contributions go straight into the point sums, so memory is
    O(M + SCORE_CHUNK * t * d) however many windows there are. `np.add.at` adds
    the terms one at a time in the order listed, window by window, so every
    point sums its windows oldest first, the way a loop over windows would.
    The model's input size is checked by `forward_batch` on the first block.
    """
    if mode not in SCORE_MODES:
        raise ConfigError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    data = sliding_windows(series, length, stride)  # (N, t, d)
    n, t, d = data.shape
    sums = np.zeros(series.length)
    # window k of a block adds its term j to point k*stride + j of the block's span
    points = (np.arange(0, SCORE_CHUNK * stride, stride)[:, None] + np.arange(t)).ravel()
    for lo in range(0, n, SCORE_CHUNK):
        X = data[lo : lo + SCORE_CHUNK]
        XR = forward_batch(model, X.reshape(len(X), -1))[-1].reshape(X.shape)
        err = X - XR
        np.abs(err, out=err)
        part = err[:, :, 0]  # a (windows, t) view; the other channels add into it in order
        for c in range(1, d):
            part += err[:, :, c]
        part *= weights.lambda3
        if mode == "strad_broadcast":
            sea, _ = seasonality_batch(X, XR)
            tre, _ = trend_batch(X, XR, weights.epsilon, "monotone")
            part += ((weights.lambda1 * tre + weights.lambda2 * sea) / t)[:, None]
        np.add.at(sums[lo * stride :], points[: part.size], part.ravel())
    coverage = window_coverage(series.length, n, t, stride)
    np.divide(sums, coverage, out=sums, where=coverage > 0)  # uncovered points stay 0
    return ScoreSeries(sums)


def window_coverage(length: int, n: int, t: int, stride: int) -> np.ndarray:
    """How many of the n windows (window i covers points i*stride ..
    i*stride + t - 1) cover each of `length` points, as int64."""
    steps = np.zeros(length, dtype=np.int64)  # slices drop the steps past the end
    steps[: n * stride : stride] += 1  # at each window's first point
    steps[t : n * stride + t : stride] -= 1  # one past each window's last point
    return np.cumsum(steps, out=steps)


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
    """Best-F1 threshold sweep: the first maximum of `ConfusionCounts.f1` over
    the candidates +inf (nothing predicted), then the distinct scores descending.

    `labels` is the 0/1 array or its `metrics.Truth`; sweeps of one
    `ScoreSeries` share its `levels`, and of one `Truth` its segments.
    Predictions at theta are `scores >= theta`, so ties go to the higher
    threshold (fewer positives). Returns (threshold, f1, all_positive_f1), the
    last being the F1 at the minimum score, where every point is predicted
    (+inf's 0.0 with no scores); it equals `f1_at` there bit for bit, so a
    caller can compare it with the best F1 without a recount.
    The sweep costs O(M log M): `sweep_counts` gets every threshold's counts
    at once, each count being the number of events (points, segments, runs)
    whose switch-on level is at or above the threshold's.
    """
    if labels is None:
        raise DataError("threshold_best_f1 requires labels")
    thresholds, counts = sweep_counts(*score_series.levels, as_truth(labels), metric)
    f1 = counts.f1
    best = int(np.argmax(f1))
    return float(thresholds[best]), float(f1[best]), float(f1[-1])


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
