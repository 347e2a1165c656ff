"""Structure-aware reconstruction losses: trend, seasonality, shape, and MSE.

Each component is one `*_batch` kernel that takes a stack of windows X and
its reconstruction XR, both (B, t, d), and returns the per-window values (B,)
and, on request, the analytic gradients (B, t, d) with respect to XR. One
window is the stack X[None]. The trainer, the scorer and the gradient check
all call these kernels; the seasonality kernel lives in `spectral` and is
re-exported here.

Multivariate inputs are handled by computing trend and seasonality per channel
and summing; shape and MSE already run over all entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .spectral import _check_pair, seasonality_batch

TREND_VARIANTS = ("negated_log", "monotone")

# Slope pairs closer than this are treated as a non-differentiable tie of the
# trend term and get the subgradient 0.
SLOPE_TIE = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Weights of the combined objective plus the trend stability constant.

    `trend_variant` selects the trend term's form: "negated_log" is
    -ln(D + eps), which decreases as the slope discrepancy D grows, so
    minimizing it rewards trend mismatch; "monotone" is ln(D + eps) - ln(eps),
    non-negative, zero at D = 0, and increasing in D. See `trend_batch`.
    The monotone form is the training default.
    """

    lambda1: float = 1.5
    lambda2: float = 10.0
    lambda3: float = 1.0
    epsilon: float = 1e-7
    trend_variant: str = "monotone"

    def __post_init__(self):
        lambdas = (self.lambda1, self.lambda2, self.lambda3)
        # every comparison with NaN is false, so each check is phrased to fail on it
        if not all(math.isfinite(v) and v >= 0 for v in lambdas):
            raise ConfigError(f"loss weights must be finite and non-negative, got {lambdas}")
        if not any(lambdas):
            raise ConfigError("at least one loss weight must be positive")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.trend_variant not in TREND_VARIANTS:
            raise ConfigError(f"trend_variant must be one of {TREND_VARIANTS}")


@lru_cache(maxsize=64)
def _time_axis(t: int) -> np.ndarray:
    """Normalized time axis tau_j = -1 + 2j/(t-1), the degree-1 projection domain."""
    tau = -1.0 + 2.0 * np.arange(t) / (t - 1)
    tau.setflags(write=False)
    return tau


@lru_cache(maxsize=64)
def _slope_weights(t: int) -> tuple[np.ndarray, float]:
    """OLS slope functional w (slope = w . x per channel) and sum_j |tau_j|."""
    if t < 2:
        raise ShapeMismatchError("trend fitting needs window length >= 2")
    tau = _time_axis(t)
    w = tau / float(np.sum(tau * tau))
    w.setflags(write=False)
    return w, float(np.sum(np.abs(tau)))


def slopes_batch(X: np.ndarray) -> np.ndarray:
    """Per-channel OLS slopes on the normalized time axis; (B, t, d) -> (B, d)."""
    w, _ = _slope_weights(X.shape[1])
    return np.matmul(w, X)


def trend_batch(X, XR, epsilon: float, variant: str, want_grad: bool = False):
    """Trend component values (B,) and optionally gradients (B, t, d).

    With slope discrepancy D = sum_c |a_c - b_c| * sum_j |tau_j| (intercepts
    excluded, so constant offsets do not register):

    - "negated_log": -ln(D + epsilon)
    - "monotone":  ln(D + epsilon) - ln(epsilon), non-negative and zero at D=0

    Channels whose slopes tie get the subgradient 0.
    """
    if variant not in TREND_VARIANTS:
        raise ConfigError(f"trend_variant must be one of {TREND_VARIANTS}")
    t = X.shape[1]
    w, abs_tau_sum = _slope_weights(t)
    a = slopes_batch(X)
    b = slopes_batch(XR)
    diff = b - a  # (B, d)
    disc = abs_tau_sum * np.sum(np.abs(diff), axis=1)  # (B,)
    if variant == "negated_log":
        values = -np.log(disc + epsilon)
    else:
        values = np.log(disc + epsilon) - math.log(epsilon)
    if not want_grad:
        return values, None
    sign = np.where(np.abs(diff) < SLOPE_TIE, 0.0, np.sign(diff))  # (B, d)
    scale = abs_tau_sum / (disc + epsilon)  # (B,)
    if variant == "negated_log":
        scale = -scale
    grads = scale[:, None, None] * w[None, :, None] * sign[:, None, :]
    return values, grads


def shape_batch(X, XR, want_grad: bool = False):
    """Sum of absolute entry differences (B,); gradient is the sign pattern."""
    diff = XR - X
    values = np.sum(np.abs(diff), axis=(1, 2))
    if not want_grad:
        return values, None
    return values, np.sign(diff)


def mse_batch(X, XR, want_grad: bool = False):
    """Mean squared error over all t*d entries; gradient 2(XR - X)/(t*d)."""
    _check_pair(X, XR)
    diff = XR - X
    n = diff.shape[1] * diff.shape[2]
    values = np.sum(diff * diff, axis=(1, 2)) / n
    if not want_grad:
        return values, None
    return values, 2.0 * diff / n


def strad_batch(X, XR, weights: LossWeights, want_grad: bool = False):
    """Combined objective: component arrays, totals, and optional gradients.

    Returns (trend, seasonality, shape, total) arrays of shape (B,) and the
    gradient array (B, t, d) or None. The total and the gradient are the
    identically weighted sums of the components.
    """
    _check_pair(X, XR)
    tre, g1 = trend_batch(X, XR, weights.epsilon, weights.trend_variant, want_grad)
    sea, g2 = seasonality_batch(X, XR, want_grad)
    shp, g3 = shape_batch(X, XR, want_grad)
    total = weights.lambda1 * tre + weights.lambda2 * sea + weights.lambda3 * shp
    if not want_grad:
        return tre, sea, shp, total, None
    # each kernel returns a fresh gradient, so the weighted sum builds up in g1
    g1 *= weights.lambda1
    g2 *= weights.lambda2
    g1 += g2
    g3 *= weights.lambda3
    g1 += g3
    return tre, sea, shp, total, g1
