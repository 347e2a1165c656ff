"""Structure-aware reconstruction losses: trend, seasonality, shape, and MSE.

Each component is one `*_batch` kernel that takes a stack of windows X and
its reconstruction XR, both (B, t, d), and returns the per-window values (B,)
and, on request, the analytic gradients (B, t, d) with respect to XR; it
raises ShapeMismatchError unless X and XR have one shape. One window is the
stack X[None]. The trainer, the scorer and the gradient check all call these
kernels. Trend and seasonality are computed per channel and summed; shape and
MSE already run over all entries.

The seasonality term's transform is unnormalized: bin k holds
sum_j x_j * exp(-2*pi*i*j*k/n), and the inverse carries the 1/n factor.
Inputs are real, so `_transform` keeps the half spectrum, bins 0..n//2; bin
n-k of the full spectrum is the conjugate of bin k. The L1 distance between
two spectra sums the complex modulus of the per-bin difference over all n
bins: on the half spectrum, bin 0 (and bin n/2 for even n) counts once and
every other bin twice, for itself and its conjugate pair (`_pair_weights`).
The transform is linear, so the difference spectrum is the transform of the
difference. `dft_naive` is the direct-summation oracle for `_transform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeMismatchError

TREND_VARIANTS = ("negated_log", "monotone")

# Slope pairs closer than this are treated as a non-differentiable tie of the
# trend term and get the subgradient 0.
SLOPE_TIE = 1e-12

# Difference bins with modulus below this are treated as non-differentiable
# points of |.| and contribute the subgradient 0.
ZERO_MODULUS = 1e-12


def _check_pair(X, XR) -> None:
    """Raise ShapeMismatchError unless the window stack and its reconstruction agree."""
    if X.shape != XR.shape:
        raise ShapeMismatchError(f"window stack shapes differ: {X.shape} vs {XR.shape}")


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
def _slope_weights(t: int) -> tuple[np.ndarray, float]:
    """OLS slope functional w (slope = w . x per channel) and sum_j |tau_j|,
    on the normalized time axis tau_j = -1 + 2j/(t-1)."""
    if t < 2:
        raise ShapeMismatchError("trend fitting needs window length >= 2")
    tau = -1.0 + 2.0 * np.arange(t) / (t - 1)
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
    _check_pair(X, XR)
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
    # formed along the contiguous time axis, (B, d, t), and returned as a (B, t, d) view
    return values, np.swapaxes((scale[:, None] * sign)[:, :, None] * w, 1, 2)


def _transform(z: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of real input along the last axis, bins 0..n//2."""
    return np.fft.rfft(z, axis=-1)


@lru_cache(maxsize=64)
def _pair_weights(n: int) -> np.ndarray:
    """How many of the n full-spectrum bins each half-spectrum bin stands for."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0  # bin 0 is its own conjugate
    if n % 2 == 0:
        weights[-1] = 1.0  # and so is bin n/2
    weights.setflags(write=False)
    return weights


def dft_naive(x) -> np.ndarray:
    """Direct O(n^2) summation of a 1-D signal's complex spectrum."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    re = np.zeros(n)
    im = np.zeros(n)
    j = np.arange(n)
    for k in range(n):
        angle = -2.0 * np.pi * k * j / n
        re[k] = float(np.sum(x * np.cos(angle)))
        im[k] = float(np.sum(x * np.sin(angle)))
    return re + 1j * im


def seasonality_batch(X, XR, want_grad: bool = False):
    """Spectral L1 values (B,) summed over channels; gradients (B, t, d).

    Inputs are (B, t, d) window stacks; the gradient is taken with respect to
    the reconstruction `XR`. Each bin contributes the modulus of the complex
    difference, one transform of `XR - X`. Bins whose difference has modulus
    below ``ZERO_MODULUS`` use the subgradient 0, so X == XR yields a zero
    gradient. The gradient of sum_k |D_k| over all n bins is the unnormalized
    inverse transform of the unit phases D_k / |D_k|, a real signal since the
    phases are conjugate-symmetric.
    """
    _check_pair(X, XR)
    n = X.shape[1]
    # Channels become the batch axis of the transform, contiguous: (B, d, n//2 + 1).
    delta = _transform(np.ascontiguousarray(np.swapaxes(XR - X, 1, 2)))
    mod = np.abs(delta)
    # matmul sums in an order set by the memory layout; the (B, n//2 + 1, d)
    # layout's order is the one tests/test_losses.py pins, bit for bit
    values = np.sum(np.ascontiguousarray(np.swapaxes(mod, 1, 2)).swapaxes(1, 2) @ _pair_weights(n),
                    axis=1)
    if not want_grad:
        return values, None
    with np.errstate(invalid="ignore"):  # non-finite inputs surface via the loss check
        # delta becomes the unit phases: times the real 1/|delta|, which is
        # 0 on bins below ZERO_MODULUS (a zero there may come out as -0)
        delta *= np.divide(1.0, mod, out=np.zeros_like(mod), where=mod >= ZERO_MODULUS)
    # norm="forward" leaves the inverse unscaled: n * irfft(phases, n)
    return values, np.swapaxes(np.fft.irfft(delta, n, axis=-1, norm="forward"), 1, 2)


def shape_batch(X, XR, want_grad: bool = False):
    """Sum of absolute entry differences (B,); gradient is the sign pattern."""
    _check_pair(X, XR)
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
    tre, g1 = trend_batch(X, XR, weights.epsilon, weights.trend_variant, want_grad)
    sea, g2 = seasonality_batch(X, XR, want_grad)
    shp, g3 = shape_batch(X, XR, want_grad)
    total = weights.lambda1 * tre + weights.lambda2 * sea + weights.lambda3 * shp
    if not want_grad:
        return tre, sea, shp, total, None
    # each kernel returns a fresh gradient, so the weighted sum builds up in
    # place, ending in g3: the one C-ordered (B, t, d) array, so the caller's
    # flattening copies nothing. x + y == y + x bit for bit, so the sum is
    # still (trend + seasonality) + shape.
    g1 *= weights.lambda1
    g2 *= weights.lambda2
    g1 += g2
    g3 *= weights.lambda3
    g3 += g1
    return tre, sea, shp, total, g3
