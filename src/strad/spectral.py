"""The discrete Fourier transform and the batched spectral L1 kernel.

Conventions: unnormalized forward transform, bin k holds
sum_j x_j * exp(-2*pi*i*j*k/n); the inverse carries the 1/n factor. Inputs are
real, so `_transform` keeps the half spectrum, bins 0..n//2; bin n-k of the
full spectrum is the conjugate of bin k. The L1 distance between two spectra
sums the complex modulus of the per-bin difference over all n bins: on the
half spectrum, bin 0 (and bin n/2 for even n) counts once and every other bin
twice, for itself and its conjugate pair (`_pair_weights`). The transform is
linear, so the difference spectrum is the transform of the difference.
`seasonality_batch` takes (B, t, d) window stacks and transforms each channel
along the time axis; `dft_naive` is the direct-summation oracle for
`_transform`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeMismatchError

# Difference bins with modulus below this are treated as non-differentiable
# points of |.| and contribute the subgradient 0.
ZERO_MODULUS = 1e-12


def _check_pair(X, XR) -> None:
    """Raise ShapeMismatchError unless the window stack and its reconstruction agree."""
    if X.shape != XR.shape:
        raise ShapeMismatchError(f"window stack shapes differ: {X.shape} vs {XR.shape}")


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
    # Channels become the batch axis of the transform: (B, d, n//2 + 1).
    delta = _transform(np.swapaxes(XR - X, 1, 2))
    mod = np.abs(delta)
    values = np.sum(mod @ _pair_weights(n), axis=1)
    if not want_grad:
        return values, None
    with np.errstate(invalid="ignore"):  # non-finite inputs surface via the loss check
        phases = np.where(mod < ZERO_MODULUS, 0.0, delta / np.maximum(mod, ZERO_MODULUS))
    # norm="forward" leaves the inverse unscaled: n * irfft(phases, n)
    return values, np.swapaxes(np.fft.irfft(phases, n, axis=-1, norm="forward"), 1, 2)
