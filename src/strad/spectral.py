"""The discrete Fourier transform and the batched spectral L1 kernel.

Conventions: unnormalized forward transform, bin k holds
sum_j x_j * exp(-2*pi*i*j*k/n); the inverse carries the 1/n factor. The L1
distance between two spectra sums the complex modulus of the per-bin
difference over all n bins (conjugate-symmetric bins counted twice).
`seasonality_batch` takes (B, t, d) window stacks and transforms each channel
along the time axis; `dft_naive` is the direct-summation oracle for
`_transform`.
"""

from __future__ import annotations

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
    """Unnormalized forward DFT along the last axis."""
    return np.fft.fft(z, axis=-1)


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
    difference. Bins whose difference has modulus below ``ZERO_MODULUS`` use
    the subgradient 0, so X == XR yields a zero gradient. Per-bin weights map
    back through the adjoint of the forward transform.
    """
    _check_pair(X, XR)
    # Channels become the batch axis of the transform: (B, d, t).
    delta = _transform(np.swapaxes(XR, 1, 2)) - _transform(np.swapaxes(X, 1, 2))
    mod = np.abs(delta)
    values = np.sum(mod, axis=(1, 2))
    if not want_grad:
        return values, None
    with np.errstate(invalid="ignore"):  # non-finite inputs surface via the loss check
        weights = np.conj(np.where(mod < ZERO_MODULUS, 0.0,
                                   delta / np.maximum(mod, ZERO_MODULUS)))
    return values, np.swapaxes(_transform(weights).real, 1, 2)
