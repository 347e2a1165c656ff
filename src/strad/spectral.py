"""Discrete Fourier transforms and the spectral L1 distance with its gradient.

Conventions: unnormalized forward transform, bin k holds
sum_j x_j * exp(-2*pi*i*j*k/n); the inverse carries the 1/n factor. The L1
distance between two spectra sums the complex modulus of the per-bin
difference over all n bins (conjugate-symmetric bins counted twice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

# Difference bins with modulus below this are treated as non-differentiable
# points of |.| and contribute the subgradient 0.
ZERO_MODULUS = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Real/imaginary parts of an n-bin spectrum."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.float64)
        im = np.asarray(self.im, dtype=np.float64)
        if re.shape != im.shape or re.ndim != 1:
            raise ShapeMismatchError(f"re/im must be equal-length 1-D, got {re.shape}, {im.shape}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def as_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    def __len__(self) -> int:
        return self.re.shape[0]


def _transform(z: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis."""
    return np.fft.fft(z, axis=-1)


def dft_naive(x) -> Spectrum:
    """Direct O(n^2) summation; the reference oracle for `fft_forward`."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    re = np.zeros(n)
    im = np.zeros(n)
    j = np.arange(n)
    for k in range(n):
        angle = -2.0 * np.pi * k * j / n
        re[k] = float(np.sum(x * np.cos(angle)))
        im[k] = float(np.sum(x * np.sin(angle)))
    return Spectrum(re=re, im=im)


def fft_forward(x) -> Spectrum:
    """Forward transform of a real signal."""
    z = _transform(np.asarray(x, dtype=np.float64))
    return Spectrum(re=z.real, im=z.imag)


def fft_inverse(spectrum: Spectrum) -> np.ndarray:
    """Inverse transform (1/n scaling) of a conjugate-symmetric spectrum.

    Returns the real part; round-trips `fft_forward` within 1e-9.
    """
    return np.fft.ifft(spectrum.as_complex()).real


def seasonality_batch(X, XR, want_grad: bool = False, split_parts: bool = False):
    """Spectral L1 values (B,) summed over channels; gradients (B, t, d).

    Inputs are (B, t, d) window stacks; the gradient is taken with respect to
    the reconstruction `XR`. By default each bin contributes the modulus of
    the complex difference. With ``split_parts=True`` the real and imaginary
    parts contribute separately (|Re| + |Im| per bin); this alternate reading
    is exposed for comparison and is not the default. Bins whose difference
    has modulus below ``ZERO_MODULUS`` use the subgradient 0, so X == XR
    yields a zero gradient. Per-bin weights map back through the adjoint of
    the forward transform.
    """
    # Channels become the batch axis of the transform: (B, d, t).
    delta = _transform(np.swapaxes(XR, 1, 2)) - _transform(np.swapaxes(X, 1, 2))
    if split_parts:
        values = np.sum(np.abs(delta.real) + np.abs(delta.imag), axis=(1, 2))
        if not want_grad:
            return values, None
        weights = np.sign(delta.real) - 1j * np.sign(delta.imag)
    else:
        mod = np.abs(delta)
        values = np.sum(mod, axis=(1, 2))
        if not want_grad:
            return values, None
        with np.errstate(invalid="ignore"):  # non-finite inputs surface via the loss check
            weights = np.conj(np.where(mod < ZERO_MODULUS, 0.0,
                                       delta / np.maximum(mod, ZERO_MODULUS)))
    return values, np.swapaxes(_transform(weights).real, 1, 2)


def _as_columns(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two equal-length 1-D signals as one-window, one-channel (1, n, 1) stacks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeMismatchError(f"signals must be equal-length 1-D, got {x.shape}, {y.shape}")
    return x[None, :, None], y[None, :, None]


def spectral_l1(x, y, split_parts: bool = False) -> float:
    """L1 distance between the spectra of two equal-length real signals.

    A 1-D adapter over `seasonality_batch`; see there for ``split_parts``.
    """
    values, _ = seasonality_batch(*_as_columns(x, y), split_parts=split_parts)
    return float(values[0])


def spectral_l1_grad(x, y, split_parts: bool = False) -> np.ndarray:
    """Gradient of `spectral_l1` with respect to `y`; 0 where x == y."""
    _, grads = seasonality_batch(*_as_columns(x, y), want_grad=True, split_parts=split_parts)
    return grads[0, :, 0]
