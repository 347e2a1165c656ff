import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strad.losses
from strad.errors import ShapeMismatchError
from strad.losses import _pair_weights, _transform, dft_naive, seasonality_batch

finite_signal = st.lists(st.floats(-100, 100), min_size=1, max_size=48)


def spectral_l1(x, y):
    """Spectral L1 distance of two 1-D signals, as the (1, n, 1) stack kernel computes it."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(seasonality_batch(x[None, :, None], y[None, :, None])[0][0])


def spectral_l1_grad(x, y):
    """Gradient of `spectral_l1` in `y`, from the (1, n, 1) stack kernel."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return seasonality_batch(x[None, :, None], y[None, :, None], want_grad=True)[1][0, :, 0]


def full_spectrum(half, n):
    """All n bins from the half spectrum: bin n-k is the conjugate of bin k."""
    return np.concatenate([half, np.conj(half[1 : n - half.size + 1][::-1])])


def central_difference(fn, y, step=1e-5):
    grad = np.zeros_like(y)
    for i in range(y.size):
        hi = y.copy()
        hi[i] += step
        lo = y.copy()
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


class TestDftNaive:
    def test_impulse_at_zero(self):
        s = dft_naive([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(s.real, [1, 1, 1, 1], atol=1e-12)
        assert np.allclose(s.imag, [0, 0, 0, 0], atol=1e-12)

    def test_zero_signal(self):
        s = dft_naive(np.zeros(7))
        assert np.all(s.real == 0) and np.all(s.imag == 0)

    def test_constant_signal(self):
        # geometric-sum identity: bin 0 carries n*c, all other bins vanish
        c, n = 2.5, 12
        s = dft_naive(np.full(n, c))
        assert abs(s[0] - n * c) < 1e-9
        assert np.abs(s[1:]).max() < 1e-9


class TestFftForward:
    def test_matches_naive_all_lengths(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(1, 65))
            x = rng.uniform(-1, 1, size=n)
            a = full_spectrum(_transform(x), n)
            b = dft_naive(x)
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-8

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 8, 17, 64, 100, 128):
            x = rng.normal(size=n)
            assert np.abs(full_spectrum(_transform(x), n) - np.fft.fft(x)).max() < 1e-8

    def test_length_one_identity(self):
        s = _transform(np.array([3.25]))
        assert s.real[0] == 3.25 and s.imag[0] == 0.0

    def test_impulse_unit_modulus(self):
        for n in (4, 8, 12):
            for j in range(n):
                x = np.zeros(n)
                x[j] = 1.0
                mods = np.abs(_transform(x))
                assert np.abs(mods - 1.0).max() < 1e-12

    def test_conjugate_symmetry(self):
        # the upper bins of the full DFT are the conjugates of the half spectrum's
        rng = np.random.default_rng(2)
        for n in (8, 15, 32):
            x = rng.normal(size=n)
            half = _transform(x)
            full = np.fft.fft(x)
            for k in range(half.size, n):
                assert abs(full[k] - np.conj(half[n - k])) < 1e-9
            assert abs(half[0].imag) < 1e-12
            if n % 2 == 0:
                assert abs(half[-1].imag) < 1e-12  # bin n/2 is its own conjugate

    @given(finite_signal, finite_signal, st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_linearity(self, xs, ys, a, b):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        lhs = _transform(a * x + b * y)
        rhs = a * _transform(x) + b * _transform(y)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() < 1e-9 * scale

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for n in (4, 9, 33, 256):
            x = rng.uniform(-1, 1, size=n)
            spec = _transform(x)
            energy = np.sum(_pair_weights(n) * np.abs(spec) ** 2) / n
            assert abs(np.sum(x * x) - energy) < 1e-8


class TestFftInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for n in list(range(1, 20)) + [64, 127, 256]:
            x = rng.uniform(-1, 1, size=n)
            assert np.abs(np.fft.irfft(_transform(x), n) - x).max() < 1e-9

    def test_zero_spectrum(self):
        assert np.all(np.fft.irfft(_transform(np.zeros(6)), 6) == 0)

    def test_constant_round_trip(self):
        x = np.full(10, 1.75)
        assert np.abs(np.fft.irfft(_transform(x), 10) - x).max() < 1e-12


class TestSpectralL1:
    def test_identity_zero(self):
        x = np.random.default_rng(5).normal(size=16)
        assert spectral_l1(x, x) == 0.0

    def test_impulse_vs_zero(self):
        assert abs(spectral_l1([1, 0, 0, 0], [0, 0, 0, 0]) - 4.0) < 1e-12

    def test_matches_naive_computation(self):
        rng = np.random.default_rng(6)
        for n in (5, 16, 31):
            x, y = rng.normal(size=n), rng.normal(size=n)
            expected = float(np.abs(dft_naive(x) - dft_naive(y)).sum())
            assert abs(spectral_l1(x, y) - expected) < 1e-8

    def test_matches_full_spectrum_every_length(self):
        # the pair-weighted half spectrum sums the same moduli as all n bins
        rng = np.random.default_rng(11)
        worst = 0.0
        for n in range(1, 66):
            x, y = rng.normal(size=n), rng.normal(size=n)
            expected = float(np.abs(dft_naive(y) - dft_naive(x)).sum())
            worst = max(worst, abs(spectral_l1(x, y) - expected) / expected)
        assert worst < 1e-12

    def test_one_forward_transform_per_call(self, monkeypatch):
        calls = []
        original = strad.losses._transform

        def counting(z):
            calls.append(z.shape)
            return original(z)

        monkeypatch.setattr(strad.losses, "_transform", counting)
        X = np.random.default_rng(12).normal(size=(5, 16, 3))
        seasonality_batch(X, X + 0.1, want_grad=True)
        assert calls == [(5, 3, 16)]

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=12), rng.normal(size=12)
        assert spectral_l1(x, y) == pytest.approx(spectral_l1(y, x))
        assert spectral_l1(x, y) > 0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 32))
    @settings(max_examples=50)
    def test_strictly_positive_when_different(self, seed, n):
        # the transform is invertible, so distinct signals have distinct spectra
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=n)
        y = x.copy()
        y[rng.integers(n)] += rng.uniform(0.01, 1.0)
        assert spectral_l1(x, y) > 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            spectral_l1(np.zeros(4), np.zeros(5))


class TestSpectralL1Grad:
    def test_identity_zero_gradient(self):
        x = np.random.default_rng(9).normal(size=8)
        assert np.all(spectral_l1_grad(x, x) == 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 9, 16, 32])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        grad = spectral_l1_grad(x, y)
        fd = central_difference(lambda yy: spectral_l1(x, yy), y)
        assert np.abs(grad - fd).max() / max(np.abs(grad).max(), 1e-12) < 1e-4

    def test_invariant_to_common_shift(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=16), rng.normal(size=16)
        g0 = spectral_l1_grad(x, y)
        g1 = spectral_l1_grad(x + 2.5, y + 2.5)
        assert np.abs(g0 - g1).max() < 1e-9
