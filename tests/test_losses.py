import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strad import gradcheck, losses
from strad.errors import ConfigError, ShapeMismatchError
from strad.losses import (
    LossWeights,
    dft_naive,
    mse_batch,
    seasonality_batch,
    shape_batch,
    slopes_batch,
    strad_batch,
    trend_batch,
)

EPS = 1e-7


def col(values):
    return np.asarray(values, dtype=float)[:, None]


def one_value(kernel, x, y, *args):
    """A kernel's value on the one-window stacks x[None], y[None]."""
    return float(kernel(x[None], y[None], *args)[0][0])


def one_grad(kernel, x, y, *args):
    """A kernel's gradient on the one-window stacks x[None], y[None], as (t, d)."""
    return kernel(x[None], y[None], *args, want_grad=True)[1][0]


def slope(x):
    return slopes_batch(x[None])[0]


@pytest.mark.parametrize("kernel", [
    lambda X, XR: trend_batch(X, XR, EPS, "monotone"),
    seasonality_batch,
    shape_batch,
    mse_batch,
    lambda X, XR: strad_batch(X, XR, LossWeights()),
], ids=["trend", "seasonality", "shape", "mse", "strad"])
def test_kernel_rejects_stacks_that_differ_in_batch_size(kernel):
    # (1, 8, 1) broadcasts against (3, 8, 1), so only the pair check can refuse it
    X = np.zeros((3, 8, 1))
    XR = np.ones((1, 8, 1))
    for pair in ((X, XR), (XR, X)):
        with pytest.raises(ShapeMismatchError):
            kernel(*pair)


def central_difference(fn, y, step=1e-5):
    grad = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        hi = y.copy()
        hi[idx] += step
        lo = y.copy()
        lo[idx] -= step
        grad[idx] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


def rel_err(analytic, fd):
    return np.abs(analytic - fd).max() / max(np.abs(analytic).max(), 1e-12)


class TestTrendFit:
    def test_ramp_slope(self):
        assert slope(col([0, 1, 2, 3]))[0] == pytest.approx(1.5)

    def test_constant_zero_slope(self):
        assert slope(col([4, 4, 4, 4, 4]))[0] == pytest.approx(0.0)

    def test_reversal_negates(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 2))
        assert np.allclose(slope(x), -slope(x[::-1]))

    def test_needs_two_points(self):
        with pytest.raises(ShapeMismatchError):
            slope(col([1.0]))

    def test_one_point_raises_before_building_the_axis(self):
        # t = 1 used to divide by t - 1 = 0 and cache a NaN axis before raising
        cached = losses._slope_weights.cache_info().currsize
        X = np.zeros((2, 1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatchError):
                trend_batch(X, X, EPS, "monotone", want_grad=True)
            with pytest.raises(ShapeMismatchError):
                slopes_batch(X)
        assert losses._slope_weights.cache_info().currsize == cached


class TestTrendLoss:
    def test_identity_paper_value(self):
        x = col([1, 2, 3, 4])
        assert one_value(trend_batch, x, x, EPS, "negated_log") == pytest.approx(-math.log(EPS))
        assert one_value(trend_batch, x, x, EPS, "negated_log") == pytest.approx(16.1181, abs=1e-3)

    def test_identity_monotone_zero(self):
        x = col([1, 2, 3, 4])
        assert one_value(trend_batch, x, x, 1e-3, "monotone") == 0.0

    def test_known_slope_gap(self):
        # slopes 1.5 and 0.5 at t=4: discrepancy 1.0 * sum|tau| = 8/3
        x = col([0, 1, 2, 3])
        x_rec = col([0, 1 / 3, 2 / 3, 1])
        assert slope(x_rec)[0] == pytest.approx(0.5)
        expected = -math.log(8 / 3 + EPS)
        assert one_value(trend_batch, x, x_rec, EPS, "negated_log") == pytest.approx(expected)
        assert one_value(trend_batch, x, x_rec, EPS, "monotone") == pytest.approx(
            math.log(8 / 3 + EPS) - math.log(EPS)
        )

    def test_offset_invariance(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
        for variant in ("negated_log", "monotone"):
            base = one_value(trend_batch, x, y, EPS, variant)
            assert one_value(trend_batch, x + 3.0, y, EPS, variant) == pytest.approx(base)
            assert one_value(trend_batch, x, y - 1.25, EPS, variant) == pytest.approx(base)

    def test_monotone_nonnegative_increasing(self):
        x = col([0, 0, 0, 0])
        gaps = []
        for slope in (0.0, 0.1, 0.5, 2.0):
            y = col(np.arange(4.0) * slope)
            gaps.append(one_value(trend_batch, x, y, EPS, "monotone"))
        assert gaps[0] == 0.0
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            one_value(trend_batch, col([0, 1]), col([0, 1]), EPS, "linear")


class TestTrendLossGrad:
    def test_identity_zero(self):
        x = np.random.default_rng(2).normal(size=(8, 3))
        for variant in ("negated_log", "monotone"):
            assert np.all(one_grad(trend_batch, x, x, EPS, variant) == 0)

    @pytest.mark.parametrize("variant", ["negated_log", "monotone"])
    def test_finite_differences(self, variant):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=(12, 2))
            y = rng.uniform(-1, 1, size=(12, 2))
            grad = one_grad(trend_batch, x, y, EPS, variant)
            fd = central_difference(lambda yy: one_value(trend_batch, x, yy, EPS, variant), y)
            assert rel_err(grad, fd) < 1e-4

    def test_all_ones_direction_is_flat(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(10, 1)), rng.normal(size=(10, 1))
        grad = one_grad(trend_batch, x, y, EPS, "monotone")
        assert abs(grad.sum()) < 1e-12  # intercept excluded: constant shifts change nothing


class TestSeasonalityLoss:
    def test_identity(self):
        x = np.random.default_rng(5).normal(size=(16, 2))
        assert one_value(seasonality_batch, x, x) == 0.0
        assert np.all(one_grad(seasonality_batch, x, x) == 0)

    def test_single_channel_delegates_to_spectral(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=16), rng.normal(size=16)
        expected = float(np.abs(dft_naive(a) - dft_naive(b)).sum())
        assert one_value(seasonality_batch, col(a), col(b)) == pytest.approx(expected)

    def test_two_channels_sum_against_naive(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        expected = 0.0
        for c in range(2):
            expected += float(np.abs(dft_naive(x[:, c]) - dft_naive(y[:, c])).sum())
        assert one_value(seasonality_batch, x, y) == pytest.approx(expected, rel=1e-10)

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        x, y = rng.uniform(-1, 1, size=(16, 2)), rng.uniform(-1, 1, size=(16, 2))
        grad = one_grad(seasonality_batch, x, y)
        fd = central_difference(lambda yy: one_value(seasonality_batch, x, yy), y)
        assert rel_err(grad, fd) < 1e-4


def seasonality_oracle(X, XR):
    """`seasonality_batch`'s earlier form: a complex-by-real divide, masked by `np.where`."""
    n = X.shape[1]
    delta = np.fft.rfft(np.swapaxes(XR - X, 1, 2), axis=-1)
    mod = np.abs(delta)
    values = np.sum(mod @ losses._pair_weights(n), axis=1)
    with np.errstate(invalid="ignore"):
        phases = np.where(mod < losses.ZERO_MODULUS, 0.0,
                          delta / np.maximum(mod, losses.ZERO_MODULUS))
    return values, np.swapaxes(np.fft.irfft(phases, n, axis=-1, norm="forward"), 1, 2)


def trend_grad_oracle(X, XR, epsilon, variant):
    """`trend_batch`'s earlier gradient, broadcast over a size-d inner axis."""
    w, abs_tau_sum = losses._slope_weights(X.shape[1])
    diff = slopes_batch(XR) - slopes_batch(X)
    disc = abs_tau_sum * np.sum(np.abs(diff), axis=1)
    sign = np.where(np.abs(diff) < losses.SLOPE_TIE, 0.0, np.sign(diff))
    scale = abs_tau_sum / (disc + epsilon)
    if variant == "negated_log":
        scale = -scale
    return scale[:, None, None] * w[None, :, None] * sign[:, None, :]


def random_pairs(seed, count, min_t):
    """`count` random (X, XR) stacks, (B, t, d) with t in min_t..140 and d in 1..5.

    The differences range from exact ties (X == XR, and one window equal in
    every stack) through bins below ZERO_MODULUS to order-1 gaps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = (int(rng.integers(1, 9)), int(rng.integers(min_t, 141)), int(rng.integers(1, 6)))
        X = rng.normal(size=shape) * rng.uniform(1e-3, 10.0)
        XR = X + rng.normal(size=shape) * rng.choice([0.0, 1e-16, 1e-14, 1e-3, 1.0])
        XR[0] = X[0]
        yield X, XR


class TestKernelsAgainstOracles:
    """The kernels against their earlier expressions: values bit for bit, and
    gradients equal as numbers (a zero may change sign, which Adam ignores)."""

    def test_seasonality(self):
        below = 0
        for X, XR in random_pairs(20, 1000, 1):
            values, grads = seasonality_batch(X, XR, want_grad=True)
            expected_values, expected_grads = seasonality_oracle(X, XR)
            assert values.tobytes() == expected_values.tobytes()
            assert np.array_equal(grads, expected_grads)
            assert np.array_equal(seasonality_batch(X, XR)[0], values)
            mod = np.abs(np.fft.rfft(XR - X, axis=1))
            below += np.count_nonzero((mod > 0) & (mod < losses.ZERO_MODULUS))
        assert below > 0  # some nonzero bins took the zero subgradient

    @pytest.mark.parametrize("variant", losses.TREND_VARIANTS)
    def test_trend(self, variant):
        for X, XR in random_pairs(21, 1000, 2):
            values, grads = trend_batch(X, XR, EPS, variant, want_grad=True)
            assert values.tobytes() == trend_batch(X, XR, EPS, variant)[0].tobytes()
            assert np.array_equal(grads, trend_grad_oracle(X, XR, EPS, variant))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_window_is_silent(self, bad):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(3, 16, 2))
        XR = X + rng.normal(size=X.shape)
        XR[1, 5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, grads = seasonality_batch(X, XR, want_grad=True)
        assert np.isfinite(values).tolist() == [True, False, True]
        assert not np.isfinite(grads[1, :, 1]).any()
        assert np.isfinite(grads[[0, 2]]).all() and np.isfinite(grads[1, :, 0]).all()


class TestShapeLoss:
    def test_known_value(self):
        assert one_value(shape_batch, col([1, 2]), col([0, 0])) == 3.0

    def test_identity(self):
        x = np.random.default_rng(9).normal(size=(8, 2))
        assert one_value(shape_batch, x, x) == 0.0

    def test_gradient_is_sign(self):
        x = col([1.0, 2.0, 3.0])
        y = col([0.0, 2.0, 5.0])
        assert np.array_equal(one_grad(shape_batch, x, y), col([-1.0, 0.0, 1.0]))

    def test_finite_differences(self):
        rng = np.random.default_rng(10)
        x, y = rng.uniform(-1, 1, size=(10, 3)), rng.uniform(-1, 1, size=(10, 3))
        grad = one_grad(shape_batch, x, y)
        fd = central_difference(lambda yy: one_value(shape_batch, x, yy), y)
        assert rel_err(grad, fd) < 1e-4

    @given(st.floats(-10, 10))
    @settings(max_examples=30)
    def test_homogeneity(self, c):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        assert one_value(shape_batch, c * x, c * y) == pytest.approx(abs(c) * one_value(shape_batch, x, y))


class TestMseLoss:
    def test_known_value(self):
        assert one_value(mse_batch, col([1, 2]), col([0, 0])) == pytest.approx(2.5)

    def test_identity(self):
        x = np.random.default_rng(12).normal(size=(5, 2))
        assert one_value(mse_batch, x, x) == 0.0

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        x, y = rng.uniform(-1, 1, size=(9, 2)), rng.uniform(-1, 1, size=(9, 2))
        grad = one_grad(mse_batch, x, y)
        fd = central_difference(lambda yy: one_value(mse_batch, x, yy), y)
        assert rel_err(grad, fd) < 1e-5


class TestLossWeights:
    def test_defaults_match_reported_best(self):
        w = LossWeights()
        assert (w.lambda1, w.lambda2, w.lambda3) == (1.5, 10.0, 1.0)
        assert w.epsilon == 1e-7

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda1=-1.0)

    def test_epsilon_positive(self):
        with pytest.raises(ConfigError):
            LossWeights(epsilon=0.0)

    def test_unknown_trend_variant_rejected(self):
        with pytest.raises(ConfigError, match="trend_variant must be one of"):
            LossWeights(trend_variant="x")


class TestCombined:
    def test_identity_monotone_all_zero(self):
        x = np.random.default_rng(14).normal(size=(16, 1))
        tre, sea, shp, total, grads = strad_batch(x[None], x[None], LossWeights(), want_grad=True)
        assert (tre[0], sea[0], shp[0], total[0]) == (0.0, 0.0, 0.0, 0.0)
        assert np.all(grads == 0)

    def test_total_is_weighted_sum_exactly(self):
        rng = np.random.default_rng(15)
        w = LossWeights(lambda1=1.5, lambda2=10.0, lambda3=1.0)
        x, y = rng.normal(size=(16, 2)), rng.normal(size=(16, 2))
        bd_trend, bd_sea, bd_shape, bd_total, _ = strad_batch(x[None], y[None], w)
        tre = one_value(trend_batch, x, y, w.epsilon, w.trend_variant)
        sea = one_value(seasonality_batch, x, y)
        shp = one_value(shape_batch, x, y)
        assert bd_trend[0] == tre and bd_sea[0] == sea and bd_shape[0] == shp
        assert bd_total[0] == w.lambda1 * tre + w.lambda2 * sea + w.lambda3 * shp

    def test_gradient_is_weighted_sum_exactly(self):
        rng = np.random.default_rng(16)
        w = LossWeights(lambda1=0.7, lambda2=2.0, lambda3=3.0)
        x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        combined = strad_batch(x[None], y[None], w, want_grad=True)[4][0]
        parts = (
            w.lambda1 * one_grad(trend_batch, x, y, w.epsilon, w.trend_variant)
            + w.lambda2 * one_grad(seasonality_batch, x, y)
            + w.lambda3 * one_grad(shape_batch, x, y)
        )
        assert np.array_equal(combined, parts)

    def test_gradient_flattens_without_a_copy(self):
        rng = np.random.default_rng(23)
        X, XR = rng.normal(size=(4, 16, 3)), rng.normal(size=(4, 16, 3))
        grads = strad_batch(X, XR, LossWeights(), want_grad=True)[4]
        assert np.shares_memory(grads, grads.reshape(4, -1))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            strad_batch(np.zeros((1, 4, 1)), np.zeros((1, 5, 1)), LossWeights())


class TestBatchKernels:
    """Every row of a batched kernel call equals that row computed alone."""

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(17)
        w = LossWeights()
        X = rng.normal(size=(7, 16, 2))
        XR = rng.normal(size=(7, 16, 2))
        tre, sea, shp, total, grads = strad_batch(X, XR, w, want_grad=True)
        for i in range(7):
            a_tre, a_sea, a_shp, a_total, a_grads = strad_batch(
                X[i : i + 1], XR[i : i + 1], w, want_grad=True)
            assert tre[i] == pytest.approx(a_tre[0], rel=1e-12, abs=1e-12)
            assert sea[i] == pytest.approx(a_sea[0], rel=1e-12)
            assert shp[i] == pytest.approx(a_shp[0], rel=1e-12)
            assert total[i] == pytest.approx(a_total[0], rel=1e-12)
            assert np.allclose(grads[i], a_grads[0], atol=1e-12)

    def test_mse_batch_equals_loop(self):
        rng = np.random.default_rng(18)
        X, XR = rng.normal(size=(5, 8, 1)), rng.normal(size=(5, 8, 1))
        values, grads = mse_batch(X, XR, want_grad=True)
        for i in range(5):
            assert values[i] == pytest.approx(one_value(mse_batch, X[i], XR[i]), rel=1e-12)
            assert np.allclose(grads[i], one_grad(mse_batch, X[i], XR[i]), atol=1e-15)


@pytest.mark.parametrize("component", gradcheck.LOSS_COMPONENTS)
def test_batched_fd_matches_per_probe_loop(component):
    """gradcheck's one-call finite differences against one kernel call per probe."""
    kernel = gradcheck._KERNELS[component]
    rng = np.random.default_rng(19)
    x, y = rng.uniform(-1, 1, size=(16, 3)), rng.uniform(-1, 1, size=(16, 3))
    step = gradcheck.FD_STEP
    reference = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        hi = y.copy()
        hi[idx] += step
        lo = y.copy()
        lo[idx] -= step
        reference[idx] = (one_value(kernel, x, hi) - one_value(kernel, x, lo)) / (2 * step)
    batched = gradcheck._fd_window_gradient(kernel, x, y, step)
    assert batched.shape == y.shape
    assert rel_err(batched, reference) <= 1e-12
