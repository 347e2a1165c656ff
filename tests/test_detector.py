import numpy as np
import pytest

from strad.detector import (
    ScoreSeries,
    TrainConfig,
    score,
    threshold_best_f1,
    threshold_quantile,
    train,
)
from strad.errors import ConfigError, DataError, NumericError
from strad.losses import LossWeights, seasonality_loss, trend_loss
from strad.metrics import pa_counts, rpa_counts
from strad.model import forward, init_model, default_layer_sizes
from strad.series import TimeSeries, Window, segments_from_labels, sliding_windows


def identity_model(n):
    m = init_model((n, n))
    m.weights[0][...] = np.eye(n)
    return m


def sine_series(m, seed=0, noise=0.05, channels=1):
    rng = np.random.default_rng(seed)
    base = np.sin(2 * np.pi * np.arange(m) / 16)
    values = np.stack([base + noise * rng.normal(size=m) for _ in range(channels)], axis=1)
    return TimeSeries(values=values)


def naive_score(model, series, t, stride, weights, mode):
    """Window-by-window reference for the vectorized scorer."""
    sums = np.zeros(series.length)
    cov = np.zeros(series.length, dtype=int)
    n = (series.length - t) // stride + 1
    for k in range(n):
        s = k * stride
        w = Window(data=series.values[s : s + t], start=s)
        rec = forward(model, w)
        per_point = weights.lambda3 * np.abs(w.data - rec.data).sum(axis=1)
        if mode == "strad_broadcast":
            sea = seasonality_loss(w.data, rec.data)
            tre = trend_loss(w.data, rec.data, weights.epsilon, "monotone")
            per_point = per_point + (weights.lambda1 * tre + weights.lambda2 * sea) / t
        sums[s : s + t] += per_point
        cov[s : s + t] += 1
    return np.divide(sums, cov, out=np.zeros_like(sums), where=cov > 0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(loss_kind="dtw")
        with pytest.raises(ConfigError):
            TrainConfig(mix=1.5)


class TestTrain:
    def test_single_batch_single_epoch_one_step(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train(model, windows, TrainConfig(epochs=1, batch_size=len(windows), seed=0))
        assert result.steps == 1
        assert len(result.history) == 1

    def test_history_length_equals_epochs(self):
        ts = sine_series(80)
        windows = sliding_windows(ts, 16, 8)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train(model, windows, TrainConfig(epochs=7, batch_size=4, seed=0))
        assert len(result.history) == 7

    def test_strad_history_carries_components(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train(model, windows, TrainConfig(epochs=2, batch_size=4, seed=0,
                                                   loss_kind="strad"))
        epoch = result.history[0]
        assert epoch.trend is not None and epoch.seasonality is not None
        assert epoch.seasonality >= 0 and epoch.shape >= 0

    def test_mse_history_total_only(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train(model, windows, TrainConfig(epochs=2, batch_size=4, seed=0,
                                                   loss_kind="mse"))
        assert result.history[0].trend is None

    def test_deterministic_given_seed(self):
        ts = sine_series(96)
        windows = sliding_windows(ts, 16, 8)

        def run():
            model = init_model(default_layer_sizes(16, (8,)), seed=4)
            return train(model, windows, TrainConfig(epochs=3, batch_size=4, seed=4,
                                                     loss_kind="strad"))

        a, b = run(), run()
        assert np.array_equal(a.model.params, b.model.params)
        assert a.history == b.history

    def test_mse_plus_strad_mixes(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train(model, windows, TrainConfig(epochs=1, batch_size=4, seed=0,
                                                   loss_kind="mse_plus_strad", mix=0.5))
        assert result.history[0].trend is not None

    def test_non_finite_loss_aborts(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError):
            train(model, windows, TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_shape_mismatch(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 8, 8)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        from strad.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            train(model, windows, TrainConfig(epochs=1, batch_size=4, seed=0))


class TestScore:
    def test_perfect_reconstructor_scores_zero(self):
        ts = sine_series(100)
        model = identity_model(16)
        result = score(model, ts, 16, 1, LossWeights(), "strad_broadcast")
        assert np.all(result.scores == 0)

    def test_coverage_stride_one(self):
        ts = sine_series(100)
        result = score(identity_model(16), ts, 16, 1, LossWeights(), "shape_only")
        assert result.coverage[0] == 1
        assert result.coverage[15] == 16
        assert result.coverage[50] == 16  # interior point: t covering windows
        assert result.coverage[-1] == 1

    def test_uncovered_tail_with_large_stride(self):
        # windows start at 0, 3, 6 and cover indices up to 9; index 10 is bare
        ts = TimeSeries(values=np.arange(11.0))
        result = score(identity_model(4), ts, 4, 3, LossWeights(), "shape_only")
        assert result.coverage[10] == 0 and result.scores[10] == 0.0
        assert result.coverage[9] == 1

    def test_single_window_shape_only_value(self):
        # one covering window, x=1, x'=0, lambda3=1, d=1 -> score 1 per point
        ts = TimeSeries(values=np.ones(4))
        zero = init_model((4, 4))
        zero.weights[0][...] = 0.0
        result = score(zero, ts, 4, 1, LossWeights(), "shape_only")
        assert np.allclose(result.scores, 1.0)

    def test_broadcast_dominates_shape_only(self):
        ts = sine_series(120, seed=5)
        model = init_model(default_layer_sizes(16, (4,)), seed=2)
        shape_only = score(model, ts, 16, 1, LossWeights(), "shape_only")
        broadcast = score(model, ts, 16, 1, LossWeights(), "strad_broadcast")
        assert np.all(broadcast.scores >= shape_only.scores - 1e-12)

    @pytest.mark.parametrize("mode", ["shape_only", "strad_broadcast"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_matches_naive_loop(self, mode, stride):
        ts = sine_series(90, seed=6, channels=2)
        model = init_model(default_layer_sizes(32, (8,)), seed=3)
        weights = LossWeights(lambda1=2.0, lambda2=5.0, lambda3=1.5)
        got = score(model, ts, 16, stride, weights, mode, chunk=7)
        expected = naive_score(model, ts, 16, stride, weights, mode)
        assert np.abs(got.scores - expected).max() < 1e-9

    def test_window_too_long(self):
        with pytest.raises(DataError):
            score(identity_model(16), sine_series(10), 16, 1, LossWeights(), "shape_only")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            score(identity_model(16), sine_series(40), 16, 1, LossWeights(), "mse")


class TestThresholdBestF1:
    def test_single_spike(self):
        scores = ScoreSeries(scores=np.array([0.0, 0.0, 9.0, 0.0]),
                             coverage=np.ones(4, dtype=int))
        labels = np.array([0, 0, 1, 0])
        threshold, f1 = threshold_best_f1(scores, labels, "rpa")
        assert 0.0 < threshold <= 9.0
        assert f1 == 1.0

    def test_all_zero_scores_degenerate_sweep(self):
        # With run-level RPA, the all-positive prediction at threshold 0 forms
        # one run that overlaps the truth segment, so it scores F1=1 and wins
        # the sweep. (A faithful enumeration; the quantile mode exists because
        # of exactly this degeneracy.)
        scores = ScoreSeries(scores=np.zeros(4), coverage=np.ones(4, dtype=int))
        labels = np.array([0, 1, 1, 0])
        threshold, f1 = threshold_best_f1(scores, labels, "rpa")
        assert threshold == 0.0 and f1 == 1.0

    def test_empty_truth_yields_zero(self):
        scores = ScoreSeries(scores=np.array([0.0, 1.0, 2.0]),
                             coverage=np.ones(3, dtype=int))
        threshold, f1 = threshold_best_f1(scores, np.zeros(3, dtype=int), "rpa")
        assert f1 == 0.0 and threshold == np.inf

    def test_tie_breaks_to_higher_threshold(self):
        scores = ScoreSeries(scores=np.array([1.0, 2.0, 3.0, 4.0]),
                             coverage=np.ones(4, dtype=int))
        labels = np.array([0, 0, 1, 1])
        threshold, f1 = threshold_best_f1(scores, labels, "rpa")
        # every threshold hits the segment and produces no fp run: all tie at
        # f1=1, and the tie rule keeps the highest threshold (fewest positives)
        assert f1 == 1.0 and threshold == 4.0

    def test_returned_f1_recomputable(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=60)
        labels = (rng.uniform(size=60) < 0.2).astype(int)
        scores = ScoreSeries(scores=raw, coverage=np.ones(60, dtype=int))
        for metric in ("rpa", "pa"):
            threshold, f1 = threshold_best_f1(scores, labels, metric)
            preds = (raw >= threshold).astype(int)
            if metric == "rpa":
                again = rpa_counts(preds, segments_from_labels(labels)).f1
            else:
                again = pa_counts(preds, labels).f1
            assert f1 == again

    def test_labels_required(self):
        scores = ScoreSeries(scores=np.zeros(3), coverage=np.ones(3, dtype=int))
        with pytest.raises(DataError):
            threshold_best_f1(scores, None, "rpa")


class TestThresholdQuantile:
    def make(self, values):
        return ScoreSeries(scores=np.asarray(values, dtype=float),
                           coverage=np.ones(len(values), dtype=int))

    def test_top_quantile(self):
        assert threshold_quantile(self.make([1, 2, 3]), 1.0) == 3.0

    def test_median_interpolates(self):
        assert threshold_quantile(self.make([1, 3]), 0.5) == 2.0

    def test_constant_scores(self):
        assert threshold_quantile(self.make([4, 4, 4, 4]), 0.37) == 4.0

    def test_q_out_of_range(self):
        with pytest.raises(ConfigError):
            threshold_quantile(self.make([1, 2]), 0.0)
