import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strad.detector
from strad.benchmarks import pattern_benchmark_config
from strad.cli import main
from strad.detector import (
    ScoreSeries,
    TrainConfig,
    f1_at,
    score,
    threshold_best_f1,
    threshold_quantile,
    train,
    window_coverage,
)
from strad.errors import ConfigError, DataError, NumericError, ShapeMismatchError
from strad.losses import LossWeights, seasonality_batch, trend_batch
from strad.metrics import pa_counts, rpa_counts
from strad.model import forward_batch, init_model, default_layer_sizes
from strad.series import TimeSeries, segments_from_labels, sliding_windows

from test_metrics import brute_pa, brute_rpa


SRC = Path(__file__).resolve().parents[1] / "src"


def train_alone(model, windows, cfg):
    """One fit: `train` of a one-fit stack."""
    [result] = train(model, windows[None], [cfg])
    return result


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
        w = series.values[s : s + t][None]  # a one-window stack
        rec = forward_batch(model, w.reshape(1, -1))[-1].reshape(w.shape)
        per_point = weights.lambda3 * np.abs(w[0] - rec[0]).sum(axis=1)
        if mode == "strad_broadcast":
            sea = seasonality_batch(w, rec)[0][0]
            tre = trend_batch(w, rec, weights.epsilon, "monotone")[0][0]
            per_point = per_point + (weights.lambda1 * tre + weights.lambda2 * sea) / t
        sums[s : s + t] += per_point
        cov[s : s + t] += 1
    return np.divide(sums, cov, out=np.zeros_like(sums), where=cov > 0), cov


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
    def test_single_batch_single_epoch_one_step(self, monkeypatch):
        steps = []
        adam_step = strad.detector.adam_step
        monkeypatch.setattr(strad.detector, "adam_step",
                            lambda *args: steps.append(adam_step(*args)))
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train_alone(model, windows, TrainConfig(epochs=1, batch_size=len(windows), seed=0))
        assert len(steps) == 1
        assert len(result.history) == 1

    def test_history_length_equals_epochs(self):
        ts = sine_series(80)
        windows = sliding_windows(ts, 16, 8)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train_alone(model, windows, TrainConfig(epochs=7, batch_size=4, seed=0))
        assert len(result.history) == 7

    def test_strad_history_carries_components(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train_alone(model, windows, TrainConfig(epochs=2, batch_size=4, seed=0,
                                                         loss_kind="strad"))
        epoch = result.history[0]
        assert list(epoch) == ["total", "trend", "seasonality", "shape"]
        assert epoch["seasonality"] >= 0 and epoch["shape"] >= 0

    def test_mse_history_total_only(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        result = train_alone(model, windows, TrainConfig(epochs=2, batch_size=4, seed=0,
                                                         loss_kind="mse"))
        assert list(result.history[0]) == ["total"]

    def test_deterministic_given_seed(self):
        ts = sine_series(96)
        windows = sliding_windows(ts, 16, 8)

        def run():
            model = init_model(default_layer_sizes(16, (8,)), seed=4)
            return train_alone(model, windows, TrainConfig(epochs=3, batch_size=4, seed=4,
                                                           loss_kind="strad"))

        a, b = run(), run()
        assert np.array_equal(a.model.params, b.model.params)
        assert a.history == b.history

    def test_mse_plus_strad_mixes(self):
        ts = sine_series(96)
        windows = sliding_windows(ts, 16, 8)
        model = init_model(default_layer_sizes(16, (8,)), seed=1)
        w = LossWeights(lambda1=2.0, lambda2=5.0, lambda3=1.5)
        mix = 0.3
        result = train_alone(model, windows, TrainConfig(epochs=3, batch_size=4, seed=1, weights=w,
                                                         loss_kind="mse_plus_strad", mix=mix))
        assert list(result.history[0]) == ["total", "mse", "trend", "seasonality", "shape"]
        for e in result.history:  # the total is the mix of the terms the row reports
            strad = w.lambda1 * e["trend"] + w.lambda2 * e["seasonality"] + w.lambda3 * e["shape"]
            assert e["total"] == pytest.approx(mix * e["mse"] + (1 - mix) * strad, rel=1e-12)

    def test_non_finite_loss_aborts(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError):
            train_alone(model, windows, TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_leaves_the_callers_model_unchanged(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 16, 16)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        before = model.params.copy()
        result = train_alone(model, windows, TrainConfig(epochs=2, batch_size=2, seed=0))
        assert np.array_equal(model.params, before)
        assert not np.array_equal(result.model.params, before)

    def test_empty_window_stack_is_data_error(self):
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        with pytest.raises(DataError):
            train_alone(model, np.zeros((0, 16, 1)), TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_shape_mismatch(self):
        ts = sine_series(64)
        windows = sliding_windows(ts, 8, 8)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        with pytest.raises(ShapeMismatchError):
            train_alone(model, windows, TrainConfig(epochs=1, batch_size=4, seed=0))


class TestLockstep:
    """`train` of a K-fit stack: per batch one step for every fit, and each
    fit's parameters and history are the bits it gets when trained alone."""

    @pytest.mark.parametrize("hidden", [(5,), (64, 16)])
    @pytest.mark.parametrize("d", [1, 3])
    def test_each_fit_gets_its_bits_alone(self, d, hidden):
        # 23 windows in batches of 7 leave a remainder; the two strad fits in a
        # row share one loss call, the ablation-style weights and the two mse
        # fits (not in a row) get their own
        base = TrainConfig(epochs=3, batch_size=7, seed=2, lr=1e-2)
        cfgs = [replace(base, loss_kind="mse"),
                replace(base, loss_kind="strad"),
                replace(base, loss_kind="strad"),
                replace(base, loss_kind="strad",
                        weights=LossWeights(lambda1=0.0, lambda2=10.0, lambda3=0.0)),
                replace(base, loss_kind="mse_plus_strad", mix=0.3),
                replace(base, loss_kind="mse")]
        windows = np.random.default_rng(d).standard_normal((len(cfgs), 23, 16, d))
        model = init_model(default_layer_sizes(16 * d, hidden), seed=1)
        stacked = train(model, windows, cfgs)
        assert len(stacked) == len(cfgs)
        for result, fit_windows, cfg in zip(stacked, windows, cfgs):
            alone = train_alone(model, fit_windows, cfg)
            assert result.model.params.tobytes() == alone.model.params.tobytes()
            assert ([list(row.items()) for row in result.history]
                    == [list(row.items()) for row in alone.history])

    def test_one_step_per_batch_and_one_loss_call_per_run(self, monkeypatch):
        calls, steps = [], []
        batch_loss, adam_step = strad.detector._batch_loss, strad.detector.adam_step
        monkeypatch.setattr(strad.detector, "_batch_loss", lambda X, XR, cfg: (
            calls.append((len(X), cfg.loss_kind)) or batch_loss(X, XR, cfg)))
        monkeypatch.setattr(strad.detector, "adam_step",
                            lambda *args: steps.append(adam_step(*args)))
        base = TrainConfig(epochs=1, batch_size=10, seed=0)
        cfgs = [replace(base, loss_kind=kind) for kind in ("mse", "strad", "strad", "mse")]
        windows = np.random.default_rng(0).standard_normal((4, 10, 16, 1))
        train(init_model(default_layer_sizes(16, (8,)), seed=0), windows, cfgs)
        assert len(steps) == 1
        assert calls == [(10, "mse"), (20, "strad"), (10, "mse")]

    @pytest.mark.parametrize("key, value", [("epochs", 2), ("batch_size", 3), ("seed", 1),
                                            ("lr", 1e-2)])
    def test_fits_share_their_schedule(self, key, value):
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        with pytest.raises(ConfigError, match="must share epochs, batch_size, seed and lr"):
            train(model, np.zeros((2, 8, 16, 1)), [cfg, replace(cfg, **{key: value})])

    def test_one_config_per_fit(self):
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        with pytest.raises(ShapeMismatchError, match="1 train configs for a stack of 2"):
            train(model, np.zeros((2, 8, 16, 1)), [TrainConfig(epochs=1)])

    def test_one_failing_fit_fails_the_stack(self):
        windows = np.random.default_rng(0).standard_normal((3, 8, 16, 1))
        windows[1, 5, 0, 0] = np.nan
        model = init_model(default_layer_sizes(16, (8,)), seed=0)
        with pytest.raises(NumericError, match="non-finite loss"):
            train(model, windows, [TrainConfig(epochs=1, batch_size=4, seed=0)] * 3)


class TestScore:
    def test_perfect_reconstructor_scores_zero(self):
        ts = sine_series(100)
        model = identity_model(16)
        result = score(model, ts, 16, 1, LossWeights(), "strad_broadcast")
        assert np.all(result.scores == 0)

    def test_coverage_stride_one(self):
        # the naive oracle averages each point over the windows it counts
        ts = sine_series(100)
        model = init_model(default_layer_sizes(16, (4,)), seed=1)
        expected, coverage = naive_score(model, ts, 16, 1, LossWeights(), "shape_only")
        assert coverage[0] == 1
        assert coverage[15] == 16
        assert coverage[50] == 16  # interior point: t covering windows
        assert coverage[-1] == 1
        result = score(model, ts, 16, 1, LossWeights(), "shape_only")
        assert np.abs(result.scores - expected).max() < 1e-9

    def test_uncovered_tail_with_large_stride(self):
        # windows start at 0, 3, 6 and cover indices up to 9; index 10 is bare
        ts = TimeSeries(values=np.arange(11.0))
        zero = init_model((4, 4))
        zero.weights[0][...] = 0.0  # reconstructs 0, so a covered point scores |x|
        expected, coverage = naive_score(zero, ts, 4, 3, LossWeights(), "shape_only")
        assert coverage[10] == 0 and coverage[9] == 1
        result = score(zero, ts, 4, 3, LossWeights(), "shape_only")
        assert result.scores[10] == 0.0 and result.scores[9] == 9.0
        assert np.array_equal(result.scores, expected)

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
    def test_matches_naive_loop(self, mode, stride, monkeypatch):
        ts = sine_series(90, seed=6, channels=2)
        model = init_model(default_layer_sizes(32, (8,)), seed=3)
        weights = LossWeights(lambda1=2.0, lambda2=5.0, lambda3=1.5)
        # the oracle divides by its own window count per point, so matching
        # scores check the coverage too
        expected, _ = naive_score(model, ts, 16, stride, weights, mode)
        windows = (90 - 16) // stride + 1
        for chunk in (1, 7, 128, windows, windows + 1):  # windows: one block holds them all
            monkeypatch.setattr(strad.detector, "SCORE_CHUNK", chunk)
            got = score(model, ts, 16, stride, weights, mode)
            assert np.abs(got.scores - expected).max() < 1e-9, chunk

    def test_window_too_long(self):
        with pytest.raises(DataError):
            score(identity_model(16), sine_series(10), 16, 1, LossWeights(), "shape_only")

    def test_model_input_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            score(identity_model(32), sine_series(40), 16, 1, LossWeights(), "shape_only")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            score(identity_model(16), sine_series(40), 16, 1, LossWeights(), "mse")


def offset_loop(contrib, length, stride):
    """The overlap-add over a whole (n, t) contribution array that `score`
    streams: window i adds contrib[i, j] at point i*stride + j. Offsets run
    from t-1 down, so every point sums its windows in start order."""
    n, t = contrib.shape
    sums = np.zeros(length)
    coverage = np.zeros(length, dtype=np.int64)
    for j in range(t - 1, -1, -1):
        points = slice(j, j + n * stride, stride)
        sums[points] += contrib[:, j]
        coverage[points] += 1
    return sums, coverage


class TestOverlapAdd:
    """`score` sums blocks of windows into the points bit for bit as one loop
    would.

    `score` relies on `np.add.at` adding its terms into their points one at a
    time in the order listed, window by window; numpy documents the sum but
    not its order, so this test pins it. A fake `forward_batch` records each
    block's terms, and with lambda3 = 1, one channel and "shape_only" each
    recorded `np.abs(flat - recon)` is exactly the term `score` adds.
    """

    def test_matches_the_offset_loop_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(26)
        terms = []

        def fake_forward(model, flat):
            # terms over 12 orders of magnitude: any reordering changes the bits
            recon = flat - rng.exponential(size=flat.shape) * 10.0 ** rng.uniform(-6, 6, flat.shape)
            terms.append(np.abs(flat - recon))
            return [recon]

        monkeypatch.setattr(strad.detector, "forward_batch", fake_forward)
        cases = [  # (n, t, stride, chunk)
            (300, 16, 1, 128), (5, 16, 1, 128),  # n < chunk
            (40, 1, 1, 7), (40, 1, 3, 1),  # t = 1
            (50, 9, 1, 1), (50, 9, 4, 1),  # chunk 1
            (30, 4, 9, 8), (30, 4, 4, 8), (30, 5, 4, 8),  # stride > t, = t, not dividing t
            (129, 64, 1, 128), (256, 64, 1, 128), (1, 3, 2, 128),
        ]
        for _ in range(300):
            t = int(rng.integers(1, 40))
            cases.append((int(rng.integers(1, 300)), t, int(rng.integers(1, 2 * t + 3)),
                          int(rng.choice([1, 2, 7, 16, 128, 300]))))
        for n, t, stride, chunk in cases:
            length = (n - 1) * stride + t + int(rng.integers(0, stride))  # n windows fit
            monkeypatch.setattr(strad.detector, "SCORE_CHUNK", chunk)
            terms.clear()
            ts = TimeSeries(values=rng.normal(size=(length, 1)))
            scores = score(None, ts, t, stride, LossWeights(), "shape_only").scores
            sums, coverage = offset_loop(np.concatenate(terms), length, stride)
            expected = np.divide(sums, coverage, out=sums, where=coverage > 0)
            case = (n, t, stride, chunk)
            assert len(terms) == -(-n // chunk), case
            assert np.array_equal(scores.view(np.int64), expected.view(np.int64)), case
            assert np.array_equal(window_coverage(length, n, t, stride), coverage), case


class TestChannelSum:
    """`score` sums each window's channels first to last, ((e0 + e1) + e2) +
    ..., bit for bit.

    Below 8 channels that is `np.sum`'s order as well; from 8 on `np.sum`
    adds pairwise, so those scores moved in their last bits when `score` took
    this order. A fake `forward_batch` records each block's absolute errors, as
    in `TestOverlapAdd`; the channel sums go to `offset_loop`.
    """

    def test_channels_add_first_to_last(self, monkeypatch):
        rng = np.random.default_rng(32)
        terms = []

        def fake_forward(model, flat):
            # terms over 12 orders of magnitude: any reordering changes the bits
            recon = flat - rng.exponential(size=flat.shape) * 10.0 ** rng.uniform(-6, 6, flat.shape)
            terms.append(np.abs(flat - recon))
            return [recon]

        monkeypatch.setattr(strad.detector, "forward_batch", fake_forward)
        for d in range(2, 10):
            for n, t, stride in ((300, 16, 1), (40, 5, 3), (7, 1, 1)):
                length = (n - 1) * stride + t
                terms.clear()
                ts = TimeSeries(values=rng.normal(size=(length, d)))
                scores = score(None, ts, t, stride, LossWeights(), "shape_only").scores
                errors = np.concatenate(terms).reshape(n, t, d)  # a window flattens point-major
                contrib = errors[:, :, 0]
                for c in range(1, d):
                    contrib = contrib + errors[:, :, c]
                sums, coverage = offset_loop(contrib, length, stride)
                expected = np.divide(sums, coverage, out=sums, where=coverage > 0)
                assert np.array_equal(scores.view(np.int64), expected.view(np.int64)), (d, n, t)
                if d >= 8 and n == 300:  # the data tells the orders apart
                    sums, _ = offset_loop(np.sum(errors, axis=2), length, stride)
                    pairwise = np.divide(sums, coverage, out=sums, where=coverage > 0)
                    assert not np.array_equal(scores, pairwise)


class TestScoreMemory:
    def peak_bytes(self, m):
        ts = TimeSeries(values=np.sin(np.arange(m) / 5.0)[:, None])
        model = init_model(default_layer_sizes(64, (16,)), seed=0)
        tracemalloc.start()
        try:
            score(model, ts, 64, 1, LossWeights(), "strad_broadcast")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_linearly_in_the_points_with_a_small_constant(self):
        # an (n, t) contribution array would take 64 * 8 bytes per point here
        small, large = self.peak_bytes(25_000), self.peak_bytes(50_000)
        assert large < 3_000_000
        assert large - small < 48 * 25_000


class TestTrainMemory:
    @pytest.mark.parametrize("loss_kind", ["strad", "mse_plus_strad"])
    def test_peak_holds_one_step_next_to_adam(self, loss_kind):
        # parameters, Adam's m, v and work vector, and one step's arrays; a step
        # that kept its arrays into the next took 7.1 parameter vectors here
        windows = np.random.default_rng(0).standard_normal((96, 128, 4))
        model = init_model(default_layer_sizes(512, (64, 16)), seed=0)
        tracemalloc.start()
        try:
            train_alone(model, windows, TrainConfig(epochs=2, loss_kind=loss_kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * model.params.nbytes

    def test_a_model_the_caller_does_not_hold_is_freed(self):
        # `experiments.fit` passes its initial model so; kept through training,
        # it took 7.1 parameter vectors here
        windows = np.random.default_rng(0).standard_normal((1, 96, 128, 4))
        tracemalloc.start()
        try:
            [result] = train(init_model(default_layer_sizes(512, (64, 16)), seed=0), windows,
                             [TrainConfig(epochs=2)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * result.model.params.nbytes

    def test_stack_peak_grows_with_its_fits(self):
        # K parameter copies, Adam's three (K, P) stacks and one stacked step
        fits = ("strad", "mse_plus_strad", "strad")
        windows = np.random.default_rng(0).standard_normal((len(fits), 96, 128, 4))
        model = init_model(default_layer_sizes(512, (64, 16)), seed=0)
        tracemalloc.start()
        try:
            train(model, windows, [TrainConfig(epochs=2, loss_kind=kind) for kind in fits])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * len(fits) * model.params.nbytes


def brute_best_f1(score_series, labels, metric="rpa"):
    """Reference sweep: recount F1 at every distinct score, highest first,
    with the per-definition loops of `test_metrics`.

    The strict `>` keeps the higher threshold on ties; +inf (predict nothing)
    with F1 = 0 stands when no threshold scores above 0.
    """
    scores = score_series.scores
    labels = [int(v) for v in labels]
    recount = brute_rpa if metric == "rpa" else brute_pa
    best_threshold, best_f1 = np.inf, 0.0
    for threshold in np.unique(scores)[::-1]:
        tp, fp, fn = recount([int(v) for v in scores >= threshold], labels)
        # the F1 rule written out, apart from `ConfusionCounts`, which the sweep uses
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        if f1 > best_f1:
            best_f1, best_threshold = f1, float(threshold)
    return best_threshold, best_f1


METRICS = ["rpa", "pa"]


def as_series(scores):
    scores = np.asarray(scores, dtype=float)
    return ScoreSeries(scores)


@st.composite
def labelled_scores(draw):
    m = draw(st.integers(0, 40))
    labels = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    if draw(st.booleans()):  # few distinct values: many tied scores
        scores = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    else:
        scores = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=m, max_size=m))
    return as_series(scores), np.array(labels, dtype=np.int64)


class TestThresholdBestF1:
    @settings(max_examples=300, deadline=None)
    @given(labelled_scores(), st.sampled_from(METRICS))
    def test_matches_brute_force_sweep(self, case, metric):
        scores, labels = case
        assert threshold_best_f1(scores, labels, metric)[:2] == brute_best_f1(scores, labels, metric)

    @settings(max_examples=300, deadline=None)
    @given(labelled_scores(), st.sampled_from(METRICS))
    @example((as_series([]), np.array([], dtype=np.int64)), "rpa")  # M = 0
    @example((as_series([]), np.array([], dtype=np.int64)), "pa")
    @example((as_series([2.0, 1.0, 1.0, 2.0, 1.0]), np.array([0, 1, 0, 0, 1])), "rpa")  # ties
    @example((as_series([2.0, 1.0, 1.0, 2.0, 1.0]), np.array([0, 1, 0, 0, 1])), "pa")
    def test_all_positive_f1_equals_recount_at_minimum(self, case, metric):
        scores, labels = case
        if scores.scores.size:
            expected = f1_at(scores.scores, scores.scores.min(), labels, metric)
        else:
            expected = 0.0  # M = 0: no prediction at all
        assert threshold_best_f1(scores, labels, metric)[2] == expected

    # fixed ids, so that every case keeps its test name
    @pytest.mark.parametrize("metric", METRICS, ids=["sweep0", "sweep2"])
    @pytest.mark.parametrize("scores,labels", [
        ([], []),  # M = 0
        ([1.0, 2.0, 3.0], [0, 0, 0]),  # no truth segment
        ([1.0, 2.0, 2.0], [1, 1, 1]),  # all truth
        ([3.0, 1.0, 2.0, 0.0, 3.0], [1, 0, 0, 0, 1]),  # truth at 0 and at M - 1
        ([2.0, 0.5, 0.5, 2.0, 1.0, 0.5], [1, 0, 1, 1, 0, 1]),  # ties across segments and gaps
    ])
    def test_edge_cases_match_brute_force(self, scores, labels, metric):
        series, labels = as_series(scores), np.array(labels, dtype=np.int64)
        assert threshold_best_f1(series, labels, metric)[:2] == brute_best_f1(series, labels, metric)

    def test_sweep_makes_no_per_threshold_recount(self, monkeypatch):
        rng = np.random.default_rng(3)
        series = as_series(rng.integers(0, 12, size=80))
        labels = (rng.uniform(size=80) < 0.3).astype(np.int64)
        expected = [brute_best_f1(series, labels, metric) for metric in METRICS]

        def recount(*args, **kwargs):
            raise AssertionError("threshold_best_f1 recounted at a single threshold")

        monkeypatch.setattr(strad.detector, "rpa_counts", recount)
        monkeypatch.setattr(strad.detector, "pa_counts", recount)
        assert [threshold_best_f1(series, labels, metric)[:2] for metric in METRICS] == expected

    def test_single_spike(self):
        scores = ScoreSeries(np.array([0.0, 0.0, 9.0, 0.0]))
        labels = np.array([0, 0, 1, 0])
        threshold, f1, _ = threshold_best_f1(scores, labels, "rpa")
        assert 0.0 < threshold <= 9.0
        assert f1 == 1.0

    def test_all_zero_scores_degenerate_sweep(self):
        # With run-level RPA, the all-positive prediction at threshold 0 forms
        # one run that overlaps the truth segment, so it scores F1=1 and wins
        # the sweep. (A faithful enumeration; the quantile mode exists because
        # of exactly this degeneracy.)
        scores = ScoreSeries(np.zeros(4))
        labels = np.array([0, 1, 1, 0])
        threshold, f1, _ = threshold_best_f1(scores, labels, "rpa")
        assert threshold == 0.0 and f1 == 1.0

    def test_empty_truth_yields_zero(self):
        scores = ScoreSeries(np.array([0.0, 1.0, 2.0]))
        threshold, f1, _ = threshold_best_f1(scores, np.zeros(3, dtype=int), "rpa")
        assert f1 == 0.0 and threshold == np.inf

    def test_tie_breaks_to_higher_threshold(self):
        scores = ScoreSeries(np.array([1.0, 2.0, 3.0, 4.0]))
        labels = np.array([0, 0, 1, 1])
        threshold, f1, _ = threshold_best_f1(scores, labels, "rpa")
        # every threshold hits the segment and produces no fp run: all tie at
        # f1=1, and the tie rule keeps the highest threshold (fewest positives)
        assert f1 == 1.0 and threshold == 4.0

    def test_returned_f1_recomputable(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=60)
        labels = (rng.uniform(size=60) < 0.2).astype(int)
        scores = ScoreSeries(raw)
        for metric in ("rpa", "pa"):
            threshold, f1, _ = threshold_best_f1(scores, labels, metric)
            preds = (raw >= threshold).astype(int)
            if metric == "rpa":
                again = rpa_counts(preds, segments_from_labels(labels)).f1
            else:
                again = pa_counts(preds, labels).f1
            assert f1 == again

    def test_labels_required(self):
        scores = ScoreSeries(np.zeros(3))
        with pytest.raises(DataError):
            threshold_best_f1(scores, None, "rpa")

    def test_unknown_metric(self):
        with pytest.raises(DataError, match="metric must be one of"):
            threshold_best_f1(ScoreSeries(np.zeros(3)), np.zeros(3, dtype=int), "x")

    def test_labels_one_point_longer(self):
        with pytest.raises(ShapeMismatchError):
            threshold_best_f1(ScoreSeries(np.zeros(3)), np.zeros(4, dtype=int), "rpa")


class TestF1At:
    """A fixed threshold checks what the sweep checks."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_scores_past_the_labels_rejected(self, metric):
        # under "rpa" this was a false-positive run past the labels' end: F1 0.667
        with pytest.raises(ShapeMismatchError, match="scores length"):
            f1_at(np.array([0, 1, 0, 0, 0, 0, 1, 1.]), 0.5, np.array([0, 1, 0, 0]), metric)

    def test_rpa_finding_half_the_segments(self):
        # tp == fn at a fixed threshold, as in quantile mode: 4 of 8 segments, no false run
        labels = np.tile([0, 0, 1, 1], 8)
        scores = np.where(np.arange(labels.size) < 16, 2.0 * labels, 0.0)
        preds = [int(v) for v in scores >= 1.0]
        assert brute_rpa(preds, labels.tolist()) == (4, 0, 4)
        assert f1_at(scores, 1.0, labels, "rpa") == 2 / 3

    def test_unknown_metric(self):
        # was counted as PA, F1 1.0
        with pytest.raises(DataError, match="metric must be one of"):
            f1_at(np.array([0, 1, 0, 0.]), 0.5, np.array([0, 1, 0, 0]), "f1")


class TestThresholdQuantile:
    def make(self, values):
        return ScoreSeries(np.asarray(values, dtype=float))

    def test_top_quantile(self):
        assert threshold_quantile(self.make([1, 2, 3]), 1.0) == 3.0

    def test_median_interpolates(self):
        assert threshold_quantile(self.make([1, 3]), 0.5) == 2.0

    def test_constant_scores(self):
        assert threshold_quantile(self.make([4, 4, 4, 4]), 0.37) == 4.0

    def test_q_out_of_range(self):
        with pytest.raises(ConfigError):
            threshold_quantile(self.make([1, 2]), 0.0)

    def test_empty_scores(self):
        with pytest.raises(DataError, match="empty scores"):
            threshold_quantile(self.make([]), 0.5)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NumericError):
            self.make([0.0, np.nan])

    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(26)
        for case in range(400):
            size = 1 if case % 10 == 0 else int(rng.integers(2, 60))
            if case % 2:  # few distinct values: many ties
                values = rng.integers(0, 4, size=size).astype(float)
            else:
                values = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
            exact = int(rng.integers(1, size)) / (size - 1) if size > 1 else 1.0
            for q in (1.0, 0.99, 0.5, 0.25, 0.75, exact, float(rng.uniform(1e-9, 1.0))):
                got = np.float64(threshold_quantile(self.make(values), q))
                expected = np.quantile(values, q)
                assert got.view(np.int64) == expected.view(np.int64), (values, q)


def run_in_child(*argv):
    """`strad <argv>` in a fresh interpreter: its exit code and whether
    `numpy.ma` was imported by the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = ("import json, sys; from strad.cli import main; rc = main(sys.argv[1:]); "
              "print(json.dumps([rc, 'numpy.ma' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestNoMaskedArrays:
    """The quantile threshold imports no `numpy.ma`; `np.quantile` does."""

    def write_config(self, tmp_path):
        doc = pattern_benchmark_config(seed=3, length=600, epochs=1)
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_detect_in_quantile_mode(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["train", "-c", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "shapelet_model.ckpt"
        assert run_in_child("detect", "-c", cfg, "--checkpoint", ckpt) == [0, False]

    def test_compare(self, tmp_path):
        assert run_in_child("compare", "-c", self.write_config(tmp_path)) == [0, False]
