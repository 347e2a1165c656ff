import numpy as np
import pytest

from strad.errors import ConfigError, DataError
from strad.series import segments_from_labels
from strad.synth import (
    AnomalySpec,
    ChannelSpec,
    GeneratorConfig,
    generate_base,
    inject,
    make_benchmark,
    train_length,
)


def clean_cfg(**kw):
    defaults = dict(
        length=400,
        channels=(ChannelSpec(shapelet="sine", omega=0.25, amplitude=1.0, phase=0.0),),
        noise_sigma=0.0,
        seed=0,
        name="t",
    )
    defaults.update(kw)
    return GeneratorConfig(**defaults)


class TestGenerateBase:
    def test_quarter_cycle_sine(self):
        ts = generate_base(clean_cfg(length=8))
        # sin(pi/2 * j) cycles 0, 1, 0, -1
        expected = [0, 1, 0, -1, 0, 1, 0, -1]
        assert np.abs(ts.values[:, 0] - expected).max() < 1e-12
        assert np.all(ts.labels == 0)

    def test_pure_slope(self):
        cfg = clean_cfg(channels=(ChannelSpec(omega=0.1, amplitude=0.0, slope=0.5),))
        ts = generate_base(cfg)
        assert np.array_equal(ts.values[:, 0], 0.5 * np.arange(400))

    def test_seed_determinism(self):
        cfg = clean_cfg(noise_sigma=0.3, seed=9)
        a, b = generate_base(cfg), generate_base(cfg)
        assert np.array_equal(a.values, b.values)

    def test_noiseless_periodicity(self):
        # period 1/omega = 4 samples
        ts = generate_base(clean_cfg(length=100))
        assert np.abs(ts.values[4:, 0] - ts.values[:-4, 0]).max() < 1e-12

    def test_square_and_sawtooth_range(self):
        for shapelet in ("square", "sawtooth"):
            cfg = clean_cfg(channels=(ChannelSpec(shapelet=shapelet, omega=0.05),))
            values = generate_base(cfg).values
            assert values.min() >= -1.0 - 1e-12 and values.max() <= 1.0 + 1e-12

    def test_nyquist_bound(self):
        with pytest.raises(ConfigError):
            ChannelSpec(omega=0.5)


class TestInject:
    def test_global_point_label_and_locality(self):
        cfg = clean_cfg(noise_sigma=0.1)
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("global_point", 5, 1, 10.0), cfg)
        assert out.labels.sum() == 1 and out.labels[5] == 1
        mask = np.ones(400, dtype=bool)
        mask[5] = False
        assert np.array_equal(out.values[mask], base.values[mask])
        assert out.values[5, 0] != base.values[5, 0]

    def test_trend_pattern_label_count(self):
        cfg = clean_cfg()
        out = inject(generate_base(cfg), AnomalySpec("trend_pattern", 10, 20, 0.1), cfg)
        assert out.labels.sum() == 20
        assert segments_from_labels(out.labels).size and out.labels[10:30].all()

    def test_trend_pattern_adds_ramp(self):
        cfg = clean_cfg()
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("trend_pattern", 10, 20, 0.1), cfg)
        added = out.values[10:30, 0] - base.values[10:30, 0]
        assert np.abs(added - 0.1 * np.arange(20)).max() < 1e-12

    def test_seasonal_identity_magnitude(self):
        cfg = clean_cfg(noise_sigma=0.2, seed=3)
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("seasonal_pattern", 50, 40, 1.0), cfg)
        assert np.array_equal(out.values, base.values)  # degenerate magnitude
        assert out.labels[50:90].all() and out.labels.sum() == 40

    def test_seasonal_phase_continuous_at_left_edge(self):
        cfg = clean_cfg(channels=(ChannelSpec(omega=0.05),))
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("seasonal_pattern", 100, 50, 1.5), cfg)
        # the first injected point continues the base waveform exactly
        assert abs(out.values[100, 0] - base.values[100, 0]) < 1e-12
        assert np.abs(out.values[101:150, 0] - base.values[101:150, 0]).max() > 0.01

    def test_shapelet_pattern_changes_waveform_keeps_noise(self):
        cfg = clean_cfg(noise_sigma=0.05, seed=5)
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("shapelet_pattern", 40, 16, 1.0), cfg)
        # sine -> square at the same frequency, same noise residual
        j = np.arange(40, 56)
        theta = 2 * np.pi * 0.25 * j
        residual = base.values[40:56, 0] - np.sin(theta)
        expected = np.where(np.sin(theta) >= 0, 1.0, -1.0) + residual
        assert np.abs(out.values[40:56, 0] - expected).max() < 1e-12

    def test_contextual_point_uses_local_stats(self):
        cfg = clean_cfg(noise_sigma=0.1, seed=7)
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("contextual_point", 20, 1, 3.0), cfg)
        local = base.values[15:26, 0]
        assert out.values[20, 0] == pytest.approx(local.mean() + 3.0 * local.std())

    def test_channel_selector(self):
        cfg = clean_cfg(channels=(ChannelSpec(omega=0.25), ChannelSpec(omega=0.1)))
        base = generate_base(cfg)
        out = inject(base, AnomalySpec("global_point", 3, 1, 5.0, channel=1), cfg)
        assert out.values[3, 0] == base.values[3, 0]
        assert out.values[3, 1] != base.values[3, 1]

    def test_out_of_range_rejected(self):
        cfg = clean_cfg(length=100)
        with pytest.raises(DataError):
            inject(generate_base(cfg), AnomalySpec("trend_pattern", 90, 20, 0.1), cfg)

    def test_point_kind_length_validation(self):
        with pytest.raises(ConfigError):
            AnomalySpec("global_point", 0, 5, 1.0)
        with pytest.raises(ConfigError):
            AnomalySpec("seasonal_pattern", 0, 1, 1.0)


class TestMakeBenchmark:
    def test_train_clean_test_labeled(self):
        cfg = clean_cfg(length=200, noise_sigma=0.05)
        specs = [AnomalySpec("trend_pattern", 50, 10, 0.2),
                 AnomalySpec("global_point", 120, 1, 6.0)]
        train, test = make_benchmark(cfg, specs, 0.5)
        assert train.length == 100 and np.all(train.labels == 0)
        assert test.length == 200
        assert test.labels.sum() == 11

    def test_anomaly_rate(self):
        cfg = clean_cfg(length=1000, noise_sigma=0.05)
        specs = [AnomalySpec("seasonal_pattern", 100, 40, 1.5),
                 AnomalySpec("shapelet_pattern", 400, 60, 1.0)]
        _, test = make_benchmark(cfg, specs, 0.3)
        assert test.labels.sum() / test.length == pytest.approx(100 / 1000)

    def test_labels_match_injected_ranges(self):
        cfg = clean_cfg(length=500, noise_sigma=0.05)
        specs = [AnomalySpec("trend_pattern", 100, 20, 0.1),
                 AnomalySpec("trend_pattern", 120, 10, 0.1),  # adjacent: merges
                 AnomalySpec("seasonal_pattern", 300, 30, 1.4)]
        _, test = make_benchmark(cfg, specs, 0.5)
        segments = segments_from_labels(test.labels)
        assert segments.tolist() == [[100, 129], [300, 329]]

    def test_train_is_the_head_of_a_full_length_generation(self):
        cfg = GeneratorConfig(
            length=301, noise_sigma=0.3, seed=11, name="h",
            channels=(ChannelSpec(),
                      ChannelSpec(shapelet="square", omega=0.07, amplitude=0.8, phase=1.0),
                      ChannelSpec(shapelet="sawtooth", omega=0.013, phase=2.0, slope=0.01)))
        train, _ = make_benchmark(cfg, [], 0.37)
        head = generate_base(cfg).values[:train_length(cfg, 0.37)]
        assert train.values.shape == head.shape == (111, 3)
        assert train.values.tobytes() == head.tobytes()  # bit for bit
        assert train.name == "h_train" and not train.labels.any()

    def test_reproducible(self):
        cfg = clean_cfg(length=300, noise_sigma=0.1, seed=13)
        specs = [AnomalySpec("shapelet_pattern", 100, 30, 1.0)]
        a = make_benchmark(cfg, specs, 0.4)
        b = make_benchmark(cfg, specs, 0.4)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_train_test_use_different_seeds(self):
        cfg = clean_cfg(length=200, noise_sigma=0.2, seed=1)
        train, test = make_benchmark(cfg, [], 0.5)
        assert not np.array_equal(train.values, test.values[:100])

    def test_spec_outside_test_region(self):
        cfg = clean_cfg(length=100)
        with pytest.raises(DataError, match="outside test region"):
            make_benchmark(cfg, [AnomalySpec("trend_pattern", 95, 10, 0.1)], 0.5)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            make_benchmark(clean_cfg(), [], 1.0)
