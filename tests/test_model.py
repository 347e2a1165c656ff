import numpy as np
import pytest

from strad.errors import CheckpointError, ConfigError, NumericError, ShapeMismatchError
from strad.losses import mse_loss, mse_loss_grad
from strad.model import (
    DenseAutoencoder,
    adam_step,
    default_layer_sizes,
    forward,
    init_adam,
    init_model,
    load_checkpoint,
    parameter_gradients,
    save_checkpoint,
)
from strad.series import TimeSeries, Window, sliding_windows


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_model([8, 4, 2, 4, 8], seed=123)
        b = init_model([8, 4, 2, 4, 8], seed=123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seed_differs(self):
        a = init_model([8, 4, 8], seed=0)
        b = init_model([8, 4, 8], seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_weight_shapes(self):
        m = init_model([8, 4, 2, 4, 8], seed=0)
        assert [w.shape for w in m.weights] == [(4, 8), (2, 4), (4, 2), (8, 4)]
        assert [b.shape for b in m.biases] == [(4,), (2,), (4,), (8,)]

    def test_glorot_bound(self):
        m = init_model([10, 6, 10], seed=7)
        for w, (fan_in, fan_out) in zip(m.weights, [(10, 6), (6, 10)]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= bound

    def test_biases_zero(self):
        m = init_model([5, 3, 5], seed=0)
        assert all(np.all(b == 0) for b in m.biases)

    def test_output_must_match_input(self):
        with pytest.raises(ConfigError):
            init_model([8, 4, 6], seed=0)

    def test_default_layer_sizes_mirrored(self):
        assert default_layer_sizes(64, (64, 16)) == (64, 64, 16, 64, 64)
        assert default_layer_sizes(12, (5,)) == (12, 5, 12)


class TestForward:
    def test_zero_model_reconstructs_zero(self):
        m = init_model([6, 3, 6], seed=0)
        m.weights = [np.zeros_like(w) for w in m.weights]
        out = forward(m, Window(data=np.ones((6, 1))))
        assert np.all(out.data == 0)

    def test_output_shape_matches_input(self):
        m = init_model([12, 5, 12], seed=3)
        w = Window(data=np.random.default_rng(0).normal(size=(4, 3)), start=7)
        out = forward(m, w)
        assert out.data.shape == (4, 3) and out.start == 7

    def test_identity_single_linear_layer(self):
        m = DenseAutoencoder(layer_sizes=(6, 6), weights=[np.eye(6)], biases=[np.zeros(6)])
        x = np.random.default_rng(1).normal(size=(3, 2))
        out = forward(m, Window(data=x))
        assert np.allclose(out.data, x, atol=0)

    def test_size_mismatch(self):
        m = init_model([8, 4, 8], seed=0)
        with pytest.raises(ShapeMismatchError):
            forward(m, Window(data=np.zeros((3, 2))))


class TestParameterGradients:
    def test_zero_upstream_all_zero(self):
        m = init_model([6, 4, 6], seed=2)
        grads = parameter_gradients(m, Window(data=np.ones((6, 1))), np.zeros((6, 1)))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    def test_matches_finite_differences_mse(self):
        # <= 50 parameters: sizes (4,3,2,3,4) has 48
        rng = np.random.default_rng(3)
        m = init_model([4, 3, 2, 3, 4], seed=5)
        assert m.parameter_count() <= 50
        x = rng.uniform(-1, 1, size=(4, 1))
        recon = forward(m, Window(data=x)).data
        analytic = parameter_gradients(m, Window(data=x), mse_loss_grad(x, recon))
        step = 1e-5
        for li, (gw, gb) in enumerate(analytic):
            for arr, grad in ((m.weights[li], gw), (m.biases[li], gb)):
                for k in range(arr.size):
                    orig = arr.flat[k]
                    arr.flat[k] = orig + step
                    hi = mse_loss(x, forward(m, Window(data=x)).data)
                    arr.flat[k] = orig - step
                    lo = mse_loss(x, forward(m, Window(data=x)).data)
                    arr.flat[k] = orig
                    fd = (hi - lo) / (2 * step)
                    denom = max(abs(grad.flat[k]), abs(fd), 1e-6)
                    assert abs(grad.flat[k] - fd) / denom < 1e-4

    def test_shape_mismatch(self):
        m = init_model([6, 3, 6], seed=0)
        with pytest.raises(ShapeMismatchError):
            parameter_gradients(m, Window(data=np.zeros((6, 1))), np.zeros((3, 2)))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        m = init_model([6, 3, 6], seed=1)
        state = init_adam(m)
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(m.weights, m.biases)]
        updated, state2 = adam_step(m, zero, state)
        assert state2.step == 1
        for w0, w1 in zip(m.weights, updated.weights):
            assert np.array_equal(w0, w1)

    def test_first_step_bounded_by_lr(self):
        m = init_model([6, 3, 6], seed=2)
        state = init_adam(m, lr=1e-3)
        rng = np.random.default_rng(0)
        grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape))
                 for w, b in zip(m.weights, m.biases)]
        updated, _ = adam_step(m, grads, state)
        for w0, w1, (gw, _) in zip(m.weights, updated.weights, grads):
            delta = w1 - w0
            assert np.abs(delta).max() <= 1e-3 * (1 + 1e-6)
            moved = np.abs(gw) > 1e-12
            assert np.all(np.sign(delta[moved]) == -np.sign(gw[moved]))

    def test_deterministic_replay(self):
        def run():
            m = init_model([6, 3, 6], seed=3)
            state = init_adam(m)
            rng = np.random.default_rng(1)
            for _ in range(2):
                grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape))
                         for w, b in zip(m.weights, m.biases)]
                m, state = adam_step(m, grads, state)
            return m

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_non_finite_gradient_rejected(self):
        m = init_model([6, 3, 6], seed=4)
        state = init_adam(m)
        grads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(m.weights, m.biases)]
        grads[0][0][0, 0] = np.nan
        with pytest.raises(NumericError):
            adam_step(m, grads, state)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        m = init_model([8, 4, 2, 4, 8], seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path, meta={"config": "abc123", "seed": "9"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"config": "abc123", "seed": "9"}
        assert loaded.layer_sizes == m.layer_sizes
        for wa, wb in zip(m.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(m.biases, loaded.biases):
            assert np.array_equal(ba, bb)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("something else\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model([6, 3, 6], seed=2), path)
        lines = path.read_text().splitlines()
        for keep in range(3, len(lines)):
            path.write_text("\n".join(lines[:keep]) + "\n")
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_malformed_number_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model([6, 3, 6], seed=2), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(" ", " x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_directory_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)

    def test_save_is_deterministic(self, tmp_path):
        m = init_model([6, 3, 6], seed=11)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDescentSmoke:
    def test_mse_halves_loss_on_tiny_dataset(self):
        # fixed tiny dataset: 20 non-overlapping windows, t=16, d=1
        from strad.detector import TrainConfig, train

        passed = 0
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            values = 0.8 * np.sin(2 * np.pi * np.arange(320) / 16)
            values = values + 0.05 * rng.normal(size=320)
            windows = sliding_windows(TimeSeries(values=values), 16, 16)
            assert len(windows) == 20
            model = init_model(default_layer_sizes(16, (64, 16)), seed=seed)
            cfg = TrainConfig(epochs=200, batch_size=20, seed=seed, loss_kind="mse")
            result = train(model, windows, cfg)
            assert result.steps == 200
            if result.history[-1].total <= 0.5 * result.history[0].total:
                passed += 1
        assert passed >= 4
