import base64
import tracemalloc

import numpy as np
import pytest

from strad.errors import CheckpointError, ConfigError, NumericError, ShapeMismatchError
from strad.losses import mse_batch
from strad.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DenseAutoencoder,
    adam_step,
    backward_batch,
    default_layer_sizes,
    forward_batch,
    init_adam,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from strad.series import TimeSeries, sliding_windows


def reconstruct(model, X):
    """The model's reconstruction of a (B, t, d) window stack, in the stack's shape."""
    return forward_batch(model, X.reshape(len(X), -1))[-1].reshape(X.shape)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_model([8, 4, 2, 4, 8], seed=123)
        b = init_model([8, 4, 2, 4, 8], seed=123)
        assert np.array_equal(a.params, b.params)

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

    def test_params_layout(self):
        # one flat vector, laid out W0 (row-major), b0, W1, b1; the lists are views
        m = init_model([3, 2, 3], seed=0)
        m.params[:] = np.arange(m.params.size)
        assert isinstance(m.weights, list) and isinstance(m.biases, list)
        assert np.array_equal(m.weights[0], np.arange(6).reshape(2, 3))
        assert np.array_equal(m.biases[0], [6, 7])
        assert np.array_equal(m.weights[1], np.arange(8, 14).reshape(3, 2))
        assert np.array_equal(m.biases[1], [14, 15, 16])
        m.biases[1][0] = -1.0
        assert m.params[14] == -1.0

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
        for w in m.weights:
            w[...] = 0.0
        out = reconstruct(m, np.ones((1, 6, 1)))
        assert np.all(out == 0)

    def test_output_shape_matches_input(self):
        m = init_model([12, 5, 12], seed=3)
        X = np.random.default_rng(0).normal(size=(2, 4, 3))
        acts = forward_batch(m, X.reshape(2, -1))
        assert acts[-1].shape == (2, 12)

    def test_identity_single_linear_layer(self):
        m = init_model((6, 6))
        m.weights[0][...] = np.eye(6)
        x = np.random.default_rng(1).normal(size=(1, 3, 2))
        out = reconstruct(m, x)
        assert np.allclose(out, x, atol=0)

    def test_size_mismatch(self):
        m = init_model([8, 4, 8], seed=0)
        with pytest.raises(ShapeMismatchError):
            reconstruct(m, np.zeros((1, 3, 2)))


class TestParameterGradients:
    def test_zero_upstream_all_zero(self):
        m = init_model([6, 4, 6], seed=2)
        acts = forward_batch(m, np.ones((1, 6)))
        grad = backward_batch(m, acts, np.zeros((1, 6)))
        assert grad.shape == m.params.shape and np.all(grad == 0)

    def test_matches_finite_differences_mse(self):
        # <= 50 parameters: sizes (4,3,2,3,4) has 48
        rng = np.random.default_rng(3)
        m = init_model([4, 3, 2, 3, 4], seed=5)
        assert m.params.size <= 50
        x = rng.uniform(-1, 1, size=(1, 4, 1))
        acts = forward_batch(m, x.reshape(1, -1))
        _, loss_grad = mse_batch(x, acts[-1].reshape(x.shape), want_grad=True)
        analytic = backward_batch(m, acts, loss_grad.reshape(1, -1))
        step = 1e-5
        for k in range(m.params.size):
            orig = m.params[k]
            m.params[k] = orig + step
            hi = mse_batch(x, reconstruct(m, x))[0][0]
            m.params[k] = orig - step
            lo = mse_batch(x, reconstruct(m, x))[0][0]
            m.params[k] = orig
            fd = (hi - lo) / (2 * step)
            denom = max(abs(analytic[k]), abs(fd), 1e-6)
            assert abs(analytic[k] - fd) / denom < 1e-4

    def test_shape_mismatch(self):
        m = init_model([6, 3, 6], seed=0)
        with pytest.raises(ShapeMismatchError):
            backward_batch(m, forward_batch(m, np.zeros((1, 6))), np.zeros((1, 3)))


def textbook_adam(params, m, v, step, grad, lr):
    """Kingma & Ba's Algorithm 1 as written: separate bias-corrected moments."""
    step += 1
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v, step


class TestStack:
    """A (K, P) parameter stack computes each model's bits, as `train` relies on."""

    def test_each_model_computes_its_bits_alone(self):
        sizes = default_layer_sizes(12, (5, 2))
        models = [init_model(sizes, seed=s) for s in range(3)]
        stack = DenseAutoencoder(layer_sizes=sizes, params=np.stack([m.params for m in models]))
        rng = np.random.default_rng(0)
        X, upstream = rng.normal(size=(2, 3, 7, 12))
        acts = forward_batch(stack, X)
        grad = backward_batch(stack, acts, upstream)
        assert grad.shape == stack.params.shape
        for k, m in enumerate(models):
            alone = forward_batch(m, X[k])
            assert [a[k].tobytes() for a in acts] == [a.tobytes() for a in alone]
            assert grad[k].tobytes() == backward_batch(m, alone, upstream[k]).tobytes()

    def test_batch_must_match_the_stack(self):
        sizes = default_layer_sizes(12, (5,))
        stack = DenseAutoencoder(layer_sizes=sizes, params=np.zeros((3, init_model(sizes).params.size)))
        for shape in [(7, 12), (2, 7, 12), (3, 7, 11)]:
            with pytest.raises(ShapeMismatchError):
                forward_batch(stack, np.zeros(shape))
        with pytest.raises(ShapeMismatchError):
            DenseAutoencoder(layer_sizes=sizes, params=np.zeros((1, *stack.params.shape)))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        m = init_model([6, 3, 6], seed=1)
        state = init_adam(m, lr=1e-3)
        before = m.params.copy()
        assert adam_step(m, np.zeros_like(m.params), state) is None
        assert state.step == 1
        assert np.array_equal(before, m.params)

    def test_first_step_bounded_by_lr(self):
        m = init_model([6, 3, 6], seed=2)
        state = init_adam(m, lr=1e-3)
        rng = np.random.default_rng(0)
        grad = rng.normal(size=m.params.shape)
        before = m.params.copy()
        adam_step(m, grad, state)
        delta = m.params - before
        assert np.abs(delta).max() <= 1e-3 * (1 + 1e-6)
        moved = np.abs(grad) > 1e-12
        assert np.all(np.sign(delta[moved]) == -np.sign(grad[moved]))

    def test_deterministic_replay(self):
        def run():
            m = init_model([6, 3, 6], seed=3)
            state = init_adam(m, lr=1e-3)
            rng = np.random.default_rng(1)
            for _ in range(2):
                adam_step(m, rng.normal(size=m.params.shape), state)
            return m

        a, b = run(), run()
        assert np.array_equal(a.params, b.params)

    @pytest.mark.parametrize("sizes", [(6, 3, 6), (64, 64, 16, 64, 64)])
    def test_folded_update_matches_textbook(self, sizes):
        m = init_model(sizes, seed=5)
        state = init_adam(m, lr=1e-2)
        params, mom, vel, step = m.params.copy(), state.m.copy(), state.v.copy(), 0
        rng = np.random.default_rng(2)
        for _ in range(200):
            grad = rng.normal(scale=rng.uniform(1e-3, 10.0), size=m.params.shape)
            adam_step(m, grad, state)
            params, mom, vel, step = textbook_adam(params, mom, vel, step, grad, state.lr)
        assert state.step == step
        assert np.array_equal(state.m, mom) and np.array_equal(state.v, vel)
        np.testing.assert_allclose(m.params, params, rtol=1e-12, atol=0)

    def test_work_is_one_parameter_sized_vector(self):
        m = init_model([6, 3, 6], seed=5)
        assert init_adam(m, lr=1e-3).work.shape == m.params.shape

    def test_overflowing_candidate_leaves_parameters(self):
        m = init_model([6, 3, 6], seed=6)
        m.params[:] = -np.finfo(np.float64).max
        state = init_adam(m, lr=1e300)
        before = m.params.copy()
        with pytest.raises(NumericError):
            adam_step(m, np.ones_like(m.params), state)
        assert np.array_equal(before, m.params)

    def test_overflowing_second_moment_is_numeric_error(self):
        # (1 - beta2) g g overflows for g = 1e200; an inf v would freeze params[0] for good
        m = init_model([6, 3, 6], seed=6)
        state = init_adam(m, lr=1e-3)
        adam_step(m, np.ones_like(m.params), state)
        grad = np.zeros_like(m.params)
        grad[0] = 1e200
        params, moment1, moment2 = m.params.copy(), state.m.copy(), state.v.copy()
        with pytest.raises(NumericError):
            adam_step(m, grad, state)
        assert state.step == 1
        assert np.array_equal(params, m.params)
        assert np.array_equal(moment1, state.m) and np.array_equal(moment2, state.v)
        grad[0] = -1.0
        adam_step(m, grad, state)
        assert m.params[0] > params[0]

    def test_non_finite_gradient_rejected(self):
        m = init_model([6, 3, 6], seed=4)
        state = init_adam(m, lr=1e-3)
        grad = np.zeros_like(m.params)
        grad[0] = np.nan
        with pytest.raises(NumericError):
            adam_step(m, grad, state)


    @pytest.mark.parametrize("bad, error", [
        (lambda p: np.ones(p.size - 1), ShapeMismatchError),
        (lambda p: np.ones((1, p.size)), ShapeMismatchError),
        (lambda p: np.where(np.arange(p.size) == 7, np.nan, 1.0), NumericError),
    ], ids=["short", "2-D", "nan"])
    def test_rejected_gradient_writes_nothing(self, bad, error):
        m = init_model([6, 3, 6], seed=4)
        state = init_adam(m, lr=1e-3)
        adam_step(m, np.random.default_rng(0).normal(size=m.params.shape), state)
        before = [a.tobytes() for a in (m.params, state.m, state.v)]
        with pytest.raises(error):
            adam_step(m, bad(m.params), state)
        assert [a.tobytes() for a in (m.params, state.m, state.v)] == before
        assert state.step == 1

    @pytest.mark.parametrize("entries", [[np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["inf", "-inf", "inf-and-minus-inf"])
    def test_infinite_gradient_writes_nothing(self, entries):
        m = init_model([6, 3, 6], seed=4)
        state = init_adam(m, lr=1e-3)
        grad = np.ones_like(m.params)
        grad[[3, 11][: len(entries)]] = entries  # inf - inf sums to NaN
        before = [a.tobytes() for a in (m.params, state.m, state.v)]
        with pytest.raises(NumericError, match="non-finite gradient"):
            adam_step(m, grad, state)
        assert [a.tobytes() for a in (m.params, state.m, state.v)] == before
        assert state.step == 0

    def test_finite_parameters_whose_sum_overflows_are_written(self):
        # the sum of the candidate parameters is inf, yet every one is finite
        m = init_model([6, 3, 6], seed=4)
        m.params[:] = np.finfo(np.float64).max
        state = init_adam(m, lr=1e-3)
        adam_step(m, np.zeros_like(m.params), state)
        assert state.step == 1
        assert (m.params == np.finfo(np.float64).max).all()

    @pytest.mark.parametrize("fits", [1, 3])
    def test_step_peak_is_a_sixteenth_of_the_parameters(self, fits):
        # a bool per parameter, as `np.isfinite(x).all()` makes, is an eighth
        sizes = default_layer_sizes(512, (64, 16))
        m = DenseAutoencoder(layer_sizes=sizes,
                             params=np.tile(init_model(sizes, seed=0).params, (fits, 1)))
        state = init_adam(m, lr=1e-3)
        grad = np.random.default_rng(0).normal(size=m.params.shape)
        tracemalloc.start()
        try:
            adam_step(m, grad, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.params.nbytes / 16


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        m = init_model([8, 4, 2, 4, 8], seed=9)
        path = tmp_path / "model.ckpt"
        given = {"config": "abc123", "seed": "9", "a": "b=c", "k": "in ner", "": "", "#x": "#y"}
        save_checkpoint(m, path, meta=given)
        loaded, meta = load_checkpoint(path)
        assert meta == given
        assert loaded.layer_sizes == m.layer_sizes
        assert np.array_equal(m.params, loaded.params)

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

    def test_every_cut_before_end_is_checkpoint_error(self, tmp_path):
        # a cut inside the last bias line used to load a wrong bias silently
        path = tmp_path / "model.ckpt"
        m = init_model([6, 3, 6], seed=2)
        m.biases[-1][...] = np.random.default_rng(0).normal(size=6)
        save_checkpoint(m, path, meta={"seed": "2"})
        text = path.read_text()
        for cut in range(len(text) - 1):  # every prefix short of the whole last line
            path.write_text(text[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_content_after_end_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model([6, 3, 6], seed=2), path)
        path.write_text(path.read_text() + "0.5\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_v1_file_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model([6, 3, 6], seed=2), path)
        lines = path.read_text().splitlines()
        for magic in ("strad-checkpoint v1", "strad-checkpoint v2"):
            path.write_text("\n".join([magic] + lines[1:]) + "\n")
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_malformed_number_is_checkpoint_error(self, tmp_path):
        # a non-base64 or non-ASCII character anywhere in the parameter line
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model([6, 3, 6], seed=2), path)
        lines = path.read_text().splitlines()
        encoded = lines[2]
        for bad in ("!", " ", "\u00e9", "-", "="):
            for at in (0, len(encoded) // 2, len(encoded) - 1):
                lines[2] = encoded[:at] + bad + encoded[at + 1 :]
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)

    def test_wrong_byte_count_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        m = init_model([6, 3, 6], seed=2)
        save_checkpoint(m, path)
        lines = path.read_text().splitlines()
        raw = m.params.astype("<f8").tobytes()
        for wrong in (raw[:-8], raw[:-1], raw + raw[:8], b""):
            lines[2] = base64.b64encode(wrong).decode("ascii")
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CheckpointError, match="parameter"):
                load_checkpoint(path)

    def test_non_finite_value_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        for value in (np.nan, np.inf, -np.inf):
            m = init_model([6, 3, 6], seed=2)
            m.params[4] = value
            save_checkpoint(m, path)
            with pytest.raises(CheckpointError, match="non-finite"):
                load_checkpoint(path)

    def test_output_size_other_than_input_is_checkpoint_error(self, tmp_path):
        # sizes init_model refuses must not load either
        path = tmp_path / "bad.ckpt"
        save_checkpoint(DenseAutoencoder((6, 3, 4), np.zeros(7 * 3 + 4 * 4)), path)
        with pytest.raises(CheckpointError, match="output size 4 must equal input size 6"):
            load_checkpoint(path)

    def test_directory_is_file_not_found_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a readable file"):
            load_checkpoint(tmp_path)

    def test_undecodable_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"strad-checkpoint v3\n\xff\n")
        with pytest.raises(CheckpointError, match="cannot decode"):
            load_checkpoint(path)

    def test_resave_is_byte_identical(self, tmp_path):
        # signed zeros, subnormals, the extremes and integers, in every block
        m = init_model([8, 4, 2, 4, 8], seed=9)
        odd = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 3.0, -2.0 ** 53, 0.1, 1 / 3]
        m.params[: len(odd)] = odd
        m.params[-len(odd):] = odd
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, first, meta={"seed": "9"})
        loaded, meta = load_checkpoint(first)
        save_checkpoint(loaded, second, meta=meta)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.params.tobytes() == m.params.tobytes()
        encoded = base64.b64encode(m.params.astype("<f8").tobytes()).decode("ascii")
        assert first.read_text().splitlines() == [
            "strad-checkpoint v3", "# seed=9", "sizes 8 4 2 4 8", encoded, "end"]

    def test_save_is_deterministic(self, tmp_path):
        m = init_model([6, 3, 6], seed=11)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("meta", [
        {"a=b": "c"},  # loaded back as {"a": "b=c"}
        {"k": " padded "},  # loaded back as {"k": " padded"}
        {"k": "two\nlines"},
        {"k": "form\x0cfeed"},
        {"k\u2028": "v"},
        {" k": "v"},
        {"k": "v\t"},
    ])
    def test_meta_that_would_not_load_back_is_refused(self, tmp_path, meta):
        path = tmp_path / "model.ckpt"
        (key,) = meta
        with pytest.raises(CheckpointError) as caught:
            save_checkpoint(init_model([6, 3, 6], seed=2), path, meta=meta)
        assert repr(key) in str(caught.value)
        assert not path.exists()

    def test_save_peak_is_under_three_parameter_vectors(self, tmp_path):
        # the parameter line built as text five times over took 5.0 times the vector
        m = init_model(default_layer_sizes(512, (64, 16)), seed=0)
        tracemalloc.start()
        try:
            save_checkpoint(m, tmp_path / "model.ckpt", meta={"seed": "0"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m.params.nbytes


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
            [result] = train(model, windows[None], [cfg])
            assert len(result.history) == 200
            if result.history[-1]["total"] <= 0.5 * result.history[0]["total"]:
                passed += 1
        assert passed >= 4
