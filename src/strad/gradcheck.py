"""Central finite-difference verification of every analytic gradient.

Relative error per coordinate is |g_a - g_fd| / max(|g_a|, |g_fd|, 0.01*gmax)
with gmax the largest gradient magnitude of the pair, so near-zero coordinates
are judged against the gradient's own scale. Coordinates adjacent to a
non-differentiability (absolute-value ties, equal slopes, near-zero spectrum
bins) are excluded, as are model parameters whose finite-difference probe
crosses such a kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError
from .losses import LossWeights
from .model import backward_batch, forward_batch, init_model

FD_STEP = 1e-5
KINK_MARGIN = 1e-6
LOSS_TOLERANCE = 1e-4
MODEL_MSE_TOLERANCE = 1e-4
MODEL_COMBINED_TOLERANCE = 1e-3

MODEL_COMPONENTS = ("model_mse", "model_combined")

# (t, d) of the loss suites' windows, cycled through in this order
_WINDOW_SHAPES = [(t, d) for t in (8, 16, 32) for d in (1, 3)]

_WEIGHTS = LossWeights()


@dataclass
class GradCheckResult:
    component: str
    checked: int
    excluded: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


# Each component's batched kernel: (X, XR, want_grad) -> (values (B,), gradients (B, t, d) or None).
_KERNELS = {
    "trend_negated_log": lambda X, XR, g=False: losses.trend_batch(X, XR, _WEIGHTS.epsilon, "negated_log", g),
    "trend_monotone": lambda X, XR, g=False: losses.trend_batch(X, XR, _WEIGHTS.epsilon, "monotone", g),
    "seasonality": losses.seasonality_batch,
    "shape": losses.shape_batch,
    "mse": losses.mse_batch,
    "combined": lambda X, XR, g=False: losses.strad_batch(X, XR, _WEIGHTS, g)[3:],
}
LOSS_COMPONENTS = tuple(_KERNELS)


def _kernel(component: str):
    if component not in _KERNELS:
        raise ValueError(f"unknown component {component!r}")
    return _KERNELS[component]


def _slope(window: np.ndarray) -> np.ndarray:
    return losses.slopes_batch(window[None])[0]


def _min_bin_modulus(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest modulus of the (t, d) pair's difference spectrum, bins of every channel.

    The half spectrum holds every bin modulus of the full one.
    """
    return float(np.abs(losses._transform((y - x).T)).min())


def _exclusion_mask(component: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True where a coordinate sits within KINK_MARGIN of a non-differentiability."""
    mask = np.zeros(x.shape, dtype=bool)
    if component in ("shape", "combined"):
        mask |= np.abs(x - y) < KINK_MARGIN
    if component in ("trend_negated_log", "trend_monotone", "combined"):
        gap = np.abs(_slope(y) - _slope(x))  # (d,)
        mask |= (gap < KINK_MARGIN)[None, :]
    if component in ("seasonality", "combined"):
        if _min_bin_modulus(x, y) < KINK_MARGIN:
            mask |= True  # a tiny bin couples into every coordinate; skip the window
    return mask


def _fd_window_gradient(kernel, x: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """Central differences in every entry of `y`, all 2*t*d probes in one kernel call.

    Probe k of the stack is y + step*e_k and probe n + k is y - step*e_k, with
    n = t*d and e_k the k-th entry in row-major order.
    """
    n = y.size
    probes = np.repeat(y.reshape(1, n), 2 * n, axis=0)
    probes[np.arange(n), np.arange(n)] += step
    probes[n + np.arange(n), np.arange(n)] -= step
    values, _ = kernel(np.broadcast_to(x, (2 * n, *x.shape)), probes.reshape(2 * n, *y.shape))
    return ((values[:n] - values[n:]) / (2.0 * step)).reshape(y.shape)


def _rel_errors(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    gmax = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 0.01 * gmax)
    return np.abs(analytic - fd) / denom


def _fold(component: str, trials: list, tolerance: float) -> GradCheckResult:
    """One result from per-trial (analytic, finite-difference, keep-mask) triples."""
    max_err = 0.0
    checked = 0
    excluded = 0
    for analytic, fd, keep in trials:
        excluded += int((~keep).sum())
        if keep.any():
            checked += int(keep.sum())
            max_err = max(max_err, float(_rel_errors(analytic, fd)[keep].max()))
    return GradCheckResult(component=component, checked=checked, excluded=excluded,
                           max_rel_error=max_err, tolerance=tolerance)


def check_loss_component(component: str, seed: int, n_windows: int) -> GradCheckResult:
    """Compare one component's analytic gradient with central differences."""
    kernel = _kernel(component)
    rng = np.random.default_rng(seed)
    trials = []
    for i in range(n_windows):
        t, d = _WINDOW_SHAPES[i % len(_WINDOW_SHAPES)]
        x = rng.uniform(-1.0, 1.0, size=(t, d))
        y = rng.uniform(-1.0, 1.0, size=(t, d))
        analytic = kernel(x[None], y[None], True)[1][0]
        fd = _fd_window_gradient(kernel, x, y, FD_STEP)
        trials.append((analytic, fd, ~_exclusion_mask(component, x, y)))
    return _fold(component, trials, LOSS_TOLERANCE)


def _kink_signature(x: np.ndarray, y: np.ndarray) -> tuple:
    """Sign pattern of every absolute-value argument in the combined loss."""
    shape_signs = np.sign(y - x)
    slope_signs = np.sign(_slope(y) - _slope(x))
    bins_ok = bool(_min_bin_modulus(x, y) > 1e-9)
    return (shape_signs.tobytes(), slope_signs.tobytes(), bins_ok)


def check_model_component(component: str, seed: int, n_models: int,
                          layer_sizes: tuple[int, ...]) -> GradCheckResult:
    """End-to-end parameter gradients (loss o forward) against central differences."""
    if component not in MODEL_COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    kernel = _kernel(component.removeprefix("model_"))
    t, d = layer_sizes[0], 1
    tolerance = MODEL_MSE_TOLERANCE if component == "model_mse" else MODEL_COMBINED_TOLERANCE
    rng = np.random.default_rng(seed + 1)
    trials = []
    for trial in range(n_models):
        model = init_model(layer_sizes, seed=seed * 1000 + trial)
        x = rng.uniform(-1.0, 1.0, size=(t, d))
        acts = forward_batch(model, x.reshape(1, -1))
        upstream = kernel(x[None], acts[-1].reshape(1, t, d), True)[1].reshape(1, -1)
        analytic = backward_batch(model, acts, upstream)

        def probe(k: int, value: float) -> tuple[float, tuple]:
            model.params[k] = value
            out = forward_batch(model, x.reshape(1, -1))[-1].reshape(t, d)
            return float(kernel(x[None], out[None])[0][0]), _kink_signature(x, out)

        fd = np.zeros(model.params.size)
        keep = np.ones(model.params.size, dtype=bool)
        for k in range(model.params.size):
            orig = model.params[k]
            hi, sig_hi = probe(k, orig + FD_STEP)
            lo, sig_lo = probe(k, orig - FD_STEP)
            model.params[k] = orig
            fd[k] = (hi - lo) / (2.0 * FD_STEP)
            # exclude parameters whose probe flips a sign pattern or
            # touches a near-zero spectrum bin
            if sig_hi != sig_lo or not (sig_hi[2] and sig_lo[2]):
                keep[k] = False
        trials.append((analytic, fd, keep))
    return _fold(component, trials, tolerance)


def run_all(seed: int, n_windows: int, n_models: int,
            layer_sizes: tuple[int, ...]) -> list[GradCheckResult]:
    """Run every gradient suite; a negative seed, or no window or model, is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    for flag, value in (("--windows", n_windows), ("--models", n_models)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    results = []
    for component in LOSS_COMPONENTS:
        results.append(check_loss_component(component, seed=seed, n_windows=n_windows))
    for component in MODEL_COMPONENTS:
        results.append(check_model_component(
            component, seed=seed, n_models=n_models, layer_sizes=layer_sizes))
    return results


def format_report(results: list[GradCheckResult]) -> str:
    lines = [f"{'component':<18} {'checked':>8} {'excluded':>9} {'max rel err':>12} "
             f"{'tolerance':>10} {'status':>7}"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.component:<18} {r.checked:>8} {r.excluded:>9} "
                     f"{r.max_rel_error:>12.3e} {r.tolerance:>10.0e} {status:>7}")
    return "\n".join(lines)
