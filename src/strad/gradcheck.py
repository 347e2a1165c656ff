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
from typing import Optional

import numpy as np

from . import losses
from .losses import LossWeights
from .model import DenseAutoencoder, forward_batch, init_model, parameter_gradients
from .series import Window

FD_STEP = 1e-5
KINK_MARGIN = 1e-6
LOSS_TOLERANCE = 1e-4
MODEL_MSE_TOLERANCE = 1e-4
MODEL_COMBINED_TOLERANCE = 1e-3

LOSS_COMPONENTS = ("trend_negated_log", "trend_monotone", "seasonality", "shape", "mse", "combined")
MODEL_COMPONENTS = ("model_mse", "model_combined")
ALL_COMPONENTS = LOSS_COMPONENTS + MODEL_COMPONENTS

_WEIGHTS = LossWeights(lambda1=1.5, lambda2=10.0, lambda3=1.0, epsilon=1e-7,
                       trend_variant="monotone")


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


def _loss_pair(component: str):
    """(value_fn, grad_fn) taking (x, y) arrays."""
    if component == "trend_negated_log":
        return (lambda x, y: losses.trend_loss(x, y, 1e-7, "negated_log"),
                lambda x, y: losses.trend_loss_grad(x, y, 1e-7, "negated_log"))
    if component == "trend_monotone":
        return (lambda x, y: losses.trend_loss(x, y, 1e-7, "monotone"),
                lambda x, y: losses.trend_loss_grad(x, y, 1e-7, "monotone"))
    if component == "seasonality":
        return losses.seasonality_loss, losses.seasonality_loss_grad
    if component == "shape":
        return losses.shape_loss, losses.shape_loss_grad
    if component == "mse":
        return losses.mse_loss, losses.mse_loss_grad
    if component == "combined":
        return (lambda x, y: losses.strad_loss(x, y, _WEIGHTS).total,
                lambda x, y: losses.strad_grad(x, y, _WEIGHTS))
    raise ValueError(f"unknown component {component!r}")


def _exclusion_mask(component: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True where a coordinate sits within KINK_MARGIN of a non-differentiability."""
    mask = np.zeros(x.shape, dtype=bool)
    if component in ("shape", "combined"):
        mask |= np.abs(x - y) < KINK_MARGIN
    if component in ("trend_negated_log", "trend_monotone", "combined"):
        gap = np.abs(losses.trend_fit(y) - losses.trend_fit(x))  # (d,)
        mask |= (gap < KINK_MARGIN)[None, :]
    if component in ("seasonality", "combined"):
        delta = np.fft.fft(y.T) - np.fft.fft(x.T)
        if np.abs(delta).min() < KINK_MARGIN:
            mask |= True  # a tiny bin couples into every coordinate; skip the window
    return mask


def _fd_window_gradient(value_fn, x: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(y)
    perturbed = y.copy()
    for idx in np.ndindex(y.shape):
        perturbed[idx] = y[idx] + step
        hi = value_fn(x, perturbed)
        perturbed[idx] = y[idx] - step
        lo = value_fn(x, perturbed)
        perturbed[idx] = y[idx]
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def _rel_errors(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    gmax = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 0.01 * gmax)
    return np.abs(analytic - fd) / denom


def _corrupt(grad: np.ndarray) -> np.ndarray:
    """Test hook: a 1% relative plus small absolute error on one coordinate."""
    grad = grad.copy()
    grad.flat[0] = grad.flat[0] * 1.01 + 1e-3
    return grad


def check_loss_component(
    component: str,
    seed: int = 0,
    n_windows: int = 100,
    lengths: tuple[int, ...] = (8, 16, 32),
    channels: tuple[int, ...] = (1, 3),
    step: float = FD_STEP,
    perturb: bool = False,
) -> GradCheckResult:
    """Compare one component's analytic gradient with central differences."""
    value_fn, grad_fn = _loss_pair(component)
    rng = np.random.default_rng(seed)
    combos = [(t, d) for t in lengths for d in channels]
    max_err = 0.0
    checked = 0
    excluded = 0
    for i in range(n_windows):
        t, d = combos[i % len(combos)]
        x = rng.uniform(-1.0, 1.0, size=(t, d))
        y = rng.uniform(-1.0, 1.0, size=(t, d))
        analytic = np.asarray(grad_fn(x, y), dtype=float)
        if perturb:
            analytic = _corrupt(analytic)
        fd = _fd_window_gradient(value_fn, x, y, step)
        keep = ~_exclusion_mask(component, x, y)
        excluded += int((~keep).sum())
        if not keep.any():
            continue
        errs = _rel_errors(analytic, fd)[keep]
        checked += int(keep.sum())
        max_err = max(max_err, float(errs.max()))
    return GradCheckResult(component=component, checked=checked, excluded=excluded,
                           max_rel_error=max_err, tolerance=LOSS_TOLERANCE)


def _kink_signature(x: np.ndarray, y: np.ndarray) -> tuple:
    """Sign pattern of every absolute-value argument in the combined loss."""
    shape_signs = np.sign(y - x)
    slope_signs = np.sign(losses.trend_fit(y) - losses.trend_fit(x))
    delta = np.fft.fft(y.T) - np.fft.fft(x.T)
    bins_ok = bool(np.abs(delta).min() > 1e-9)
    return (shape_signs.tobytes(), slope_signs.tobytes(), bins_ok)


def check_model_component(
    component: str,
    seed: int = 0,
    n_models: int = 10,
    layer_sizes: tuple[int, ...] = (4, 3, 2, 3, 4),
    step: float = FD_STEP,
    perturb: bool = False,
) -> GradCheckResult:
    """End-to-end parameter gradients (loss o forward) against central differences."""
    if component not in MODEL_COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    value_fn, grad_fn = _loss_pair(component.removeprefix("model_"))
    t, d = layer_sizes[0], 1
    tolerance = MODEL_MSE_TOLERANCE if component == "model_mse" else MODEL_COMBINED_TOLERANCE
    rng = np.random.default_rng(seed + 1)
    max_err = 0.0
    checked = 0
    excluded = 0
    for trial in range(n_models):
        model = init_model(layer_sizes, seed=seed * 1000 + trial)
        x = rng.uniform(-1.0, 1.0, size=(t, d))
        window = Window(data=x, start=0)
        recon = forward_batch(model, x.reshape(1, -1))[-1].reshape(t, d)
        analytic = parameter_gradients(model, window, np.asarray(grad_fn(x, recon)))
        flat_analytic = np.concatenate(
            [gw.ravel() for gw, _ in analytic] + [gb.ravel() for _, gb in analytic]
        )
        if perturb:
            flat_analytic = _corrupt(flat_analytic)

        def loss_of(m: DenseAutoencoder) -> float:
            out = forward_batch(m, x.reshape(1, -1))[-1].reshape(t, d)
            return value_fn(x, out)

        params = [(w, True) for w in model.weights] + [(b, False) for b in model.biases]
        fd_parts = []
        keep_parts = []
        for arr, _ in params:
            fd = np.zeros(arr.size)
            keep = np.ones(arr.size, dtype=bool)
            for k in range(arr.size):
                orig = arr.flat[k]
                arr.flat[k] = orig + step
                out_hi = forward_batch(model, x.reshape(1, -1))[-1].reshape(t, d)
                hi = value_fn(x, out_hi)
                sig_hi = _kink_signature(x, out_hi)
                arr.flat[k] = orig - step
                out_lo = forward_batch(model, x.reshape(1, -1))[-1].reshape(t, d)
                lo = value_fn(x, out_lo)
                sig_lo = _kink_signature(x, out_lo)
                arr.flat[k] = orig
                fd[k] = (hi - lo) / (2.0 * step)
                # exclude parameters whose probe flips a sign pattern or
                # touches a near-zero spectrum bin
                if sig_hi != sig_lo or not (sig_hi[2] and sig_lo[2]):
                    keep[k] = False
            fd_parts.append(fd)
            keep_parts.append(keep)
        flat_fd = np.concatenate(fd_parts)  # weights first, then biases, as above
        flat_keep = np.concatenate(keep_parts)
        excluded += int((~flat_keep).sum())
        if not flat_keep.any():
            continue
        errs = _rel_errors(flat_analytic, flat_fd)[flat_keep]
        checked += int(flat_keep.sum())
        max_err = max(max_err, float(errs.max()))
    return GradCheckResult(component=component, checked=checked, excluded=excluded,
                           max_rel_error=max_err, tolerance=tolerance)


def run_all(
    seed: int = 0,
    n_windows: int = 100,
    n_models: int = 10,
    layer_sizes: tuple[int, ...] = (4, 3, 2, 3, 4),
    perturb: Optional[str] = None,
) -> list[GradCheckResult]:
    """Run every gradient suite; `perturb` corrupts one component (test hook)."""
    if perturb is not None and perturb not in ALL_COMPONENTS:
        raise ValueError(f"unknown component {perturb!r}; choose from {ALL_COMPONENTS}")
    results = []
    for component in LOSS_COMPONENTS:
        results.append(check_loss_component(
            component, seed=seed, n_windows=n_windows, perturb=(perturb == component)))
    for component in MODEL_COMPONENTS:
        results.append(check_model_component(
            component, seed=seed, n_models=n_models, layer_sizes=layer_sizes,
            perturb=(perturb == component)))
    return results


def format_report(results: list[GradCheckResult]) -> str:
    lines = [f"{'component':<18} {'checked':>8} {'excluded':>9} {'max rel err':>12} "
             f"{'tolerance':>10} {'status':>7}"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.component:<18} {r.checked:>8} {r.excluded:>9} "
                     f"{r.max_rel_error:>12.3e} {r.tolerance:>10.0e} {status:>7}")
    return "\n".join(lines)
