"""Dense reconstruction autoencoder: init, forward, backprop, Adam, checkpoints.

The network is a stack of dense layers with tanh on hidden layers and an
identity output layer. Gradients are chained explicitly (vector-Jacobian
products), so every piece is finite-difference testable on its own; there is
no autodiff engine underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ShapeMismatchError
from .series import Window

CHECKPOINT_MAGIC = "strad-checkpoint v1"


@dataclass
class DenseAutoencoder:
    """Weights W[i] of shape (sizes[i+1], sizes[i]) and biases b[i] of shape (sizes[i+1],)."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "DenseAutoencoder":
        return DenseAutoencoder(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )


def default_layer_sizes(input_size: int, hidden: tuple[int, ...] = (64, 16)) -> tuple[int, ...]:
    """Mirrored encoder/decoder sizes around the latent layer."""
    return (input_size, *hidden, *reversed(hidden[:-1]), input_size)


def init_model(layer_sizes, seed: int = 0) -> DenseAutoencoder:
    """Glorot-uniform weights in [-s, s] with s = sqrt(6/(fan_in+fan_out)); zero biases.

    Fully determined by the seed: the same seed yields bit-identical models.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError(f"invalid layer sizes {sizes}")
    if sizes[0] != sizes[-1]:
        raise ConfigError(f"output size {sizes[-1]} must equal input size {sizes[0]}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseAutoencoder(layer_sizes=sizes, weights=weights, biases=biases)


def forward_batch(model: DenseAutoencoder, X: np.ndarray) -> list[np.ndarray]:
    """Activations [input, layer1, ..., output] for a (B, input) batch."""
    if X.ndim != 2 or X.shape[1] != model.input_size:
        raise ShapeMismatchError(f"batch shape {X.shape} incompatible with input size {model.input_size}")
    acts = [X]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if i == last else np.tanh(z))
    return acts


def forward(model: DenseAutoencoder, window: Window) -> Window:
    """Reconstruct one window; output has the window's shape and start."""
    t, d = window.data.shape
    if t * d != model.input_size:
        raise ShapeMismatchError(f"window flattens to {t * d}, model expects {model.input_size}")
    out = forward_batch(model, window.data.reshape(1, -1))[-1]
    return Window(data=out.reshape(t, d), start=window.start)


def backward_batch(
    model: DenseAutoencoder, acts: list[np.ndarray], upstream: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients summed over the batch.

    `acts` are the cached activations from `forward_batch`; `upstream` is the
    loss gradient with respect to the output, shape (B, output).
    """
    if upstream.shape != acts[-1].shape:
        raise ShapeMismatchError(
            f"upstream shape {upstream.shape} does not match output {acts[-1].shape}"
        )
    grads: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * len(model.weights)
    delta = upstream
    for i in range(len(model.weights) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            # tanh'(z) expressed through the cached activation a: 1 - a^2
            delta = (delta @ model.weights[i]) * (1.0 - acts[i] ** 2)
    return grads  # type: ignore[return-value]


def parameter_gradients(
    model: DenseAutoencoder, window: Window, loss_grad: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradient of (loss o forward) in every weight and bias.

    `loss_grad` is the gradient of the loss with respect to the reconstruction,
    shape (t, d).
    """
    t, d = window.data.shape
    if loss_grad.shape != (t, d):
        raise ShapeMismatchError(f"loss gradient shape {loss_grad.shape} != window shape {(t, d)}")
    acts = forward_batch(model, window.data.reshape(1, -1))
    return backward_batch(model, acts, loss_grad.reshape(1, -1))


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter structure."""

    step: int
    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8


def init_adam(model: DenseAutoencoder, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps_adam: float = 1e-8) -> AdamState:
    return AdamState(
        step=0,
        m_weights=[np.zeros_like(w) for w in model.weights],
        v_weights=[np.zeros_like(w) for w in model.weights],
        m_biases=[np.zeros_like(b) for b in model.biases],
        v_biases=[np.zeros_like(b) for b in model.biases],
        lr=lr, beta1=beta1, beta2=beta2, eps_adam=eps_adam,
    )


def adam_step(
    model: DenseAutoencoder,
    grads: list[tuple[np.ndarray, np.ndarray]],
    state: AdamState,
) -> tuple[DenseAutoencoder, AdamState]:
    """One bias-corrected Adam update; returns a new model and state."""
    if len(grads) != len(model.weights):
        raise ShapeMismatchError("gradient structure does not match the model")
    for (gw, gb), w in zip(grads, model.weights):
        if gw.shape != w.shape:
            raise ShapeMismatchError(f"weight gradient shape {gw.shape} != {w.shape}")
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError("non-finite gradient passed to adam_step")
    step = state.step + 1
    correct1 = 1.0 - state.beta1 ** step
    correct2 = 1.0 - state.beta2 ** step
    new_w, new_b = [], []
    m_w, v_w, m_b, v_b = [], [], [], []
    for i, (gw, gb) in enumerate(grads):
        mw = state.beta1 * state.m_weights[i] + (1 - state.beta1) * gw
        vw = state.beta2 * state.v_weights[i] + (1 - state.beta2) * gw * gw
        mb = state.beta1 * state.m_biases[i] + (1 - state.beta1) * gb
        vb = state.beta2 * state.v_biases[i] + (1 - state.beta2) * gb * gb
        new_w.append(model.weights[i] - state.lr * (mw / correct1) / (np.sqrt(vw / correct2) + state.eps_adam))
        new_b.append(model.biases[i] - state.lr * (mb / correct1) / (np.sqrt(vb / correct2) + state.eps_adam))
        m_w.append(mw)
        v_w.append(vw)
        m_b.append(mb)
        v_b.append(vb)
    new_model = DenseAutoencoder(layer_sizes=model.layer_sizes, weights=new_w, biases=new_b)
    if not new_model.all_finite():
        raise NumericError("model parameters became non-finite after an Adam step")
    new_state = replace(state, step=step, m_weights=m_w, v_weights=v_w, m_biases=m_b, v_biases=v_b)
    return new_model, new_state


# ---------------------------------------------------------------------------
# checkpoint file format (textual, versioned, portable)
#
#   strad-checkpoint v1
#   # key=value provenance lines (zero or more)
#   sizes <s0> <s1> ... <sk>
#   W <i> <rows> <cols>
#   <rows lines of cols %.17g numbers>
#   b <i> <n>
#   <one line of n %.17g numbers>
#   ... repeated per layer, in order
# ---------------------------------------------------------------------------


def _fmt(values: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def save_checkpoint(model: DenseAutoencoder, path, meta: Optional[dict] = None) -> None:
    """Write the model as a flat textual dump; %.17g round-trips float64 exactly."""
    lines = [CHECKPOINT_MAGIC]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append("sizes " + " ".join(str(s) for s in model.layer_sizes))
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W {i} {w.shape[0]} {w.shape[1]}")
        lines.extend(_fmt(row) for row in w)
        lines.append(f"b {i} {b.shape[0]}")
        lines.append(_fmt(b))
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[DenseAutoencoder, dict]:
    """Read a checkpoint written by `save_checkpoint`; returns (model, meta).

    A missing file raises FileNotFoundError; any other unreadable, truncated
    or malformed file raises CheckpointError.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from None
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_MAGIC!r} file")
    meta = {}
    pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        key, _, value = lines[pos][1:].strip().partition("=")
        meta[key] = value
        pos += 1
    if pos >= len(lines) or not lines[pos].startswith("sizes "):
        raise CheckpointError(f"{path}: missing sizes line")
    weights, biases = [], []
    try:
        sizes = tuple(int(s) for s in lines[pos].split()[1:])
        if len(sizes) < 2 or min(sizes) < 1:
            raise CheckpointError(f"{path}: invalid layer sizes {sizes}")
        pos += 1
        for i in range(len(sizes) - 1):
            rows, cols = sizes[i + 1], sizes[i]
            if lines[pos].split() != ["W", str(i), str(rows), str(cols)]:
                raise CheckpointError(f"{path}: expected weight block {i} of shape {(rows, cols)}")
            w = np.array([[float(v) for v in lines[pos + 1 + r].split()] for r in range(rows)])
            pos += 1 + rows
            if lines[pos].split() != ["b", str(i), str(rows)]:
                raise CheckpointError(f"{path}: expected bias block {i}")
            b = np.array([float(v) for v in lines[pos + 1].split()])
            pos += 2
            if w.shape != (rows, cols) or b.shape != (rows,):
                raise CheckpointError(f"{path}: block {i} has the wrong number of values")
            weights.append(w)
            biases.append(b)
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"{path}: truncated or malformed checkpoint: {exc}") from None
    model = DenseAutoencoder(layer_sizes=sizes, weights=weights, biases=biases)
    if not model.all_finite():
        raise CheckpointError(f"{path}: checkpoint contains non-finite parameters")
    return model, meta
