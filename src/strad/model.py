"""Dense reconstruction autoencoder: init, forward, backprop, Adam, checkpoints.

The network is a stack of dense layers with tanh on hidden layers and an
identity output layer. Gradients are chained explicitly (vector-Jacobian
products), so every piece is finite-difference testable on its own; there is
no autodiff engine underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ShapeMismatchError

CHECKPOINT_MAGIC = "strad-checkpoint v2"

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _param_count(sizes: tuple[int, ...]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(sizes: tuple[int, ...], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into `flat`, laid out W0 (row-major), b0, W1, b1, ..."""
    count = _param_count(sizes)
    if flat.shape != (count,):
        raise ShapeMismatchError(f"parameter vector shape {flat.shape} != ({count},) for sizes {sizes}")
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


@dataclass
class DenseAutoencoder:
    """All parameters in one float64 vector `params`, laid out W0 (row-major), b0, W1, b1, ...

    `weights[i]` (shape (sizes[i+1], sizes[i])) and `biases[i]` (shape
    (sizes[i+1],)) are views into `params`: writing through either changes both.
    """

    layer_sizes: tuple[int, ...]
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.layer_sizes, self.params)

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]


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
    model = DenseAutoencoder(layer_sizes=sizes, params=np.zeros(_param_count(sizes)))
    for w in model.weights:
        bound = np.sqrt(6.0 / sum(w.shape))  # w.shape is (fan_out, fan_in)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def forward_batch(model: DenseAutoencoder, X: np.ndarray) -> list[np.ndarray]:
    """Activations [input, layer1, ..., output] for a (B, input) batch."""
    if X.ndim != 2 or X.shape[1] != model.input_size:
        raise ShapeMismatchError(f"batch shape {X.shape} incompatible with input size {model.input_size}")
    acts = [X]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T  # the layer's one new array: bias and tanh work in place
        z += b
        if i != last:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def backward_batch(model: DenseAutoencoder, acts: list[np.ndarray], upstream: np.ndarray) -> np.ndarray:
    """Parameter gradient summed over the batch, laid out like `model.params`.

    `acts` are the cached activations from `forward_batch`; `upstream` is the
    loss gradient with respect to the output, shape (B, output).
    """
    if upstream.shape != acts[-1].shape:
        raise ShapeMismatchError(
            f"upstream shape {upstream.shape} does not match output {acts[-1].shape}"
        )
    grad = np.empty_like(model.params)
    grad_weights, grad_biases = _layer_views(model.layer_sizes, grad)
    delta = upstream
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=grad_weights[i])
        delta.sum(axis=0, out=grad_biases[i])
        if i > 0:
            # tanh'(z) expressed through the cached activation a: 1 - a^2
            delta = (delta @ model.weights[i]) * (1.0 - acts[i] ** 2)
    return grad


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like the model's `params`."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3


def init_adam(model: DenseAutoencoder, lr: float = 1e-3) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(model.params), v=np.zeros_like(model.params), lr=lr)


def adam_step(
    model: DenseAutoencoder, grad: np.ndarray, state: AdamState
) -> tuple[DenseAutoencoder, AdamState]:
    """One bias-corrected Adam update; returns a new model and state."""
    if grad.shape != model.params.shape:
        raise ShapeMismatchError(f"gradient shape {grad.shape} != parameter shape {model.params.shape}")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient passed to adam_step")
    step = state.step + 1
    correct1 = 1.0 - ADAM_BETA1 ** step
    correct2 = 1.0 - ADAM_BETA2 ** step
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad * grad
    params = model.params - state.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    if not np.isfinite(params).all():
        raise NumericError("model parameters became non-finite after an Adam step")
    return DenseAutoencoder(layer_sizes=model.layer_sizes, params=params), replace(state, step=step, m=m, v=v)


# ---------------------------------------------------------------------------
# checkpoint file format (textual, versioned, portable)
#
#   strad-checkpoint v2
#   # key=value provenance lines (zero or more)
#   sizes <s0> <s1> ... <sk>
#   W <i> <rows> <cols>
#   <rows lines of cols %.17g numbers>
#   b <i> <n>
#   <one line of n %.17g numbers>
#   ... repeated per layer, in order: the blocks are the `params` layout
#   end
# ---------------------------------------------------------------------------


def _fmt_rows(matrix: np.ndarray) -> list[str]:
    """One line of %.17g numbers per row: one template applied to each row.

    Rows go to Python floats one at a time, so a wide matrix never exists
    as Python objects all at once.
    """
    row = " ".join(["%.17g"] * matrix.shape[1])
    return [row % tuple(r.tolist()) for r in matrix]


def _parse_row(line: str) -> np.ndarray:
    """The numbers of one line, each parsed by `float` as written."""
    return np.fromiter(map(float, line.split()), np.float64)


def save_checkpoint(model: DenseAutoencoder, path, meta: Optional[dict] = None) -> None:
    """Write the model as a flat textual dump; %.17g round-trips float64 exactly."""
    lines = [CHECKPOINT_MAGIC]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append("sizes " + " ".join(str(s) for s in model.layer_sizes))
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W {i} {w.shape[0]} {w.shape[1]}")
        lines.extend(_fmt_rows(w))
        lines.append(f"b {i} {b.shape[0]}")
        lines.extend(_fmt_rows(b[None]))
    lines.append("end")
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
    blocks = []
    try:
        sizes = tuple(int(s) for s in lines[pos].split()[1:])
        if len(sizes) < 2 or min(sizes) < 1:
            raise CheckpointError(f"{path}: invalid layer sizes {sizes}")
        pos += 1
        for i in range(len(sizes) - 1):
            rows, cols = sizes[i + 1], sizes[i]
            if lines[pos].split() != ["W", str(i), str(rows), str(cols)]:
                raise CheckpointError(f"{path}: expected weight block {i} of shape {(rows, cols)}")
            # row by row, so only one row's strings are alive at a time
            w = [_parse_row(lines[pos + 1 + r]) for r in range(rows)]
            pos += 1 + rows
            if lines[pos].split() != ["b", str(i), str(rows)]:
                raise CheckpointError(f"{path}: expected bias block {i}")
            b = _parse_row(lines[pos + 1])
            pos += 2
            if any(r.shape != (cols,) for r in w) or b.shape != (rows,):
                raise CheckpointError(f"{path}: block {i} has the wrong number of values")
            blocks.append((w, b))
        if lines[pos:] != ["end"]:  # so a file cut inside its last number fails to load
            raise CheckpointError(f"{path}: missing end line, or content after it")
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"{path}: truncated or malformed checkpoint: {exc}") from None
    # allocate only after every block parsed, so the file bounds the model's size
    model = DenseAutoencoder(layer_sizes=sizes, params=np.zeros(_param_count(sizes)))
    for w, b, (w_rows, b_block) in zip(model.weights, model.biases, blocks):
        for dst, src in zip(w, w_rows):
            dst[...] = src
        b[...] = b_block
    if not np.isfinite(model.params).all():
        raise CheckpointError(f"{path}: checkpoint contains non-finite parameters")
    return model, meta
