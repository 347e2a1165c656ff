"""Dense reconstruction autoencoder: init, forward, backprop, Adam, checkpoints.

The network is a stack of dense layers with tanh on hidden layers and an
identity output layer. Gradients are chained explicitly (vector-Jacobian
products), so every piece is finite-difference testable on its own; there is
no autodiff engine underneath.

Adam updates the parameter vector and its moments in place, with the bias
corrections folded into one step size and one epsilon; its hyperparameters
are the ADAM_* constants below and the configured learning rate.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ShapeMismatchError
from .series import encode, read_text, write_text

CHECKPOINT_MAGIC = "strad-checkpoint v3"

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# numpy refuses an array whose byte size exceeds the largest intp
MAX_PARAMS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _param_count(sizes: tuple[int, ...]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(sizes: tuple[int, ...], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into `flat`, laid out W0 (row-major), b0, W1, b1, ...

    `flat` is one parameter vector (P,) or a stack of K of them (K, P); a
    stack's views carry the leading K axis, (K, fan_out, fan_in) and (K, fan_out).
    """
    count = _param_count(sizes)
    if flat.ndim not in (1, 2) or flat.shape[-1] != count:
        raise ShapeMismatchError(f"parameter vector shape {flat.shape} != ({count},) or (K, {count}) "
                                 f"for sizes {sizes}")
    stack = flat.shape[:-1]
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[..., pos : pos + fan_out * fan_in].reshape(*stack, fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[..., pos : pos + fan_out])
        pos += fan_out
    return weights, biases


@dataclass
class DenseAutoencoder:
    """All parameters in one float64 vector `params`, laid out W0 (row-major), b0, W1, b1, ...

    `weights[i]` (shape (sizes[i+1], sizes[i])) and `biases[i]` (shape
    (sizes[i+1],)) are views into `params`: writing through either changes both.
    A stack of K models that train in lockstep holds a (K, P) `params`, and
    its views carry the leading K axis.
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


def default_layer_sizes(input_size: int, hidden: tuple[int, ...]) -> tuple[int, ...]:
    """Mirrored encoder/decoder sizes around the latent layer."""
    return (input_size, *hidden, *reversed(hidden[:-1]), input_size)


def check_layer_sizes(sizes: tuple[int, ...]) -> None:
    """Raise ConfigError unless `sizes` describe an autoencoder whose parameter
    vector one numpy array can hold; nothing is allocated."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError(f"invalid layer sizes {sizes}")
    if sizes[0] != sizes[-1]:
        raise ConfigError(f"output size {sizes[-1]} must equal input size {sizes[0]}")
    if _param_count(sizes) > MAX_PARAMS:
        raise ConfigError(f"layer sizes {sizes} need more parameters than one numpy array "
                          f"holds ({MAX_PARAMS})")


def init_model(layer_sizes, seed: int = 0) -> DenseAutoencoder:
    """Glorot-uniform weights in [-s, s] with s = sqrt(6/(fan_in+fan_out)); zero biases.

    Fully determined by the seed: the same seed yields bit-identical models.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    check_layer_sizes(sizes)
    rng = np.random.default_rng(seed)
    model = DenseAutoencoder(layer_sizes=sizes, params=np.zeros(_param_count(sizes)))
    for w in model.weights:
        bound = np.sqrt(6.0 / sum(w.shape))  # w.shape is (fan_out, fan_in)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def forward_batch(model: DenseAutoencoder, X: np.ndarray) -> list[np.ndarray]:
    """Activations [input, layer1, ..., output] for a (B, input) batch.

    A stack of K models takes a (K, B, input) batch, batch k through model k;
    each model's activations are the bits it computes alone, since a stacked
    matmul runs the same gemm per model.
    """
    stack = model.params.shape[:-1]  # () for one model, (K,) for a stack
    if X.ndim != len(stack) + 2 or X.shape[:-2] != stack or X.shape[-1] != model.input_size:
        raise ShapeMismatchError(f"batch shape {X.shape} incompatible with input size "
                                 f"{model.input_size} and model stack {stack}")
    acts = [X]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ np.swapaxes(w, -1, -2)  # the layer's one new array: bias and tanh work in place
        z += b[..., None, :]
        if i != last:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def backward_batch(model: DenseAutoencoder, acts: list[np.ndarray], upstream: np.ndarray) -> np.ndarray:
    """Parameter gradient summed over the batch, laid out like `model.params`.

    `acts` are the cached activations from `forward_batch`; `upstream` is the
    loss gradient with respect to the output, shape (B, output), or
    (K, B, output) for a stack of K models, whose gradient is then (K, P).
    """
    if upstream.shape != acts[-1].shape:
        raise ShapeMismatchError(
            f"upstream shape {upstream.shape} does not match output {acts[-1].shape}"
        )
    grad = np.empty_like(model.params)
    grad_weights, grad_biases = _layer_views(model.layer_sizes, grad)
    delta = upstream
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(np.swapaxes(delta, -1, -2), acts[i], out=grad_weights[i])
        delta.sum(axis=-2, out=grad_biases[i])
        if i > 0:
            # tanh'(z) expressed through the cached activation a: 1 - a^2
            deriv = np.square(acts[i])
            np.subtract(1.0, deriv, out=deriv)
            delta = delta @ model.weights[i]
            delta *= deriv
    return grad


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like the model's `params`.

    `work` is one vector of that size, allocated once here, that `adam_step`
    computes each moment's increment and then the step into, so a step
    allocates no parameter-sized arrays.
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.work = np.empty_like(self.m)


def init_adam(model: DenseAutoencoder, lr: float) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(model.params), v=np.zeros_like(model.params), lr=lr)


def adam_step(model: DenseAutoencoder, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of `model.params`, `state.m`, `state.v`, `state.step`, in place.

    The bias corrections c1 = 1 - beta1^t and c2 = 1 - beta2^t are folded
    into one step size and one epsilon (Kingma & Ba, section 2):
    params -= (lr sqrt(c2) / c1) m / (sqrt(v) + eps sqrt(c2)), which equals
    lr (m / c1) / (sqrt(v / c2) + eps) with one divide and one sqrt per entry.

    A wrong-shaped or non-finite `grad` raises before anything is written.
    A second moment that overflows (a finite `grad` entry above about 1e154)
    raises NumericError, where an inf in `v` would otherwise freeze that
    parameter for good. `params`, `m` and `step` are then unchanged, and so is
    `v` unless the overflow was in the sum beta2 v + (1 - beta2) g g; `v` then
    holds that sum, inf where it overflowed.
    Non-finite candidate parameters raise NumericError before they are written,
    so `params` keep their values; the moments and `step` have then taken the
    gradient.
    """
    if grad.shape != model.params.shape:
        raise ShapeMismatchError(f"gradient shape {grad.shape} != parameter shape {model.params.shape}")
    if not _all_finite(grad):
        raise NumericError("non-finite gradient passed to adam_step")
    m, v, work = state.m, state.v, state.work
    # v = beta2 v + (1 - beta2) g g and m = beta1 m + (1 - beta1) g, term by term
    try:
        with np.errstate(over="raise"):
            np.multiply(grad, 1 - ADAM_BETA2, out=work)
            work *= grad
            v *= ADAM_BETA2
            v += work
    except FloatingPointError:
        raise NumericError("Adam's second moment overflowed: gradient too large") from None
    m *= ADAM_BETA1
    np.multiply(grad, 1 - ADAM_BETA1, out=work)
    m += work
    state.step += 1
    sqrt_c2 = math.sqrt(1.0 - ADAM_BETA2 ** state.step)
    step_size = state.lr * sqrt_c2 / (1.0 - ADAM_BETA1 ** state.step)
    np.sqrt(v, out=work)
    work += ADAM_EPS * sqrt_c2
    np.divide(m, work, out=work)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        work *= step_size
        candidate = np.subtract(model.params, work, out=work)
    if not _all_finite(candidate):
        raise NumericError("model parameters became non-finite after an Adam step")
    model.params[...] = candidate


def _all_finite(x: np.ndarray) -> bool:
    """`np.isfinite(x).all()`, without its bool array when it holds.

    A finite sum of the entries proves every entry finite, since an inf or NaN
    entry makes the sum inf or NaN; only a sum that is not finite (finite
    entries may overflow it) pays for the exact check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(x, axis=None)
    return math.isfinite(total) or bool(np.isfinite(x).all())


# ---------------------------------------------------------------------------
# checkpoint file format (ASCII text, versioned, portable)
#
#   strad-checkpoint v3
#   # key=value provenance lines (zero or more)
#   sizes <s0> <s1> ... <sk>
#   <one line: base64 of `params` as little-endian float64, in the params layout>
#   end
# ---------------------------------------------------------------------------

_PARAM_DTYPE = "<f8"  # explicit byte order, so a file reads the same on every host


def save_checkpoint(model: DenseAutoencoder, path, meta: Optional[dict] = None) -> None:
    """Write the model's layer sizes and the exact bytes of its parameter vector.

    A `meta` key or value that would not load back as written raises
    CheckpointError naming the key before the file is opened: a key holding
    "=", or a key or value holding a line break (`str.splitlines`) or leading
    or trailing whitespace. Only the header is built as text; the parameter
    line is encoded straight from the parameter vector's bytes.
    """
    lines = [CHECKPOINT_MAGIC]
    for key, value in (meta or {}).items():
        _check_meta_item(str(key), str(value))
        lines.append(f"# {key}={value}")
    lines.append("sizes " + " ".join(str(s) for s in model.layer_sizes))
    header = encode(path, "\n".join(lines) + "\n")
    params = np.ascontiguousarray(model.params, dtype=_PARAM_DTYPE)  # no copy on a little-endian host
    write_text(path, header + base64.b64encode(memoryview(params)) + b"\nend\n")


def _check_meta_item(key: str, value: str) -> None:
    """Raise CheckpointError unless the line `# key=value` loads back as (key, value)."""
    if "=" in key:
        raise CheckpointError(f"checkpoint meta key {key!r} holds '='")
    for text in (key, value):
        if "".join(text.splitlines()) != text:
            raise CheckpointError(f"checkpoint meta {key!r} holds a line break")
        if text.strip() != text:
            raise CheckpointError(f"checkpoint meta {key!r} has leading or trailing whitespace")


def load_checkpoint(path) -> tuple[DenseAutoencoder, dict]:
    """Read a checkpoint written by `save_checkpoint`; returns (model, meta).

    A path that names no readable file raises FileNotFoundError (see
    `series.read_bytes`); an undecodable, truncated or malformed file raises
    CheckpointError.
    """
    lines = read_text(path, CheckpointError).splitlines()
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
    # the parameter line and then `end`, last: a file cut anywhere fails to load
    if len(lines) != pos + 3 or lines[-1] != "end":
        raise CheckpointError(f"{path}: expected one parameter line and then an end line")
    try:
        sizes = tuple(int(s) for s in lines[pos].split()[1:])
        raw = base64.b64decode(lines[pos + 1], validate=True)
    except ValueError as exc:  # a bad integer, or a non-base64 or non-ASCII character
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from None
    try:
        check_layer_sizes(sizes)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    count = _param_count(sizes)
    # checked before the model is allocated, so the file bounds the model's size
    if len(raw) != 8 * count:
        raise CheckpointError(f"{path}: {len(raw)} parameter bytes, expected {8 * count} for sizes {sizes}")
    params = np.frombuffer(raw, dtype=_PARAM_DTYPE).astype(np.float64)  # a writable copy
    if not np.isfinite(params).all():
        raise CheckpointError(f"{path}: checkpoint contains non-finite parameters")
    return DenseAutoencoder(layer_sizes=sizes, params=params), meta
