"""Synthetic series from a shapelet-plus-trend structural model, with labeled
anomaly injection.

A base channel is amplitude * shapelet(2*pi*omega*j + phase) + slope*j plus
seeded Gaussian noise. Injection rewrites only the targeted range: pattern
kinds re-synthesize the deterministic part inside the range and keep the
original noise residual, so a degenerate injection (e.g. frequency scale 1)
leaves values bit-identical.

The five anomaly kinds each stress a different part of the objective:
point kinds stress shape, `seasonal_pattern` the spectral term,
`trend_pattern` the slope term, and `shapelet_pattern` all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .series import TimeSeries

SHAPELETS = ("sine", "square", "sawtooth")
ANOMALY_KINDS = (
    "global_point",
    "contextual_point",
    "shapelet_pattern",
    "seasonal_pattern",
    "trend_pattern",
)

# Replacement waveform used by shapelet_pattern: the next one in the cycle.
_NEXT_SHAPELET = {"sine": "square", "square": "sawtooth", "sawtooth": "sine"}

_CONTEXT_RADIUS = 5  # +-5 points around a contextual anomaly


@dataclass(frozen=True)
class ChannelSpec:
    """Waveform parameters of one channel."""

    shapelet: str = "sine"
    omega: float = 1.0 / 32.0  # cycles per sample, below Nyquist
    amplitude: float = 1.0
    phase: float = 0.0
    slope: float = 0.0  # units per sample

    def __post_init__(self):
        if self.shapelet not in SHAPELETS:
            raise ConfigError(f"shapelet must be one of {SHAPELETS}, got {self.shapelet!r}")
        if not 0.0 < self.omega < 0.5:
            raise ConfigError(f"omega must lie in (0, 0.5), got {self.omega}")
        for key in ("amplitude", "phase", "slope"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")


@dataclass(frozen=True)
class GeneratorConfig:
    length: int = 4000
    channels: tuple[ChannelSpec, ...] = (ChannelSpec(),)
    noise_sigma: float = 0.05
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError(f"length must be >= 1, got {self.length}")
        if not self.channels:
            raise ConfigError("need at least one channel")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class AnomalySpec:
    """One injection: point kinds have length 1, pattern kinds length >= 2.

    `magnitude` is kind-specific: spike height in series-std units
    (global_point), offset in local-std units (contextual_point), amplitude
    scale of the replacement waveform (shapelet_pattern), frequency scale
    (seasonal_pattern), or added slope per sample (trend_pattern).
    `channel` selects one channel, or all channels when None.
    """

    kind: str
    start: int
    length: int = 1
    magnitude: float = 1.0
    channel: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ConfigError(f"kind must be one of {ANOMALY_KINDS}, got {self.kind!r}")
        if self.start < 0:
            raise ConfigError(f"start must be >= 0, got {self.start}")
        point_kind = self.kind in ("global_point", "contextual_point")
        if point_kind and self.length != 1:
            raise ConfigError(f"{self.kind} must have length 1, got {self.length}")
        if not point_kind and self.length < 2:
            raise ConfigError(f"{self.kind} must have length >= 2, got {self.length}")
        if not math.isfinite(self.magnitude):
            raise ConfigError(f"magnitude must be finite, got {self.magnitude}")

    @property
    def end(self) -> int:
        """Inclusive end index."""
        return self.start + self.length - 1


def _waveform(kind: str, theta: np.ndarray) -> np.ndarray:
    if kind == "sine":
        return np.sin(theta)
    if kind == "square":
        return np.where(np.sin(theta) >= 0.0, 1.0, -1.0)
    # sawtooth: -1 at phase 0, rising to +1 over one cycle
    return 2.0 * np.mod(theta / (2.0 * np.pi), 1.0) - 1.0


def _deterministic(cfg: GeneratorConfig, j: np.ndarray) -> np.ndarray:
    """Shapelet-plus-trend component at time indices `j`, (len(j), channels), no noise."""
    out = np.empty((len(j), len(cfg.channels)))
    for c, ch in enumerate(cfg.channels):
        theta = 2.0 * np.pi * ch.omega * j + ch.phase
        out[:, c] = ch.amplitude * _waveform(ch.shapelet, theta) + ch.slope * j
    return out


def generate_base(cfg: GeneratorConfig) -> TimeSeries:
    """Deterministic-per-seed base series with all-zero labels."""
    rng = np.random.default_rng(cfg.seed)
    values = _deterministic(cfg, np.arange(cfg.length, dtype=np.float64))
    if cfg.noise_sigma > 0:
        values = values + rng.normal(0.0, cfg.noise_sigma, size=values.shape)
    return TimeSeries(values=values, labels=np.zeros(cfg.length, dtype=np.int64), name=cfg.name)


def check_range(spec: AnomalySpec, cfg: GeneratorConfig) -> None:
    """An anomaly must end inside the series generated by `cfg`."""
    if spec.end >= cfg.length:
        raise DataError(f"anomaly {spec.kind} range ({spec.start}, {spec.end}) "
                        f"outside test region [0, {cfg.length})")


def check_channel(spec: AnomalySpec, cfg: GeneratorConfig) -> Sequence[int]:
    """The channels `spec` rewrites: its own, which `cfg` must have, or all of them."""
    count = len(cfg.channels)
    if spec.channel is not None and not 0 <= spec.channel < count:
        raise DataError(f"anomaly {spec.kind} channel {spec.channel} outside [0, {count})")
    return range(count) if spec.channel is None else (spec.channel,)


def check_frequency(spec: AnomalySpec, cfg: GeneratorConfig) -> None:
    """A seasonal_pattern runs each of its channels at magnitude * omega, below Nyquist."""
    if spec.kind != "seasonal_pattern":
        return
    for c in check_channel(spec, cfg):
        omega = spec.magnitude * cfg.channels[c].omega
        if not 0.0 < omega < 0.5:
            raise DataError(f"scaled frequency {omega} (magnitude * omega) leaves (0, 0.5)")


def train_length(cfg: GeneratorConfig, train_fraction: float) -> int:
    """Length of the train split: the first `train_fraction` of a generation, not empty."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    length = int(math.floor(train_fraction * cfg.length))
    if length < 1:
        raise ConfigError("train split is empty")
    return length


def inject(series: TimeSeries, spec: AnomalySpec, cfg: GeneratorConfig) -> TimeSeries:
    """Apply one anomaly; labels become 1 exactly on the injected range.

    `cfg` must be the configuration the series was generated from: pattern
    kinds subtract the deterministic component to recover the noise residual
    and re-synthesize the range on top of it. All kinds are deterministic.
    """
    if series.length != cfg.length or series.channels != len(cfg.channels):
        raise DataError("series does not match the generator configuration")
    check_range(spec, cfg)
    channels = check_channel(spec, cfg)
    check_frequency(spec, cfg)

    values = series.values.copy()
    lo, hi = spec.start, spec.end + 1
    if spec.kind == "global_point":
        for c in channels:
            values[spec.start, c] += spec.magnitude * float(series.values[:, c].std())
    elif spec.kind == "contextual_point":
        for c in channels:
            local = series.values[max(0, lo - _CONTEXT_RADIUS):hi + _CONTEXT_RADIUS, c]
            values[spec.start, c] = float(local.mean()) + spec.magnitude * float(local.std())
    else:
        j = np.arange(lo, hi, dtype=np.float64)
        residual = series.values[lo:hi] - _deterministic(cfg, j)
        for c in channels:
            ch = cfg.channels[c]
            trend = ch.slope * j
            if spec.kind == "shapelet_pattern":
                theta = 2.0 * np.pi * ch.omega * j + ch.phase
                wave = spec.magnitude * ch.amplitude * _waveform(_NEXT_SHAPELET[ch.shapelet], theta)
            elif spec.kind == "seasonal_pattern":
                # phase-continuous at the left edge; written so magnitude 1
                # reproduces the base expression bit for bit
                effective_j = spec.magnitude * (j - spec.start) + spec.start
                theta = 2.0 * np.pi * ch.omega * effective_j + ch.phase
                wave = ch.amplitude * _waveform(ch.shapelet, theta)
            else:  # trend_pattern: add a ramp, keep the original waveform
                values[lo:hi, c] += spec.magnitude * (j - spec.start)
                continue
            values[lo:hi, c] = wave + trend + residual[:, c]

    labels = (series.labels.copy() if series.labels is not None
              else np.zeros(series.length, dtype=np.int64))
    labels[lo:hi] = 1
    return TimeSeries(values=values, labels=labels, name=series.name)


def make_train_split(cfg: GeneratorConfig, train_fraction: float) -> TimeSeries:
    """The clean train split: a `train_length` generation, equal to the first
    `train_fraction` of a full-length one."""
    return generate_base(replace(cfg, length=train_length(cfg, train_fraction),
                                 name=f"{cfg.name}_train"))


def make_benchmark(
    cfg: GeneratorConfig,
    specs: Sequence[AnomalySpec],
    train_fraction: float,
) -> tuple[TimeSeries, TimeSeries]:
    """Clean train split plus a freshly generated, injected test series.

    The train series is `make_train_split`'s; the test series is a fresh
    generation (seed offset by 1) with all `specs` injected, which must fall
    inside its bounds.
    """
    train = make_train_split(cfg, train_fraction)
    test_cfg = replace(cfg, seed=cfg.seed + 1, name=f"{cfg.name}_test")
    test = generate_base(test_cfg)
    for spec in specs:
        test = inject(test, spec, test_cfg)
    return train, test
