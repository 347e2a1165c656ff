"""Experiment configuration: JSON file, documented defaults, strict validation.

Configuration is file-first: every key has a default, unknown keys are
rejected with their full path, and `--set a.b.c=value` overrides individual
entries from the command line. The resolved configuration hashes to a stable
identifier that output files embed for provenance.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .detector import LOSS_KINDS, THRESHOLD_METRICS, TrainConfig
from .errors import ConfigError
from .losses import TREND_VARIANTS, LossWeights
from .synth import ANOMALY_KINDS, SHAPELETS

SCORE_MODE_CHOICES = ("auto", "shape_only", "strad_broadcast")
THRESHOLD_MODE_CHOICES = ("quantile", "best_f1")

_CHANNEL_DEFAULTS = {
    "shapelet": "sine",
    "omega": 1.0 / 32.0,
    "amplitude": 1.0,
    "phase": 0.0,
    "slope": 0.0,
}

_ANOMALY_DEFAULTS = {
    "kind": "shapelet_pattern",
    "start": 0,
    "length": 2,
    "magnitude": 1.0,
    "channel": None,
}

_SYNTH_DEFAULTS = {
    "length": 4000,
    "noise_sigma": 0.05,
    "seed": None,  # None: derived from the global seed and the dataset index
    "train_fraction": 0.5,
    "channels": [_CHANNEL_DEFAULTS],
    "anomalies": [],
}

_CSV_DEFAULTS = {
    "train_path": "",
    "test_path": "",
    "value_columns": ["v0"],
    "label_column": "label",
}

_DATASET_DEFAULTS = {
    "name": "dataset",
    "source": "synth",
    "synth": _SYNTH_DEFAULTS,
    "csv": _CSV_DEFAULTS,
}

DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "output_dir": "out",
    "window": {"length": 64, "train_stride": None, "score_stride": 1},
    "model": {"hidden": [64, 16]},
    "train": {"epochs": 50, "batch_size": 32, "loss": "strad", "mix": 0.5, "lr": 1e-3},
    "loss_weights": {
        "lambda1": 1.5,
        "lambda2": 10.0,
        "lambda3": 1.0,
        "epsilon": 1e-7,
        "trend_variant": "monotone",
    },
    "score": {"mode": "auto"},
    "threshold": {"mode": "quantile", "q": 0.99, "metric": "rpa"},
    "eval": {"metrics": ["rpa", "pa"]},
    "compare": {"losses": ["mse", "strad"]},
    "datasets": [_DATASET_DEFAULTS],
}

# list-valued keys whose elements are objects with their own defaults; every
# other list-valued key holds scalars of its default's first element's type
_LIST_DEFAULTS = {
    "datasets": _DATASET_DEFAULTS,
    "channels": _CHANNEL_DEFAULTS,
    "anomalies": _ANOMALY_DEFAULTS,
}


def _scalar_ok(default: Any, given: Any, key: str) -> bool:
    """An int default takes an int, a float default an int or a float, a str
    default a str; null only where the default is null, and for csv.label_column
    (no label column). A null default otherwise takes an int. Bools match none."""
    if given is None:
        return default is None or key == "label_column"
    if isinstance(given, bool):
        return False
    if isinstance(default, float):
        return isinstance(given, (int, float))
    return isinstance(given, str if isinstance(default, str) else int)


def _merge(default: Any, given: Any, path: str) -> Any:
    """Check `given` against `default` and fill in what it leaves out.

    `path` is the key path of `given` with a trailing dot, for error messages.
    """
    key = path[:-1].rpartition(".")[2]
    if isinstance(default, dict):
        if not isinstance(given, dict):
            raise ConfigError(f"{path[:-1] or 'config'}: expected an object")
        for name in given:
            if name not in default:
                raise ConfigError(f"unknown configuration key: {path + name!r}")
        return {name: _merge(value, given[name], f"{path}{name}.") if name in given
                else copy.deepcopy(value) for name, value in default.items()}
    if isinstance(default, list):
        if not isinstance(given, list):
            raise ConfigError(f"{path[:-1]}: expected a list")
        element = _LIST_DEFAULTS[key] if key in _LIST_DEFAULTS else default[0]
        return [_merge(element, item, f"{path}{i}.") for i, item in enumerate(given)]
    if not _scalar_ok(default, given, key):
        expected = {float: "a number", str: "a string"}.get(type(default), "an integer")
        raise ConfigError(f"{path[:-1]}: expected {expected}, got {given!r}")
    return given


def resolve(raw: dict) -> dict:
    """Merge the user's document onto the defaults, rejecting unknown keys."""
    return _merge(DEFAULTS, raw, "")


def config_hash(resolved: dict) -> str:
    """Stable short identifier of the resolved configuration.

    The output directory is excluded: where results land does not change what
    was computed, and identical experiments must hash identically.
    """
    content = {k: v for k, v in resolved.items() if k != "output_dir"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def parse_override(text: str) -> tuple[list[str], Any]:
    """Parse one `a.b.c=value` override; the value is JSON where possible."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {text!r} must look like key.path=value")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.split("."), parsed


def apply_override(raw: dict, path: list[str], value: Any) -> None:
    node = raw
    for part in path[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {'.'.join(path)}")
    node[path[-1]] = value


@dataclass(frozen=True)
class SynthDatasetConfig:
    length: int
    noise_sigma: float
    seed: Optional[int]
    train_fraction: float
    channels: tuple[dict, ...]
    anomalies: tuple[dict, ...]


@dataclass(frozen=True)
class CsvDatasetConfig:
    train_path: str
    test_path: str
    value_columns: tuple[str, ...]
    label_column: Optional[str]


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    source: str
    synth: SynthDatasetConfig
    csv: CsvDatasetConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one resolved configuration document."""

    seed: int
    output_dir: str
    window_length: int
    train_stride: int
    score_stride: int
    model_hidden: tuple[int, ...]
    train_epochs: int
    train_batch_size: int
    train_loss: str
    train_mix: float
    train_lr: float
    loss_weights: LossWeights
    score_mode: str
    threshold_mode: str
    threshold_q: float
    threshold_metric: str
    eval_metrics: tuple[str, ...]
    compare_losses: tuple[str, ...]
    datasets: tuple[DatasetConfig, ...]
    resolved: dict = field(repr=False)
    hash: str = ""

    def train_config(self, loss_kind: Optional[str] = None,
                     weights: Optional[LossWeights] = None,
                     seed: Optional[int] = None) -> TrainConfig:
        return TrainConfig(
            epochs=self.train_epochs,
            batch_size=self.train_batch_size,
            seed=self.seed if seed is None else seed,
            loss_kind=loss_kind or self.train_loss,
            weights=weights or self.loss_weights,
            mix=self.train_mix,
            lr=self.train_lr,
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def build(resolved: dict) -> ExperimentConfig:
    """Validate a resolved document and construct the typed configuration."""
    window = resolved["window"]
    length = window["length"]
    _require(length >= 2, "window.length must be >= 2")
    train_stride = window["train_stride"]
    train_stride = max(1, length // 2) if train_stride is None else train_stride
    _require(train_stride >= 1, "window.train_stride must be >= 1")
    score_stride = window["score_stride"]
    _require(score_stride >= 1, "window.score_stride must be >= 1")

    hidden = tuple(resolved["model"]["hidden"])
    _require(all(h >= 1 for h in hidden) and hidden, "model.hidden must be positive sizes")

    train = resolved["train"]

    lw = resolved["loss_weights"]
    _require(lw["trend_variant"] in TREND_VARIANTS,
             f"loss_weights.trend_variant must be one of {TREND_VARIANTS}")
    weights = LossWeights(
        lambda1=float(lw["lambda1"]),
        lambda2=float(lw["lambda2"]),
        lambda3=float(lw["lambda3"]),
        epsilon=float(lw["epsilon"]),
        trend_variant=lw["trend_variant"],
    )

    _require(resolved["score"]["mode"] in SCORE_MODE_CHOICES,
             f"score.mode must be one of {SCORE_MODE_CHOICES}")
    threshold = resolved["threshold"]
    _require(threshold["mode"] in THRESHOLD_MODE_CHOICES,
             f"threshold.mode must be one of {THRESHOLD_MODE_CHOICES}")
    _require(0.0 < threshold["q"] <= 1.0, "threshold.q must lie in (0, 1]")
    _require(threshold["metric"] in THRESHOLD_METRICS,
             f"threshold.metric must be one of {THRESHOLD_METRICS}")

    metrics = tuple(resolved["eval"]["metrics"])
    _require(metrics and all(m in THRESHOLD_METRICS for m in metrics),
             f"eval.metrics entries must be among {THRESHOLD_METRICS}")
    losses = tuple(resolved["compare"]["losses"])
    _require(all(l in LOSS_KINDS for l in losses),
             f"compare.losses entries must be among {LOSS_KINDS}")

    datasets = []
    _require(bool(resolved["datasets"]), "at least one dataset is required")
    for i, ds in enumerate(resolved["datasets"]):
        _require(ds["source"] in ("synth", "csv"), f"datasets.{i}.source must be synth or csv")
        synth_cfg = ds["synth"]
        for ch in synth_cfg["channels"]:
            _require(ch["shapelet"] in SHAPELETS,
                     f"datasets.{i}: shapelet must be one of {SHAPELETS}")
        for spec in synth_cfg["anomalies"]:
            _require(spec["kind"] in ANOMALY_KINDS,
                     f"datasets.{i}: anomaly kind must be one of {ANOMALY_KINDS}")
            if ds["source"] == "synth":
                end = spec["start"] + spec["length"] - 1
                _require(
                    0 <= spec["start"] and end < synth_cfg["length"],
                    f"datasets.{i}: anomaly {spec['kind']} range "
                    f"({spec['start']}, {end}) outside test region "
                    f"[0, {synth_cfg['length']})",
                )
        datasets.append(DatasetConfig(
            name=ds["name"],
            source=ds["source"],
            synth=SynthDatasetConfig(
                length=synth_cfg["length"],
                noise_sigma=float(synth_cfg["noise_sigma"]),
                seed=synth_cfg["seed"],
                train_fraction=float(synth_cfg["train_fraction"]),
                channels=tuple(synth_cfg["channels"]),
                anomalies=tuple(synth_cfg["anomalies"]),
            ),
            csv=CsvDatasetConfig(
                train_path=ds["csv"]["train_path"],
                test_path=ds["csv"]["test_path"],
                value_columns=tuple(ds["csv"]["value_columns"]),
                label_column=ds["csv"]["label_column"],
            ),
        ))
    names = [d.name for d in datasets]
    _require(len(set(names)) == len(names), "dataset names must be unique")

    config = ExperimentConfig(
        seed=resolved["seed"],
        output_dir=resolved["output_dir"],
        window_length=length,
        train_stride=train_stride,
        score_stride=score_stride,
        model_hidden=hidden,
        train_epochs=train["epochs"],
        train_batch_size=train["batch_size"],
        train_loss=train["loss"],
        train_mix=float(train["mix"]),
        train_lr=float(train["lr"]),
        loss_weights=weights,
        score_mode=resolved["score"]["mode"],
        threshold_mode=threshold["mode"],
        threshold_q=float(threshold["q"]),
        threshold_metric=threshold["metric"],
        eval_metrics=metrics,
        compare_losses=losses,
        datasets=tuple(datasets),
        resolved=resolved,
        hash=config_hash(resolved),
    )
    config.train_config()  # TrainConfig rejects bad epochs, batch_size, loss, mix and lr
    return config


def load_config(path: Optional[str] = None, overrides: Optional[list[str]] = None) -> ExperimentConfig:
    """Read, override, resolve, and validate a configuration file."""
    if path is None:
        raw: dict = {}
    else:
        file = Path(path)
        if not file.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(file.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    for text in overrides or []:
        key_path, value = parse_override(text)
        apply_override(raw, key_path, value)
    return build(resolve(raw))
