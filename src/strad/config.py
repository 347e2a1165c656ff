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
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from .detector import SCORE_MODES, THRESHOLD_METRICS, TrainConfig
from .errors import ConfigError, DataError
from .losses import LossWeights
from .model import check_layer_sizes, default_layer_sizes
from .series import read_text
from .synth import (AnomalySpec, ChannelSpec, GeneratorConfig, check_channel, check_frequency,
                    check_range, train_length)

SCORE_MODE_CHOICES = ("auto", *SCORE_MODES)
THRESHOLD_MODE_CHOICES = ("quantile", "best_f1")

_CHANNEL_DEFAULTS = asdict(ChannelSpec())

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
    "loss_weights": asdict(LossWeights()),
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
    """An int default takes an int, a float default a float or an int within
    float range, a str default a str; null only where the default is null, and
    for csv.label_column (no label column). A null default otherwise takes an
    int. Bools match none."""
    if given is None:
        return default is None or key == "label_column"
    if isinstance(given, bool):
        return False
    if isinstance(default, float):
        return isinstance(given, float) or (isinstance(given, int)
                                            and abs(given) <= sys.float_info.max)
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
    if isinstance(given, str) and "\x00" in given:  # no file name may hold one
        raise ConfigError(f"{path[:-1]}: contains a NUL character")
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
    generator: GeneratorConfig  # what runs, with the seed resolved
    train_fraction: float
    anomalies: tuple[AnomalySpec, ...]

    @property
    def length(self) -> int:
        return self.generator.length


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
    train: TrainConfig  # the configured run; `fit` varies its loss_kind and weights per arm
    score_mode: str
    threshold_mode: str
    threshold_q: float
    threshold_metric: str
    eval_metrics: tuple[str, ...]
    compare_losses: tuple[str, ...]
    datasets: tuple[DatasetConfig, ...]
    resolved: dict = field(repr=False)
    hash: str = ""

    @property
    def loss_weights(self) -> LossWeights:
        return self.train.weights

    @property
    def train_loss(self) -> str:
        return self.train.loss_kind

    @property
    def train_epochs(self) -> int:
        return self.train.epochs


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@contextmanager
def _at(path: str):
    """Re-raise a typed spec's or a synth check's error under the key path of its value."""
    try:
        yield
    except (ConfigError, DataError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build(resolved: dict) -> ExperimentConfig:
    """Validate a resolved document and construct the typed configuration."""
    _require(resolved["seed"] >= 0, "seed must be >= 0")
    window = resolved["window"]
    length = window["length"]
    _require(length >= 2, "window.length must be >= 2")
    train_stride = window["train_stride"]
    train_stride = max(1, length // 2) if train_stride is None else train_stride
    _require(train_stride >= 1, "window.train_stride must be >= 1")
    score_stride = window["score_stride"]
    _require(score_stride >= 1, "window.score_stride must be >= 1")
    # a longer stride would leave points between windows that no window scores
    _require(score_stride <= length,
             f"window.score_stride ({score_stride}) must not exceed window.length ({length})")

    hidden = tuple(resolved["model"]["hidden"])
    _require(all(h >= 1 for h in hidden) and hidden, "model.hidden must be positive sizes")

    lw = resolved["loss_weights"]
    with _at("loss_weights"):
        weights = LossWeights(
            lambda1=float(lw["lambda1"]),
            lambda2=float(lw["lambda2"]),
            lambda3=float(lw["lambda3"]),
            epsilon=float(lw["epsilon"]),
            trend_variant=lw["trend_variant"],
        )
    train = resolved["train"]
    with _at("train"):
        train_cfg = TrainConfig(epochs=train["epochs"], batch_size=train["batch_size"],
                                seed=resolved["seed"], loss_kind=train["loss"], weights=weights,
                                mix=float(train["mix"]), lr=float(train["lr"]))

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
    _require(len(set(metrics)) == len(metrics), f"eval.metrics repeats a metric: {list(metrics)}")
    losses = tuple(resolved["compare"]["losses"])

    datasets = []
    _require(bool(resolved["datasets"]), "at least one dataset is required")
    for i, ds in enumerate(resolved["datasets"]):
        # the name becomes the stem of every file written for the dataset
        _require(ds["name"] not in ("", ".", "..") and not any(c in ds["name"] for c in "/\\"),
                 f"datasets.{i}.name must be a plain file-name stem, got {ds['name']!r}")
        _require(ds["source"] in ("synth", "csv"), f"datasets.{i}.source must be synth or csv")
        synth_cfg, key = ds["synth"], f"datasets.{i}.synth"
        channels = []
        for c, ch in enumerate(synth_cfg["channels"]):
            with _at(f"{key}.channels.{c}"):
                channels.append(ChannelSpec(**ch))
        with _at(key):
            # derived seeds are spaced by 10 so the +1 test-split offset never collides
            seed = resolved["seed"] * 1000 + 10 * i if synth_cfg["seed"] is None else synth_cfg["seed"]
            generator = GeneratorConfig(length=synth_cfg["length"], channels=tuple(channels),
                                        noise_sigma=float(synth_cfg["noise_sigma"]), seed=seed,
                                        name=ds["name"])
            train_fraction = float(synth_cfg["train_fraction"])
            train_length(generator, train_fraction)
        anomalies = []
        for a, raw in enumerate(synth_cfg["anomalies"]):
            with _at(f"{key}.anomalies.{a}"):
                spec = AnomalySpec(**raw)
                check_range(spec, generator)
                check_channel(spec, generator)
                check_frequency(spec, generator)
            anomalies.append(spec)
        datasets.append(DatasetConfig(
            name=ds["name"],
            source=ds["source"],
            synth=SynthDatasetConfig(generator, train_fraction, tuple(anomalies)),
            csv=CsvDatasetConfig(
                train_path=ds["csv"]["train_path"],
                test_path=ds["csv"]["test_path"],
                value_columns=tuple(ds["csv"]["value_columns"]),
                label_column=ds["csv"]["label_column"],
            ),
        ))
    names = [d.name for d in datasets]
    _require(len(set(names)) == len(names), "dataset names must be unique")
    for ds in datasets:  # each dataset's model must fit in one numpy array
        channels = (len(ds.csv.value_columns) if ds.source == "csv"
                    else len(ds.synth.generator.channels))
        with _at("model.hidden"):
            # a csv dataset without value columns fails when its file is read
            check_layer_sizes(default_layer_sizes(length * max(channels, 1), hidden))

    config = ExperimentConfig(
        seed=resolved["seed"],
        output_dir=resolved["output_dir"],
        window_length=length,
        train_stride=train_stride,
        score_stride=score_stride,
        model_hidden=hidden,
        train=train_cfg,
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
    for j, loss in enumerate(losses):  # every arm's TrainConfig must build
        with _at(f"compare.losses.{j}"):
            replace(train_cfg, loss_kind=loss)
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
            raw = json.loads(read_text(file, ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    for text in overrides or []:
        key_path, value = parse_override(text)
        apply_override(raw, key_path, value)
    return build(resolve(raw))
