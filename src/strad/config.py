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
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Any, Optional

from .detector import SCORE_MODES, TrainConfig
from .errors import ConfigError, DataError
from .losses import LossWeights
from .metrics import THRESHOLD_METRICS
from .model import check_layer_sizes, default_layer_sizes
from .series import encode, read_text
from .synth import (AnomalySpec, ChannelSpec, GeneratorConfig, check_channel, check_frequency,
                    check_range, train_length)

SCORE_MODE_CHOICES = ("auto", *SCORE_MODES)
THRESHOLD_MODE_CHOICES = ("quantile", "best_f1")

# `kind` and `start` have no spec default; "" is no kind, which AnomalySpec rejects
_ANOMALY_DEFAULTS = {"kind": "", "start": 0,
                     **{f.name: f.default for f in fields(AnomalySpec) if f.default is not MISSING}}

_GENERATOR = GeneratorConfig()
_SYNTH_DEFAULTS = {
    "length": _GENERATOR.length,
    "noise_sigma": _GENERATOR.noise_sigma,
    "seed": None,  # None: derived from the global seed and the dataset index
    "train_fraction": 0.5,
    "channels": [asdict(ch) for ch in _GENERATOR.channels],
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

_TRAIN = TrainConfig()
DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "output_dir": "out",
    "window": {"length": 64, "train_stride": None, "score_stride": 1},
    "model": {"hidden": [64, 16]},
    "train": {"epochs": _TRAIN.epochs, "batch_size": _TRAIN.batch_size, "loss": _TRAIN.loss_kind,
              "mix": _TRAIN.mix, "lr": _TRAIN.lr},
    "loss_weights": asdict(LossWeights()),
    "score": {"mode": "auto"},
    "threshold": {"mode": "quantile", "q": 0.99, "metric": "rpa"},
    "eval": {"metrics": list(THRESHOLD_METRICS)},
    "compare": {"losses": ["mse", "strad"]},
    "datasets": [_DATASET_DEFAULTS],
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

    A number given for a float key is returned as that float, so the resolved
    document, and its hash, spell `2` and `2.0` one way.
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
        element = default[0] if default else _ANOMALY_DEFAULTS  # only anomalies default to []
        return [_merge(element, item, f"{path}{i}.") for i, item in enumerate(given)]
    if not _scalar_ok(default, given, key):
        expected = {float: "a number", str: "a string"}.get(type(default), "an integer")
        raise ConfigError(f"{path[:-1]}: expected {expected}, got {given!r}")
    if isinstance(default, float):
        return float(given)
    if isinstance(given, str):  # any string may be used as a file name
        if "\x00" in given:
            raise ConfigError(f"{path[:-1]}: contains a NUL character")
        try:
            os.fsencode(given)
        except UnicodeEncodeError as exc:  # e.g. a lone surrogate
            raise ConfigError(f"{path[:-1]}: cannot encode: {exc}") from None
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
    except (ValueError, RecursionError):  # not JSON, too deep, or an integer too long
        parsed = value  # the raw string, for the key's type check to reject
    return key.split("."), parsed


def apply_override(raw: dict, path: list[str], value: Any) -> None:
    node, default = raw, DEFAULTS  # the defaults decide what is an object, not the document
    for depth, part in enumerate(path[:-1], 1):
        known = isinstance(default, dict) and part in default  # else `resolve` names it unknown
        default = default[part] if known else None
        node = node.setdefault(part, {})
        if (known and not isinstance(default, dict)) or not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {'.'.join(path)}: {'.'.join(path[:depth])} is "
                              + ("a list; --set replaces it whole" if isinstance(default, list)
                                 else "not an object"))
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
    train: TrainConfig  # the run of `strad train` and `strad detect`
    score_mode: str
    threshold_mode: str
    threshold_q: float
    threshold_metric: str
    eval_metrics: tuple[str, ...]
    compare_arms: tuple[TrainConfig, ...]  # `train` with each `compare.losses` entry
    datasets: tuple[DatasetConfig, ...]
    hash: str = ""

    @property
    def compare_losses(self) -> tuple[str, ...]:
        return tuple(arm.loss_kind for arm in self.compare_arms)

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

    with _at("loss_weights"):
        weights = LossWeights(**resolved["loss_weights"])
    train = resolved["train"]
    with _at("train"):
        train_cfg = TrainConfig(epochs=train["epochs"], batch_size=train["batch_size"],
                                seed=resolved["seed"], loss_kind=train["loss"], weights=weights,
                                mix=train["mix"], lr=train["lr"])

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

    datasets = []
    _require(bool(resolved["datasets"]), "at least one dataset is required")
    for i, ds in enumerate(resolved["datasets"]):
        # the name becomes the stem of every file written for the dataset
        _require(ds["name"] not in ("", ".", "..") and not any(c in ds["name"] for c in "/\\"),
                 f"datasets.{i}.name must be a plain file-name stem, got {ds['name']!r}")
        with _at(f"datasets.{i}.name"):  # and it is written into every output file
            encode(repr(ds["name"]), ds["name"])
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
                                        noise_sigma=synth_cfg["noise_sigma"], seed=seed,
                                        name=ds["name"])
            train_length(generator, synth_cfg["train_fraction"])
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
            synth=SynthDatasetConfig(generator, synth_cfg["train_fraction"], tuple(anomalies)),
            csv=CsvDatasetConfig(**dict(ds["csv"], value_columns=tuple(ds["csv"]["value_columns"]))),
        ))
    names = [d.name for d in datasets]
    _require(len(set(names)) == len(names), "dataset names must be unique")
    for ds in datasets:  # each dataset's model must fit in one numpy array
        channels = (len(ds.csv.value_columns) if ds.source == "csv"
                    else len(ds.synth.generator.channels))
        with _at("model.hidden"):
            # a csv dataset without value columns fails when its file is read
            check_layer_sizes(default_layer_sizes(length * max(channels, 1), hidden))
    arms = []
    for j, loss in enumerate(resolved["compare"]["losses"]):
        with _at(f"compare.losses.{j}"):
            arms.append(replace(train_cfg, loss_kind=loss))

    return ExperimentConfig(
        seed=resolved["seed"],
        output_dir=resolved["output_dir"],
        window_length=length,
        train_stride=train_stride,
        score_stride=score_stride,
        model_hidden=hidden,
        train=train_cfg,
        score_mode=resolved["score"]["mode"],
        threshold_mode=threshold["mode"],
        threshold_q=threshold["q"],
        threshold_metric=threshold["metric"],
        eval_metrics=metrics,
        compare_arms=tuple(arms),
        datasets=tuple(datasets),
        hash=config_hash(resolved),
    )


def load_config(path: Optional[str] = None, overrides: Optional[list[str]] = None) -> ExperimentConfig:
    """Read, override, resolve, and validate a configuration file."""
    if path is None:
        raw: dict = {}
    else:
        try:
            raw = json.loads(read_text(path, ConfigError))
        except (ValueError, RecursionError) as exc:  # too deep, or an integer too long
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    for text in overrides or []:
        key_path, value = parse_override(text)
        apply_override(raw, key_path, value)
    return build(resolve(raw))
