"""Spans and counters recorded around strad's layer functions, from outside.

A `Target` names a function by the module attribute its caller looks it up
through (``strad.detector.forward_batch`` is the name `detector.train` and
`detector.score` call), plus the span name its calls are recorded under and
an optional counter. `Tracer.install` swaps each such attribute for a timing
wrapper and `Tracer.uninstall` puts the originals back. A target whose module
or attribute no longer exists is listed in `Tracer.absent`; the metrics that
depend only on absent targets are left out of `layer_metrics` instead of
failing the run.

Spans are kept in memory as (op, id, parent, name, start, end). Every span's
parent is the innermost span open when it started, or the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _path_bytes(bound: inspect.BoundArguments, result) -> dict:
    """Size of every file named by an argument ending in 'path'."""
    size = 0.0
    for name, value in bound.arguments.items():
        if name.endswith("path") and value is not None and os.path.isfile(value):
            size += os.path.getsize(value)
    return {"bytes": size}


def _rows(bound, result) -> dict:
    return {"rows": float(bound.arguments["X"].shape[0])}


def _scored_windows(bound, result) -> dict:
    a = bound.arguments
    return {"windows": float((a["series"].length - a["length"]) // a.get("stride", 1) + 1)}


def _candidate_thresholds(bound, result) -> dict:
    # the sweep's candidates: every distinct score plus +inf
    return {"thresholds": float(np.unique(bound.arguments["score_series"].scores).size + 1)}


@dataclass(frozen=True)
class Target:
    where: str  # "package.module.attribute"
    span: str
    count: Optional[Callable] = None  # (BoundArguments, result) -> {counter: value}


CSV_WRITERS = ("write_series_csv", "write_scores_csv", "write_segments_csv",
               "write_history_csv", "write_table")

TARGETS = (
    Target("strad.cli.load_config", "config.load"),
    Target("strad.experiments.make_benchmark", "synth.generate"),
    Target("strad.experiments.fit_normalization", "series.normalize"),
    Target("strad.experiments.apply_normalization", "series.normalize"),
    Target("strad.experiments.sliding_windows", "series.windows"),
    Target("strad.experiments.train", "detector.train"),
    Target("strad.experiments.score", "detector.score", _scored_windows),
    Target("strad.experiments.threshold_best_f1", "detector.best_f1", _candidate_thresholds),
    Target("strad.detector.forward_batch", "model.forward", _rows),
    Target("strad.detector.backward_batch", "model.backward"),
    Target("strad.detector.adam_step", "model.adam"),
    Target("strad.detector.strad_batch", "losses.train"),
    Target("strad.detector.mse_batch", "losses.train"),
    Target("strad.detector.seasonality_batch", "losses.seasonality"),
    Target("strad.losses.seasonality_batch", "losses.seasonality"),
    Target("strad.losses._transform", "spectral.transform"),
    Target("strad.spectral._transform", "spectral.transform"),
    Target("strad.detector.rpa_counts", "metrics.rpa_counts"),
    Target("strad.detector.pa_counts", "metrics.pa_counts"),
    Target("strad.experiments.rpa_counts", "metrics.rpa_counts"),
    Target("strad.experiments.pa_counts", "metrics.pa_counts"),
    Target("strad.experiments.save_checkpoint", "model.ckpt_save", _path_bytes),
    Target("strad.experiments.load_checkpoint", "model.ckpt_load", _path_bytes),
    Target("strad.model.load_checkpoint", "model.ckpt_load", _path_bytes),
    Target("strad.experiments.read_scores_csv", "experiments.csv_read", _path_bytes),
    Target("strad.experiments.read_labels_csv", "experiments.csv_read", _path_bytes),
) + tuple(Target(f"strad.experiments.{name}", "experiments.csv_write", _path_bytes)
          for name in CSV_WRITERS)

# Spans whose children's self time counts toward them in the layer breakdown:
# scoring with its forward and spectral calls, the loss with its spectral
# calls, and the threshold sweep with the metric calls it makes.
COMPOSITE = ("detector.score", "detector.best_f1", "losses.train")


@dataclass(slots=True)
class Span:
    op: int
    id: int
    parent: int  # -1 for an op's root span
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.absent: list[str] = []
        self.broken: set = set()  # spans whose counter stopped working
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        absent = []
        for target in self.targets:
            module_name, _, attr = target.where.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(target.where)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                absent.append(target.where)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(target, original))
        self.absent = absent

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def present(self, span: str) -> bool:
        """Whether at least one target recording `span` exists in this program."""
        return any(t.span == span and t.where not in self.absent for t in self.targets)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self._op, sid, parent, name, time.perf_counter(), 0.0))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, index: int):
        """Root span of one operation; spans opened inside belong to it."""
        self._op = index
        sid = self._open("op")
        try:
            yield
        finally:
            self._close(sid)
            self.ops += 1

    def _wrap(self, target: Target, fn):
        signature = inspect.signature(fn) if target.count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counts[f"{target.span}.calls"] += 1
            if signature is not None and target.span not in self.broken:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in target.count(bound, result).items():
                        self.counts[f"{target.span}.{key}"] += value
                except (TypeError, KeyError, AttributeError, OSError):
                    # the function's signature changed under us: stop counting
                    self.broken.add(target.span)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def _ancestor(self, span: Span, names) -> Optional[str]:
        """Outermost ancestor of `span` whose name is in `names`."""
        found = None
        parent = span.parent
        while parent >= 0:
            p = self.spans[parent]
            if p.name in names:
                found = p.name
            parent = p.parent
        return found

    def _self_times(self) -> list[float]:
        """Each span's duration minus its children's (spans nest, one thread)."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def layer_breakdown(self) -> dict:
        """Self time per layer, composites absorbing their children's. The op's
        own remainder (CLI, glue, code no target covers) is listed as 'op'."""
        layers: dict = defaultdict(float)
        for s, own in zip(self.spans, self._self_times()):
            layers[self._ancestor(s, COMPOSITE) or s.name] += own
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self, overhead_ratio: float) -> tuple[dict, list[str]]:
        """Per-op layer metrics as {name: (value, unit)}, and the names left
        out because a layer they measure is absent from the program."""
        busy: dict = defaultdict(float)
        own: dict = defaultdict(float)
        transform_by_caller: dict = defaultdict(float)
        sweep_counts = 0
        for s, self_time in zip(self.spans, self._self_times()):
            busy[s.name] += s.duration
            own[s.name] += self_time
            if s.name == "spectral.transform":
                caller = self._ancestor(s, ("detector.score", "detector.train"))
                transform_by_caller[caller] += s.duration
            elif s.name in ("metrics.rpa_counts", "metrics.pa_counts"):
                sweep_counts += self._ancestor(s, ("detector.best_f1",)) is not None
        ops = max(self.ops, 1)
        c = self.counts
        sweeps = c["detector.best_f1.calls"]

        def seconds(span):
            return (span,), (busy[span] / ops, "s/op")

        def count(span, key, unit="count/op"):
            # a counter that broke leaves its metric out, like an absent span
            usable = key == "calls" or span not in self.broken
            return (span,) if usable else (span, None), (c[f"{span}.{key}"] / ops, unit)

        table = {
            "detector.score_s": seconds("detector.score"),
            "detector.score_self_s": (("detector.score",), (own["detector.score"] / ops, "s/op")),
            "detector.scored_windows": count("detector.score", "windows"),
            "detector.train_s": seconds("detector.train"),
            "spectral.transform_s": seconds("spectral.transform"),
            "spectral.transform_calls": count("spectral.transform", "calls"),
            "spectral.transform_score_s": (("spectral.transform", "detector.score"),
                                           (transform_by_caller["detector.score"] / ops, "s/op")),
            "spectral.transform_train_s": (("spectral.transform", "detector.train"),
                                           (transform_by_caller["detector.train"] / ops, "s/op")),
            "losses.train_s": seconds("losses.train"),
            "losses.seasonality_s": seconds("losses.seasonality"),
            "model.forward_s": seconds("model.forward"),
            "model.forward_rows": count("model.forward", "rows"),
            "model.backward_s": seconds("model.backward"),
            "model.adam_s": seconds("model.adam"),
            "model.steps": count("model.adam", "calls"),
            "model.ckpt_save_s": seconds("model.ckpt_save"),
            "model.ckpt_load_s": seconds("model.ckpt_load"),
            "model.ckpt_bytes": count("model.ckpt_save", "bytes", "bytes/op"),
            "detector.best_f1_s": seconds("detector.best_f1"),
            "detector.thresholds_swept": count("detector.best_f1", "thresholds"),
            "metrics.rpa_counts_calls": count("metrics.rpa_counts", "calls"),
            "metrics.pa_counts_calls": count("metrics.pa_counts", "calls"),
            "metrics.counts_calls_per_sweep": (
                ("detector.best_f1", "metrics.rpa_counts", "metrics.pa_counts"),
                (sweep_counts / sweeps if sweeps else 0.0, "ratio")),
            "experiments.csv_read_s": seconds("experiments.csv_read"),
            "experiments.csv_read_bytes": count("experiments.csv_read", "bytes", "bytes/op"),
            "experiments.csv_write_s": seconds("experiments.csv_write"),
            "experiments.csv_write_bytes": count("experiments.csv_write", "bytes", "bytes/op"),
            "synth.generate_s": seconds("synth.generate"),
            "series.windows_s": seconds("series.windows"),
            "series.normalize_s": seconds("series.normalize"),
            "config.load_s": seconds("config.load"),
        }
        out, missing = {}, []
        for name, (needs, value) in table.items():
            if all(span is not None and self.present(span) for span in needs):
                out[name] = value
            else:
                missing.append(name)
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out, missing

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end}) + "\n")
