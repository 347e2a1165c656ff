"""The benchmark's three workloads, each driving strad through `strad.cli.main`.

A workload is built from a directory to write in, the run's seed, and a
scale. `setup()` writes its inputs and may run several times. `op(i)` is the
timed operation, and op -1 is the warm-up; `check(i, out)` verifies what op i
returned and lists the problems found. `work(i)` is the op's work in the
workload's unit, and `quality()` summarizes the outputs of the ops checked.

Every op's inputs derive from the run's seed alone. On `compare` and
`train_scaled`, op i of a run with seed s uses strad seed `s * 1000 + 1 + i`;
`eval_sweep` cycles over the score files its set-up wrote from seeds
`s * 1000 + g`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import strad.cli
import strad.config
import strad.experiments
import strad.metrics
import strad.model
import strad.series
from strad.benchmarks import pattern_benchmark_config


def op_seed(seed: int, i: int) -> int:
    return seed * 1000 + 1 + i


def cli(*argv) -> int:
    """`strad <argv>` in this process, with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return strad.cli.main([str(a) for a in argv])


def read_rows(path) -> list[dict]:
    """Rows of one of strad's CSV outputs (leading '#' provenance skipped)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def windows(length: int, t: int, stride: int) -> int:
    return (length - t) // stride + 1


def unit_interval(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


class Compare:
    """`strad compare` of the pattern benchmark, one seed per op."""

    name = "compare"
    unit = "windows"

    def __init__(self, workdir: Path, seed: int, tiny: bool = False):
        self.dir = workdir / self.name
        self.seed = seed
        self.length, self.epochs = (600, 1) if tiny else (4000, 20)
        self.f1s: list[tuple[float, float]] = []

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        doc = pattern_benchmark_config(seed=self.seed * 1000, length=self.length,
                                       epochs=self.epochs)
        (self.dir / "compare.json").write_text(json.dumps(doc))
        self.cfg = strad.config.load_config(str(self.dir / "compare.json"))

    def op(self, i: int):
        return cli("compare", "-c", self.dir / "compare.json", "-o", self.dir / "out",
                   "--seed", op_seed(self.seed, i))

    def check(self, i: int, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        for row in read_rows(self.dir / "out" / "comparison.csv"):
            for metric in ("rpa", "pa"):
                if not unit_interval(float(row[f"{metric}_f1"])):
                    problems.append(f"{row['arm']}/{row['dataset']} {metric}_f1={row[f'{metric}_f1']}")
        entire = {}
        for row in read_rows(self.dir / "out" / "improvement.csv"):
            entire[(row["arm"], row["metric"])] = float(row["entire_f1"])
        for key, value in entire.items():
            if not unit_interval(value):
                problems.append(f"{key} entire_f1={value}")
        if ("strad", "rpa") not in entire or ("strad", "pa") not in entire:
            problems.append("no strad row in improvement.csv")
        elif not problems:
            self.f1s.append((entire[("strad", "rpa")], entire[("strad", "pa")]))
        return problems

    def work(self, i: int) -> int:
        """Model windows: training windows times epochs plus scored windows."""
        cfg = self.cfg
        t = cfg.window_length
        total = 0
        for ds in cfg.datasets:
            train_len = int(math.floor(ds.synth.train_fraction * ds.synth.length))
            trained = windows(train_len, t, cfg.train_stride) * cfg.train_epochs
            scored = windows(ds.synth.length, t, cfg.score_stride)  # test split
            if cfg.threshold_mode == "quantile":
                scored += windows(train_len, t, cfg.score_stride)  # train split
            total += trained + scored
        return total * len(cfg.compare_losses)

    def quality(self) -> dict:
        if not self.f1s:
            return {}
        rpa, pa = zip(*self.f1s)
        return {"rpa_f1_strad": float(np.mean(rpa)), "pa_f1_strad": float(np.mean(pa)),
                "seeds": len(self.f1s)}


class TrainScaled:
    """`strad train` on one large four-channel series, then a checkpoint load."""

    name = "train_scaled"
    unit = "windows"
    BATCH = 32
    CHANNELS = [
        {"shapelet": "sine", "omega": 1 / 32, "amplitude": 1.0, "phase": 0.0, "slope": 0.0},
        {"shapelet": "square", "omega": 1 / 50, "amplitude": 0.8, "phase": 1.0, "slope": 0.0},
        {"shapelet": "sawtooth", "omega": 1 / 64, "amplitude": 1.2, "phase": 2.0, "slope": 0.0},
        {"shapelet": "sine", "omega": 1 / 20, "amplitude": 0.5, "phase": 0.5, "slope": 1e-5},
    ]

    def __init__(self, workdir: Path, seed: int, tiny: bool = False):
        self.dir = workdir / self.name
        self.seed = seed
        self.length, self.t, self.epochs = (2000, 32, 2) if tiny else (40000, 128, 10)
        self.final_losses: list[float] = []

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "seed": self.seed * 1000,
            "window": {"length": self.t, "train_stride": self.t // 2},
            "train": {"epochs": self.epochs, "batch_size": self.BATCH, "loss": "strad"},
            "datasets": [{"name": "scaled", "source": "synth",
                          "synth": {"length": self.length, "train_fraction": 0.5,
                                    "channels": self.CHANNELS}}],
        }
        (self.dir / "train.json").write_text(json.dumps(doc))
        cfg = strad.config.load_config(str(self.dir / "train.json"))
        train_split, _ = strad.experiments.materialize_dataset(cfg, 0)
        self.train_windows = windows(train_split.length, self.t, self.t // 2)

    def op(self, i: int):
        rc = cli("train", "-c", self.dir / "train.json", "-o", self.dir / "out",
                 "--seed", op_seed(self.seed, i))
        if rc != 0:
            return rc, None, None
        model, meta = strad.model.load_checkpoint(self.dir / "out" / "scaled_model.ckpt")
        return rc, model, meta

    def check(self, i: int, out) -> list[str]:
        rc, model, meta = out
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        expected = op_seed(self.seed, i)
        if meta.get("seed") != str(expected):
            problems.append(f"checkpoint seed {meta.get('seed')} != {expected}")
        if model.input_size != self.t * len(self.CHANNELS):
            problems.append(f"checkpoint input size {model.input_size}")
        if not all(np.isfinite(a).all() for a in model.weights + model.biases):
            problems.append("non-finite parameters")
        totals = [float(r["total"]) for r in read_rows(self.dir / "out" / "scaled_history.csv")]
        if len(totals) != self.epochs or not all(map(math.isfinite, totals)):
            problems.append(f"history {totals}")
        elif not totals[-1] < totals[0]:
            problems.append(f"last-epoch loss {totals[-1]} not below first {totals[0]}")
        elif not problems:
            self.final_losses.append(totals[-1])
        return problems

    def work(self, i: int) -> int:
        return self.train_windows * self.epochs

    def quality(self) -> dict:
        if not self.final_losses:
            return {}
        return {"final_loss": float(np.mean(self.final_losses)), "seeds": len(self.final_losses),
                "steps_per_op": math.ceil(self.train_windows / self.BATCH) * self.epochs}


class EvalSweep:
    """`strad eval` with the default best-F1 sweep on MSE and strad score files.

    Set-up builds GROUPS copies of the pattern benchmark, each from its own
    seed, and writes per sub-dataset the labeled test CSV and one score CSV
    per arm with strad's own synth, train and detect. Op i evaluates both
    arms' score files of sub-dataset i (cycling) in one call. Several groups
    let one run average over more inputs than a single seed's four.
    """

    name = "eval_sweep"
    unit = "points"
    ARMS = ("mse", "strad")
    GROUPS = 3
    SAMPLE = np.linspace(0.0, 1.0, 17)  # quantile levels of the independent check

    def __init__(self, workdir: Path, seed: int, tiny: bool = False):
        self.dir = workdir / self.name
        self.seed = seed
        self.length, self.epochs = (300, 1) if tiny else (1000, 20)
        self.best: list[tuple[float, float]] = []

    def setup(self) -> None:
        self.subsets = []  # (directory, sub-dataset name)
        for g in range(self.GROUPS):
            gdir = self.dir / f"group{g}"
            gdir.mkdir(parents=True, exist_ok=True)
            doc = pattern_benchmark_config(seed=self.seed * 1000 + g, length=self.length,
                                           epochs=self.epochs)
            for i, ds in enumerate(doc["datasets"]):
                ds["synth"]["seed"] = doc["seed"] * 1000 + 10 * i
                for arm in self.ARMS:
                    one = dict(doc, datasets=[ds], output_dir=str(gdir / arm),
                               train=dict(doc["train"], loss=arm))
                    cfg = gdir / f"{ds['name']}_{arm}.json"
                    cfg.write_text(json.dumps(one))
                    ckpt = gdir / arm / f"{ds['name']}_model.ckpt"
                    for argv in (("synth", "-c", cfg), ("train", "-c", cfg),
                                 ("detect", "-c", cfg, "--checkpoint", ckpt)):
                        rc = cli(*argv)
                        if rc != 0:
                            raise RuntimeError(f"strad {argv[0]} for {cfg} exited {rc}")
                self.subsets.append((gdir, ds["name"]))
        self.inputs = {}
        for gdir, name in self.subsets:
            labels = np.array([int(r["label"]) for r in read_rows(gdir / "mse" / f"{name}_test.csv")])
            for arm in self.ARMS:
                scores = np.array([float(r["score"])
                                   for r in read_rows(gdir / arm / f"{name}_scores.csv")])
                self.inputs[(gdir, name, arm)] = (scores, labels)

    def op(self, i: int):
        gdir, name = self.subsets[i % len(self.subsets)]
        argv = ["eval", "-o", self.dir / "report"]
        for arm in self.ARMS:
            argv += ["--scores", gdir / arm / f"{name}_scores.csv",
                     "--data", gdir / "mse" / f"{name}_test.csv"]
        return cli(*argv)

    def check(self, i: int, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        gdir, name = self.subsets[i % len(self.subsets)]
        rows = [r for r in read_rows(self.dir / "report" / "report.csv") if r["name"] != "ENTIRE"]
        if len(rows) != len(self.ARMS):
            return [f"{len(rows)} report rows"]
        problems = []
        found = []
        for arm, row in zip(self.ARMS, rows):
            scores, labels = self.inputs[(gdir, name, arm)]
            segments = strad.series.segments_from_labels(labels)

            def f1_at(threshold: float, metric: str) -> float:
                preds = (scores >= threshold).astype(np.int64)
                if metric == "rpa":
                    return strad.metrics.rpa_counts(preds, segments).f1
                return strad.metrics.pa_counts(preds, labels).f1

            sample = np.quantile(scores, self.SAMPLE)
            for metric in ("rpa", "pa"):
                f1 = float(row[f"{metric}_f1"])
                threshold = float(row[f"{metric}_threshold"])
                if not unit_interval(f1) or not math.isclose(f1_at(threshold, metric), f1,
                                                              rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"{gdir.name}/{name}/{arm} {metric}: F1 {f1} at {threshold} "
                                    "does not recount")
                beaten = [float(q) for q in sample if f1_at(q, metric) > f1 + 1e-12]
                if beaten:
                    problems.append(f"{gdir.name}/{name}/{arm} {metric}: thresholds {beaten} "
                                    f"beat F1 {f1}")
            found.append((float(row["rpa_f1"]), float(row["pa_f1"])))
        if not problems:
            self.best.extend(found)
        return problems

    def work(self, i: int) -> int:
        """Score points swept: every pair's points, once per metric."""
        gdir, name = self.subsets[i % len(self.subsets)]
        return sum(self.inputs[(gdir, name, arm)][0].size for arm in self.ARMS) * 2

    def quality(self) -> dict:
        if not self.best:
            return {}
        rpa, pa = zip(*self.best)
        return {"best_rpa_f1": float(np.mean(rpa)), "best_pa_f1": float(np.mean(pa)),
                "pairs": len(self.best)}


WORKLOADS = {w.name: w for w in (Compare, TrainScaled, EvalSweep)}
