"""Experiment pipelines behind the CLI: data materialization, train/score/eval,
loss comparisons, and ablations over the objective's component subsets.

Every output file embeds the resolved-config hash and the seed on a leading
'#' comment line; CSV numbers are written with 17 significant digits so runs
are reproducible byte for byte and parse back exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .detector import (
    LOSS_KINDS,
    ScoreSeries,
    TrainConfig,
    TrainResult,
    f1_at,
    score,
    threshold_best_f1,
    threshold_quantile,
    train,
)
from .errors import CheckpointError, ConfigError, DataError
from .fanout import fan_out
from .metrics import air, as_truth, avg_improved, entire_f1, segment_total
from .model import (
    DenseAutoencoder,
    default_layer_sizes,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .series import (
    TimeSeries,
    apply_normalization,
    encode,
    fit_normalization,
    load_columns,
    load_csv,
    segments_from_labels,
    sliding_windows,
    write_text,
)
from .synth import make_benchmark, make_train_split


# Marks a swept best F1 that the all-positive prediction (threshold at the
# minimum score) already reaches, so the sweep chose nothing a constant could not.
DEGENERATE = "(degenerate: all-positive prediction scores the same F1)"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _make_outdir(outdir: Path) -> None:
    """Create the output directory and its parents; a file in the way is a usage error."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {outdir}: {exc.strerror}") from None


def provenance(cfg: ExperimentConfig, **extra) -> str:
    parts = [f"config={cfg.hash}", f"seed={cfg.seed}"]
    parts += [f"{k}={v}" for k, v in extra.items()]
    return "# " + " ".join(parts)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


def materialize_dataset(cfg: ExperimentConfig, index: int) -> tuple[TimeSeries, TimeSeries]:
    """Build (train, test) series for one configured dataset."""
    ds = cfg.datasets[index]
    if ds.source == "csv":
        train_ts = load_csv(ds.csv.train_path, ds.csv.value_columns, ds.csv.label_column,
                            name=f"{ds.name}_train")
        test_ts = load_csv(ds.csv.test_path, ds.csv.value_columns, ds.csv.label_column,
                           name=f"{ds.name}_test")
        return train_ts, test_ts
    return make_benchmark(ds.synth.generator, ds.synth.anomalies, ds.synth.train_fraction)


def materialize_train(cfg: ExperimentConfig, index: int) -> TimeSeries:
    """The train split of one configured dataset; a synthetic one draws no test split.

    A csv dataset reads both files, like `materialize_dataset`, so a bad test
    file fails here too.
    """
    ds = cfg.datasets[index]
    if ds.source == "csv":
        return materialize_dataset(cfg, index)[0]
    return make_train_split(ds.synth.generator, ds.synth.train_fraction)


def resolve_score_mode(configured: str, loss_kind: str) -> str:
    """"auto" pairs each objective with its own discrepancy measure."""
    if configured != "auto":
        return configured
    return "shape_only" if loss_kind == "mse" else "strad_broadcast"


# ---------------------------------------------------------------------------
# the pipeline: fit on the train split, detect on the test split
# ---------------------------------------------------------------------------


def normalize_splits(data: tuple[TimeSeries, TimeSeries]) -> tuple[TimeSeries, TimeSeries]:
    """Both splits z-scored with the train split's statistics."""
    train_raw, test_raw = data
    stats = fit_normalization(train_raw)
    return apply_normalization(train_raw, stats), apply_normalization(test_raw, stats)


def fit(cfg: ExperimentConfig, train_norms: Sequence[TimeSeries],
        arms: Sequence[TrainConfig]) -> list[TrainResult]:
    """Window each normalized train split and train `arms[k]` on split k, every
    fit from one model seeded by `cfg.seed`, as one lockstep stack (`train`).

    The splits must share their length and channel count, so that their
    windows stack; one split's windows are trained from the view, uncopied.
    """
    t = cfg.window_length
    windows = [sliding_windows(ts, t, cfg.train_stride) for ts in train_norms]
    stack = windows[0][None] if len(windows) == 1 else np.stack(windows)
    # not bound to a name here, so the initial model is freed once `train` has copied it
    return train(init_model(default_layer_sizes(t * train_norms[0].channels, cfg.model_hidden),
                            seed=cfg.seed),
                 stack, arms)


def detect(cfg: ExperimentConfig, model: DenseAutoencoder, train_norm: TimeSeries,
           test_norm: TimeSeries, mode: str) -> tuple[ScoreSeries, Optional[float]]:
    """Score the normalized test split with the configured weights; return scores and threshold.

    "quantile" mode thresholds at the q-quantile of the train split's
    scores; "best_f1" mode returns None, for `evaluate` to sweep on the
    labeled test scores.
    """

    def scores_of(series: TimeSeries) -> ScoreSeries:
        return score(model, series, cfg.window_length, cfg.score_stride, cfg.train.weights, mode)

    if cfg.threshold_mode == "quantile":
        return scores_of(test_norm), threshold_quantile(scores_of(train_norm), cfg.threshold_q)
    if test_norm.labels is None:
        raise DataError(f"{test_norm.name}: best_f1 thresholding requires test labels")
    return scores_of(test_norm), None


def evaluate(scores: ScoreSeries, labels, thresholds: dict) -> dict:
    """The report row of one labeled series: segments, then per metric its F1 and threshold.

    `labels` is the 0/1 array or its `Truth`, prepared once for every metric.
    `thresholds` maps each metric to a fixed threshold, or to None for a
    best-F1 sweep. The row's "degenerate" lists the metrics whose F1 the
    all-positive prediction (threshold at the minimum score) reaches: a swept
    best F1 it equals, or a fixed threshold at or below the minimum score,
    which is that prediction. The sweep has counted it at its lowest
    threshold, so a swept metric costs no `f1_at` recount.
    """
    truth = as_truth(labels)
    row = {"segments": len(truth.segments), "degenerate": ()}
    for metric, threshold in thresholds.items():
        if threshold is None:
            threshold, f1, all_positive_f1 = threshold_best_f1(scores, truth, metric)
            degenerate = all_positive_f1 >= f1
        else:
            f1 = f1_at(scores.scores, threshold, truth, metric)
            degenerate = threshold <= scores.scores.min()
        if degenerate:
            row["degenerate"] += (metric,)
        row[f"{metric}_f1"] = f1
        row[f"{metric}_threshold"] = threshold
    return row


def entire_f1s(rows: Sequence[dict], metrics: Sequence[str]) -> dict:
    """Per metric, the segment-weighted F1 of `evaluate` rows, keyed "<metric>_f1"."""
    return {f"{m}_f1": entire_f1([(r["segments"], r[f"{m}_f1"]) for r in rows]) for m in metrics}


def run_fits(cfg: ExperimentConfig,
             fits: Sequence[tuple[TrainConfig, tuple[TimeSeries, TimeSeries]]]) -> list[dict]:
    """Per (arm, `normalize_splits` pair) fit, the `evaluate` row of its labeled test split.

    Fits whose train splits share length and channel count train as one
    `fit` stack, in lockstep, stacks in order of their first fit; then each
    fit is scored with its own model.
    """
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, (_, (train_norm, _)) in enumerate(fits):
        stacks.setdefault((train_norm.length, train_norm.channels), []).append(i)
    rows: list = [None] * len(fits)
    for members in stacks.values():
        results = fit(cfg, [fits[i][1][0] for i in members], [fits[i][0] for i in members])
        for i, result in zip(members, results):
            arm, (train_norm, test_norm) = fits[i]
            mode = resolve_score_mode(cfg.score_mode, arm.loss_kind)
            test_scores, threshold = detect(cfg, result.model, train_norm, test_norm, mode)
            rows[i] = evaluate(test_scores, test_norm.labels,
                               dict.fromkeys(cfg.eval_metrics, threshold))
    return rows


def run_arms(cfg: ExperimentConfig, arms: Sequence[TrainConfig]) -> list[list[dict]]:
    """Per arm, its `run_fits` row on each configured dataset.

    Every dataset is read, checked for test labels and normalized once, and
    their total segment count is checked, before the first model trains. The
    (arm, dataset) fits are independent, so `fan_out` runs them in shares, one
    `run_fits` per share. Each fit's row is the one it gets alone.
    """
    data = []
    for i, ds in enumerate(cfg.datasets):
        train_raw, test_raw = materialize_dataset(cfg, i)
        if test_raw.labels is None:
            raise DataError(f"dataset {ds.name}: evaluation requires test labels")
        data.append(normalize_splits((train_raw, test_raw)))
    segment_total([len(segments_from_labels(test_norm.labels)) for _, test_norm in data])
    fits = [(arm, pair) for arm in arms for pair in data]
    rows = fan_out(lambda share: run_fits(cfg, share), fits)
    return [rows[k:k + len(data)] for k in range(0, len(rows), len(data))]


# ---------------------------------------------------------------------------
# file writers
# ---------------------------------------------------------------------------


def write_series_csv(ts: TimeSeries, path, prov: str) -> None:
    header = [f"v{c}" for c in range(ts.channels)]
    row = ",".join(["%.17g"] * ts.channels)
    values = ts.values.tolist()
    if ts.labels is None:
        rows = [row % tuple(v) for v in values]
    else:
        header.append("label")
        row += ",%d"
        rows = [row % (*v, lab) for v, lab in zip(values, ts.labels.tolist())]
    write_text(path, "\n".join([prov, ",".join(header), *rows]) + "\n")


def write_scores_csv(scores: ScoreSeries, path, prov: str) -> None:
    lines = [prov, "index,score"]
    lines.extend("%d,%.17g" % row for row in enumerate(scores.scores.tolist()))
    write_text(path, "\n".join(lines) + "\n")


def read_scores_csv(path, inputs: Optional[dict] = None) -> np.ndarray:
    """The score column of a score CSV written by `write_scores_csv`; `inputs` as `read_bytes`'s."""
    return load_columns(path, ["score"], None, inputs)[0][:, 0]


def read_labels_csv(path, label_column: str, inputs: Optional[dict] = None) -> np.ndarray:
    """Just the 0/1 label column of a labeled series CSV; no other column is parsed."""
    return load_columns(path, [], label_column, inputs)[1]


def write_segments_csv(segments: np.ndarray, path, prov: str) -> None:
    lines = [prov, "start,end"]
    lines.extend(f"{start},{end}" for start, end in segments.tolist())
    write_text(path, "\n".join(lines) + "\n")


def write_history_csv(result: TrainResult, path, prov: str) -> None:
    lines = [prov, ",".join(["epoch", *result.history[0]])]
    lines.extend(",".join([str(i), *map(_fmt, row.values())])
                 for i, row in enumerate(result.history))
    write_text(path, "\n".join(lines) + "\n")


def write_table(rows: list[dict], columns: list[str], csv_path, txt_path, prov: str,
                notes: Sequence[str] = ()) -> None:
    """One table as full-precision CSV plus an aligned plain-text rendering, `notes` under it."""
    csv_lines = [prov, ",".join(columns)]
    for row in rows:
        csv_lines.append(",".join(_cell(row.get(c, "")) for c in columns))
    write_text(csv_path, "\n".join(csv_lines) + "\n")

    display = [[_pretty(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in display)) if display else len(c)
              for i, c in enumerate(columns)]
    txt_lines = [prov, "  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in display:
        txt_lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    write_text(txt_path, "\n".join([*txt_lines, *notes]) + "\n")


def degenerate_notes(labeled_rows) -> list[str]:
    """One `note:` line per degenerate F1 of each (label, `evaluate` row), for `write_table`."""
    return [f"note: {label} {m}_f1={row[f'{m}_f1']:.6f} {DEGENERATE}"
            for label, row in labeled_rows for m in row["degenerate"]]


def _metric_columns(metrics: Sequence[str]) -> list[str]:
    return [c for m in metrics for c in (f"{m}_f1", f"{m}_threshold")]


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _pretty(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_synth(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    """Write train/test CSVs per synthetic dataset plus one manifest."""
    indices = [i for i, d in enumerate(cfg.datasets) if d.source == "synth"]
    if not indices:
        raise ConfigError("cmd synth needs at least one dataset with source 'synth'")
    splits = [materialize_dataset(cfg, i) for i in indices]  # fails before any output
    _make_outdir(outdir)
    written = []
    manifest = {"config_hash": cfg.hash, "seed": cfg.seed, "datasets": []}
    for i, (train_ts, test_ts) in zip(indices, splits):
        ds = cfg.datasets[i]
        train_path = outdir / f"{ds.name}_train.csv"
        test_path = outdir / f"{ds.name}_test.csv"
        write_series_csv(train_ts, train_path, provenance(cfg, dataset=ds.name, split="train"))
        write_series_csv(test_ts, test_path, provenance(cfg, dataset=ds.name, split="test"))
        written += [train_path, test_path]
        manifest["datasets"].append({
            **asdict(ds.synth.generator),  # name, seed, length, noise_sigma, channels
            "train_fraction": ds.synth.train_fraction,
            "anomalies": [asdict(spec) for spec in ds.synth.anomalies],
            "train_csv": train_path.name,
            "test_csv": test_path.name,
        })
    manifest_path = outdir / "manifest.json"
    write_text(manifest_path,
               json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return written + [manifest_path]


def run_train_cmd(cfg: ExperimentConfig, outdir: Path) -> tuple[Path, Path]:
    """Train on the first configured dataset; emit checkpoint and history."""
    ds = cfg.datasets[0]
    train_raw = materialize_train(cfg, 0)
    train_norm = apply_normalization(train_raw, fit_normalization(train_raw))
    del train_raw  # only the normalized copy stays live through training
    [result] = fit(cfg, [train_norm], [cfg.train])
    _make_outdir(outdir)
    ckpt_path = outdir / f"{ds.name}_model.ckpt"
    save_checkpoint(result.model, ckpt_path,
                    meta={"config": cfg.hash, "seed": str(cfg.seed), "loss": cfg.train.loss_kind})
    hist_path = outdir / f"{ds.name}_history.csv"
    write_history_csv(result, hist_path, provenance(cfg, dataset=ds.name, loss=cfg.train.loss_kind))
    return ckpt_path, hist_path


def run_detect_cmd(cfg: ExperimentConfig, checkpoint: Path, outdir: Path) -> dict:
    """Score the first dataset's test split and threshold it.

    "auto" scoring follows the checkpoint's `loss` line, else the configured loss.
    """
    ds = cfg.datasets[0]
    model, meta = load_checkpoint(checkpoint)
    loss_kind = meta.get("loss", cfg.train.loss_kind)
    if loss_kind not in LOSS_KINDS:
        raise CheckpointError(f"{checkpoint}: loss must be one of {LOSS_KINDS}, got {loss_kind!r}")
    train_raw, test_raw = materialize_dataset(cfg, 0)
    t = cfg.window_length
    if model.input_size != t * train_raw.channels:
        raise CheckpointError(
            f"checkpoint expects input size {model.input_size}, "
            f"configuration implies {t * train_raw.channels}"
        )
    mode = resolve_score_mode(cfg.score_mode, loss_kind)
    train_norm, test_norm = normalize_splits((train_raw, test_raw))
    test_scores, threshold = detect(cfg, model, train_norm, test_norm, mode)
    degenerate = False
    if threshold is None:  # best_f1 mode
        metric = cfg.threshold_metric
        row = evaluate(test_scores, test_norm.labels, {metric: None})
        threshold, degenerate = row[f"{metric}_threshold"], metric in row["degenerate"]
    flagged = (test_scores.scores >= threshold).astype(np.int64)
    predicted_segments = segments_from_labels(flagged)

    _make_outdir(outdir)
    scores_path = outdir / f"{ds.name}_scores.csv"
    write_scores_csv(test_scores, scores_path, provenance(cfg, dataset=ds.name, mode=mode))
    segments_path = outdir / f"{ds.name}_segments.csv"
    write_segments_csv(predicted_segments, segments_path,
                       provenance(cfg, dataset=ds.name, threshold=_fmt(threshold)))
    summary = {
        "config_hash": cfg.hash,
        "seed": cfg.seed,
        "dataset": ds.name,
        "mode": mode,
        "threshold_mode": cfg.threshold_mode,
        "threshold": threshold,
        "flagged_share": float(flagged.mean()),
        # the threshold flags every point, or its F1 is the all-positive prediction's
        "degenerate": degenerate or bool(flagged.all()),
        "scores_csv": scores_path.name,
        "segments_csv": segments_path.name,
    }
    # JSON has no infinity: a best-F1 sweep that finds no F1 above 0 writes null
    written = {**summary, "threshold": threshold if np.isfinite(threshold) else None}
    write_text(outdir / f"{ds.name}_detect.json",
               json.dumps(written, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return summary


def run_eval_cmd(
    scores: Sequence,
    data: Sequence,
    metrics: Sequence[str],
    outdir: Path,
    label_column: str,
    thresholds: Optional[list[float]] = None,
) -> list[dict]:
    """Per-sub-dataset F1s plus the segment-weighted entire-dataset F1s.

    `scores[i]` and `data[i]` are the paths of pair i. With explicit
    `thresholds` (one per pair, or a single broadcast value) each metric is
    evaluated at that fixed threshold; otherwise a best-F1 sweep runs per
    metric. Before any file is read, a pair count mismatch, a repeated
    metric, a NaN threshold or a wrong threshold count raises ConfigError.
    Each distinct path is opened once, however many pairs name it, and each
    data path's labels are parsed and prepared for the sweeps once. The
    provenance line's digest is `_eval_digest` of the bytes parsed. Returns
    the rows of `report.csv`: one `evaluate` row per sub-dataset, named after
    its data file, and the ENTIRE row last.
    """
    if len(scores) != len(data):
        raise ConfigError("--scores and --data must be given the same number of times")
    if len(set(metrics)) != len(metrics):
        raise ConfigError(f"--metric repeats a metric: {list(metrics)}")
    if any(math.isnan(t) for t in thresholds or ()):
        raise ConfigError("--threshold must be a number or +/-inf, got nan")
    pairs = [(Path(s), Path(d)) for s, d in zip(scores, data)]
    if thresholds is not None and len(thresholds) == 1:
        thresholds = thresholds * len(pairs)
    if thresholds is not None and len(thresholds) != len(pairs):
        raise ConfigError("need one threshold per scores/data pair (or a single value)")
    rows = []
    inputs: dict = {}  # path -> its bytes, for `read_bytes`
    truth_of: dict = {}  # data path -> the `Truth` of its label column
    for i, (scores_path, data_path) in enumerate(pairs):
        column = read_scores_csv(scores_path, inputs)
        if data_path not in truth_of:
            truth_of[data_path] = as_truth(read_labels_csv(data_path, label_column, inputs))
        truth = truth_of[data_path]
        if truth.labels.shape != column.shape:
            raise DataError(f"{data_path}: labels misaligned with {scores_path}")
        threshold = None if thresholds is None else thresholds[i]
        rows.append({"name": data_path.stem,
                     **evaluate(ScoreSeries(column), truth, dict.fromkeys(metrics, threshold))})
    entire = {"name": "ENTIRE", "segments": sum(r["segments"] for r in rows),
              **entire_f1s(rows, metrics)}
    digest = _eval_digest([inputs[p] for p in [*(s for s, _ in pairs), *(d for _, d in pairs)]],
                         metrics, thresholds, label_column)
    for row in rows:  # a data file's name need not be text the report can hold
        encode(outdir / "report.csv", row["name"])
    _make_outdir(outdir)
    write_table([*rows, entire], ["name", "segments", *_metric_columns(metrics)],
                outdir / "report.csv", outdir / "report.txt", f"# config=eval-{digest} seed=0",
                degenerate_notes((r["name"], r) for r in rows))
    return [*rows, entire]


def _eval_digest(contents: Sequence[bytes], metrics: Sequence[str],
                thresholds: Optional[Sequence[float]], label_column: str) -> str:
    """12 hex digits of a SHA-256 of what `report.csv` depends on, not of where it lives.

    That is every input file's bytes, each after its length so that no two
    lists of files hash alike, then the metrics in order, the threshold of
    each pair (None for the sweep) as `%.17g`, and the label column.
    """
    digest = hashlib.sha256()
    for raw in contents:
        digest.update(b"%d:" % len(raw))
        digest.update(raw)
    settings = {"metrics": list(metrics), "label_column": label_column,
                "thresholds": None if thresholds is None else [_fmt(t) for t in thresholds]}
    digest.update(json.dumps(settings, sort_keys=True).encode())
    return digest.hexdigest()[:12]


@dataclass
class CompareOutcome:
    per_arm_dataset: list[dict]  # arm, dataset, segments, <metric>_f1...
    summary: list[dict]  # arm, metric, entire_f1, avg_improved, air


def run_compare(cfg: ExperimentConfig, outdir: Optional[Path] = None) -> CompareOutcome:
    """Train one model per (loss arm, dataset) with shared seeds and compare.

    The baseline is the first "mse" arm; Avg.Improved and A.I.R. are computed
    per arm against it from the per-dataset F1 columns.
    """
    losses = cfg.compare_losses
    if len(losses) < 2:
        raise ConfigError("cmd compare needs at least two loss entries")
    if "mse" not in losses:
        raise ConfigError("cmd compare requires 'mse' among the losses (the baseline)")
    labels = [f"{loss}#{k + 1}" if (k := losses[:j].count(loss)) else loss
              for j, loss in enumerate(losses)]
    arm_rows = run_arms(cfg, cfg.compare_arms)
    base_rows = arm_rows[losses.index("mse")]
    per_arm_dataset = [{"arm": label, "dataset": ds.name, **row}
                       for label, rows in zip(labels, arm_rows)
                       for ds, row in zip(cfg.datasets, rows)]

    summary = []
    for label, rows in zip(labels, arm_rows):
        entire = entire_f1s(rows, cfg.eval_metrics)
        for metric in cfg.eval_metrics:
            row = {"arm": label, "metric": metric, "entire_f1": entire[f"{metric}_f1"],
                   "avg_improved": "", "air": ""}
            if rows is not base_rows:
                f1s = [r[f"{metric}_f1"] for r in rows]
                base = [r[f"{metric}_f1"] for r in base_rows]
                row["avg_improved"] = avg_improved(f1s, base)
                row["air"] = air(f1s, base)
            summary.append(row)

    if outdir is not None:
        _make_outdir(outdir)
        write_table(per_arm_dataset, ["arm", "dataset", "segments",
                                       *_metric_columns(cfg.eval_metrics)],
                    outdir / "comparison.csv", outdir / "comparison.txt", provenance(cfg),
                    degenerate_notes((f"{r['arm']} {r['dataset']}", r) for r in per_arm_dataset))
        write_table(summary, ["arm", "metric", "entire_f1", "avg_improved", "air"],
                    outdir / "improvement.csv", outdir / "improvement.txt", provenance(cfg))
    return CompareOutcome(per_arm_dataset=per_arm_dataset, summary=summary)


ABLATION_SUBSETS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, 1, 1),
)


def run_ablate(cfg: ExperimentConfig, outdir: Optional[Path] = None) -> list[dict]:
    """Evaluate the 7 non-empty component subsets by zeroing excluded weights."""
    base = cfg.train.weights
    lambdas = (base.lambda1, base.lambda2, base.lambda3)
    if not all(v > 0 for v in lambdas):  # a subset keeping only zero weights has no objective
        raise ConfigError("cmd ablate needs every loss weight positive, got "
                          f"(lambda1, lambda2, lambda3) = {lambdas}")
    arms = [replace(cfg.train, loss_kind="strad",
                    weights=replace(base, lambda1=base.lambda1 if use_trend else 0.0,
                                    lambda2=base.lambda2 if use_sea else 0.0,
                                    lambda3=base.lambda3 if use_shape else 0.0))
            for use_trend, use_sea, use_shape in ABLATION_SUBSETS]
    rows, notes = [], []
    for (use_trend, use_sea, use_shape), arm_rows in zip(ABLATION_SUBSETS, run_arms(cfg, arms)):
        row = {"trend": use_trend, "seasonality": use_sea, "shape": use_shape}
        entire = entire_f1s(arm_rows, cfg.eval_metrics)
        for metric in cfg.eval_metrics:
            for ds, r in zip(cfg.datasets, arm_rows):
                row[f"{metric}_f1_{ds.name}"] = r[f"{metric}_f1"]
            row[f"entire_{metric}_f1"] = entire[f"{metric}_f1"]
        rows.append(row)
        notes += [(f"T={use_trend} S={use_sea} Sh={use_shape} {ds.name}", r)
                  for ds, r in zip(cfg.datasets, arm_rows)]
    if outdir is not None:
        _make_outdir(outdir)
        columns = ["trend", "seasonality", "shape"]
        columns += [f"entire_{m}_f1" for m in cfg.eval_metrics]
        for ds in cfg.datasets:
            columns += [f"{m}_f1_{ds.name}" for m in cfg.eval_metrics]
        write_table(rows, columns, outdir / "ablation.csv", outdir / "ablation.txt",
                    provenance(cfg), degenerate_notes(notes))
    return rows
