"""Experiment pipelines behind the CLI: data materialization, train/score/eval,
loss comparisons, and ablations over the objective's component subsets.

Every output file embeds the resolved-config hash and the seed on a leading
'#' comment line; CSV numbers are written with 17 significant digits so runs
are reproducible byte for byte and parse back exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .detector import (
    ScoreSeries,
    TrainResult,
    f1_at,
    score,
    threshold_best_f1,
    threshold_quantile,
    train,
)
from .errors import CheckpointError, ConfigError, DataError
from .losses import LossWeights
from .metrics import air, avg_improved, entire_f1
from .model import (
    DenseAutoencoder,
    default_layer_sizes,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .series import (
    Segment,
    TimeSeries,
    apply_normalization,
    fit_normalization,
    load_csv,
    segments_from_labels,
    sliding_windows,
)
from .synth import make_benchmark


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


def resolve_score_mode(configured: str, loss_kind: str) -> str:
    """"auto" pairs each objective with its own discrepancy measure."""
    if configured != "auto":
        return configured
    return "shape_only" if loss_kind == "mse" else "strad_broadcast"


# ---------------------------------------------------------------------------
# the pipeline: fit on the train split, detect on the test split
# ---------------------------------------------------------------------------


def fit(
    cfg: ExperimentConfig,
    train_raw: TimeSeries,
    loss_kind: Optional[str] = None,
    weights: Optional[LossWeights] = None,
) -> TrainResult:
    """Normalize the train split, window it, and train a model seeded by `cfg.seed`."""
    train_norm = apply_normalization(train_raw, fit_normalization(train_raw))
    t = cfg.window_length
    windows = sliding_windows(train_norm, t, cfg.train_stride)
    model = init_model(default_layer_sizes(t * train_norm.channels, cfg.model_hidden),
                       seed=cfg.seed)
    return train(model, windows, replace(cfg.train, loss_kind=loss_kind or cfg.train_loss,
                                         weights=weights or cfg.loss_weights))


def detect(
    cfg: ExperimentConfig,
    model: DenseAutoencoder,
    train_raw: TimeSeries,
    test_raw: TimeSeries,
    mode: str,
    weights: LossWeights,
    metrics: Sequence[str],
) -> tuple[ScoreSeries, dict]:
    """Score the test split and choose one threshold per metric.

    Both splits are normalized with the train split's statistics. "quantile"
    mode gives every metric the q-quantile of the train-split scores;
    "best_f1" mode gives every metric None, for `evaluate` to sweep on the
    labeled test scores.
    """
    stats = fit_normalization(train_raw)

    def scores_of(series: TimeSeries) -> ScoreSeries:
        return score(model, apply_normalization(series, stats), cfg.window_length,
                     cfg.score_stride, weights, mode)

    test_scores = scores_of(test_raw)
    if cfg.threshold_mode == "quantile":
        threshold = threshold_quantile(scores_of(train_raw), cfg.threshold_q)
        return test_scores, {metric: threshold for metric in metrics}
    if test_raw.labels is None:
        raise DataError(f"{test_raw.name}: best_f1 thresholding requires test labels")
    return test_scores, dict.fromkeys(metrics)


def evaluate(scores: ScoreSeries, labels: np.ndarray, thresholds: dict) -> dict:
    """The report row of one labeled series: segments, then per metric its F1 and threshold.

    `thresholds` maps each metric to a fixed threshold, or to None for a
    best-F1 sweep. The row's "degenerate" lists the swept metrics whose best
    F1 the all-positive prediction (threshold at the minimum score) already
    reaches.
    """
    segments = segments_from_labels(labels)
    row = {"segments": len(segments), "degenerate": ()}
    for metric, threshold in thresholds.items():
        if threshold is None:
            threshold, f1 = threshold_best_f1(scores, labels, metric)
            if f1_at(scores.scores, scores.scores.min(), labels, segments, metric) >= f1:
                row["degenerate"] += (metric,)
        else:
            f1 = f1_at(scores.scores, threshold, labels, segments, metric)
        row[f"{metric}_f1"] = f1
        row[f"{metric}_threshold"] = threshold
    return row


def run_arm(
    cfg: ExperimentConfig,
    dataset_index: int,
    loss_kind: str,
    data: tuple[TimeSeries, TimeSeries],
    weights: Optional[LossWeights] = None,
) -> dict:
    """Train one model on `data`'s train split; the `evaluate` row of its test split."""
    weights = weights or cfg.loss_weights
    train_raw, test_raw = data
    if test_raw.labels is None:
        raise DataError(f"dataset {cfg.datasets[dataset_index].name}: evaluation requires test labels")
    result = fit(cfg, train_raw, loss_kind, weights)
    mode = resolve_score_mode(cfg.score_mode, loss_kind)
    test_scores, thresholds = detect(cfg, result.model, train_raw, test_raw, mode, weights,
                                     cfg.eval_metrics)
    return evaluate(test_scores, test_raw.labels, thresholds)


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
    Path(path).write_text("\n".join([prov, ",".join(header), *rows]) + "\n")


def write_scores_csv(scores: ScoreSeries, path, prov: str) -> None:
    lines = [prov, "index,score"]
    lines.extend("%d,%.17g" % row for row in enumerate(scores.scores.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores_csv(path) -> np.ndarray:
    """The score column of a score CSV written by `write_scores_csv`."""
    return load_csv(path, ["score"]).values[:, 0]


def read_labels_csv(path, label_column: str = "label") -> np.ndarray:
    """Just the 0/1 label column of a labeled series CSV."""
    return load_csv(path, [label_column], label_column).labels


def write_segments_csv(segments: Sequence[Segment], path, prov: str) -> None:
    lines = [prov, "start,end"]
    lines.extend(f"{s.start},{s.end}" for s in segments)
    Path(path).write_text("\n".join(lines) + "\n")


def write_history_csv(result: TrainResult, path, prov: str) -> None:
    with_components = result.history and result.history[0].trend is not None
    lines = [prov]
    if with_components:
        lines.append("epoch,total,trend,seasonality,shape")
        for i, e in enumerate(result.history):
            lines.append(f"{i},{_fmt(e.total)},{_fmt(e.trend)},{_fmt(e.seasonality)},{_fmt(e.shape)}")
    else:
        lines.append("epoch,total")
        for i, e in enumerate(result.history):
            lines.append(f"{i},{_fmt(e.total)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_table(rows: list[dict], columns: list[str], csv_path, txt_path, prov: str) -> None:
    """One table as full-precision CSV plus an aligned plain-text rendering."""
    csv_lines = [prov, ",".join(columns)]
    for row in rows:
        csv_lines.append(",".join(_cell(row.get(c, "")) for c in columns))
    Path(csv_path).write_text("\n".join(csv_lines) + "\n")

    display = [[_pretty(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in display)) if display else len(c)
              for i, c in enumerate(columns)]
    txt_lines = [prov, "  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in display:
        txt_lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    Path(txt_path).write_text("\n".join(txt_lines) + "\n")


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
    _make_outdir(outdir)
    written = []
    manifest = {"config_hash": cfg.hash, "seed": cfg.seed, "datasets": []}
    for i in indices:
        ds = cfg.datasets[i]
        train_ts, test_ts = materialize_dataset(cfg, i)
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
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written + [manifest_path]


def run_train_cmd(cfg: ExperimentConfig, outdir: Path) -> tuple[Path, Path]:
    """Train on the first configured dataset; emit checkpoint and history."""
    ds = cfg.datasets[0]
    train_raw, _ = materialize_dataset(cfg, 0)
    result = fit(cfg, train_raw)
    _make_outdir(outdir)
    ckpt_path = outdir / f"{ds.name}_model.ckpt"
    save_checkpoint(result.model, ckpt_path, meta={"config": cfg.hash, "seed": str(cfg.seed)})
    hist_path = outdir / f"{ds.name}_history.csv"
    write_history_csv(result, hist_path, provenance(cfg, dataset=ds.name, loss=cfg.train_loss))
    return ckpt_path, hist_path


def run_detect_cmd(cfg: ExperimentConfig, checkpoint: Path, outdir: Path) -> dict:
    """Score the first dataset's test split and threshold it."""
    ds = cfg.datasets[0]
    model, _ = load_checkpoint(checkpoint)
    train_raw, test_raw = materialize_dataset(cfg, 0)
    t = cfg.window_length
    if model.input_size != t * train_raw.channels:
        raise CheckpointError(
            f"checkpoint expects input size {model.input_size}, "
            f"configuration implies {t * train_raw.channels}"
        )
    mode = resolve_score_mode(cfg.score_mode, cfg.train_loss)
    test_scores, thresholds = detect(cfg, model, train_raw, test_raw, mode, cfg.loss_weights,
                                     (cfg.threshold_metric,))
    threshold = thresholds[cfg.threshold_metric]
    if threshold is None:  # best_f1 mode
        threshold = evaluate(test_scores, test_raw.labels,
                             thresholds)[f"{cfg.threshold_metric}_threshold"]
    predicted_segments = segments_from_labels((test_scores.scores >= threshold).astype(np.int64))

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
        "scores_csv": scores_path.name,
        "segments_csv": segments_path.name,
    }
    (outdir / f"{ds.name}_detect.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_eval_cmd(
    pairs: list[tuple[Path, Path]],
    metrics: Sequence[str],
    outdir: Path,
    label_column: str = "label",
    thresholds: Optional[list[float]] = None,
    prov: str = "# config=adhoc seed=0",
) -> list[dict]:
    """Per-sub-dataset F1s plus the segment-weighted entire-dataset F1s.

    With explicit `thresholds` (one per pair, or a single broadcast value)
    each metric is evaluated at that fixed threshold; otherwise a best-F1
    sweep runs per metric. Returns the rows of `report.csv`: one `evaluate`
    row per sub-dataset, named after its data file, and the ENTIRE row last.
    """
    if thresholds is not None and len(thresholds) == 1:
        thresholds = thresholds * len(pairs)
    if thresholds is not None and len(thresholds) != len(pairs):
        raise ConfigError("need one threshold per scores/data pair (or a single value)")
    rows = []
    for i, (scores_path, data_path) in enumerate(pairs):
        scores = read_scores_csv(scores_path)
        labels = read_labels_csv(data_path, label_column)
        if labels.shape[0] != scores.shape[0]:
            raise DataError(f"{data_path}: labels misaligned with {scores_path}")
        threshold = None if thresholds is None else thresholds[i]
        rows.append({"name": Path(data_path).stem,
                     **evaluate(ScoreSeries(scores), labels, dict.fromkeys(metrics, threshold))})
    entire = {"name": "ENTIRE", "segments": sum(r["segments"] for r in rows)}
    for metric in metrics:
        entire[f"{metric}_f1"] = entire_f1([(r["segments"], r[f"{metric}_f1"]) for r in rows])
    _make_outdir(outdir)
    write_table([*rows, entire], ["name", "segments", *_metric_columns(metrics)],
                outdir / "report.csv", outdir / "report.txt", prov)
    notes = [f"note: {r['name']} {m}_f1={r[f'{m}_f1']:.6f} {DEGENERATE}\n"
             for r in rows for m in r["degenerate"]]
    with open(outdir / "report.txt", "a") as fh:
        fh.writelines(notes)
    return [*rows, entire]


@dataclass
class CompareOutcome:
    per_arm_dataset: list[dict]  # arm, dataset, segments, <metric>_f1...
    summary: list[dict]  # arm, metric, entire_f1, avg_improved, air


def run_compare(cfg: ExperimentConfig, outdir: Optional[Path] = None) -> CompareOutcome:
    """Train one model per (loss arm, dataset) with shared seeds and compare.

    The baseline is the first "mse" arm; Avg.Improved and A.I.R. are computed
    per arm against it from the per-dataset F1 columns.
    """
    arms = list(cfg.compare_losses)
    if len(arms) < 2:
        raise ConfigError("cmd compare needs at least two loss entries")
    if "mse" not in arms:
        raise ConfigError("cmd compare requires 'mse' among the losses (the baseline)")
    labels: list[str] = []
    seen: dict = {}
    for loss in arms:
        seen[loss] = seen.get(loss, 0) + 1
        labels.append(loss if seen[loss] == 1 else f"{loss}#{seen[loss]}")
    baseline_label = labels[arms.index("mse")]

    rows: dict = {}  # label -> one row per dataset
    for i, ds in enumerate(cfg.datasets):
        data = materialize_dataset(cfg, i)
        for loss, label in zip(arms, labels):
            rows.setdefault(label, []).append(
                {"arm": label, "dataset": ds.name, **run_arm(cfg, i, loss, data)})
    per_arm_dataset = [row for label in labels for row in rows[label]]

    summary = []
    for label in labels:
        for metric in cfg.eval_metrics:
            key = f"{metric}_f1"
            f1s = [r[key] for r in rows[label]]
            base = [r[key] for r in rows[baseline_label]]
            weighted = entire_f1([(r["segments"], r[key]) for r in rows[label]])
            row = {"arm": label, "metric": metric, "entire_f1": weighted}
            if label == baseline_label:
                row["avg_improved"] = ""
                row["air"] = ""
            else:
                row["avg_improved"] = avg_improved(f1s, base)
                row["air"] = air(f1s, base)
            summary.append(row)

    if outdir is not None:
        _make_outdir(outdir)
        write_table(per_arm_dataset, ["arm", "dataset", "segments",
                                       *_metric_columns(cfg.eval_metrics)],
                    outdir / "comparison.csv", outdir / "comparison.txt", provenance(cfg))
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
    base = cfg.loss_weights
    rows = []
    data = [materialize_dataset(cfg, i) for i in range(len(cfg.datasets))]
    for use_trend, use_sea, use_shape in ABLATION_SUBSETS:
        weights = replace(base, lambda1=base.lambda1 if use_trend else 0.0,
                          lambda2=base.lambda2 if use_sea else 0.0,
                          lambda3=base.lambda3 if use_shape else 0.0)
        row = {"trend": use_trend, "seasonality": use_sea, "shape": use_shape}
        arm_rows = [run_arm(cfg, i, "strad", data[i], weights) for i in range(len(cfg.datasets))]
        for metric in cfg.eval_metrics:
            for ds, r in zip(cfg.datasets, arm_rows):
                row[f"{metric}_f1_{ds.name}"] = r[f"{metric}_f1"]
            row[f"entire_{metric}_f1"] = entire_f1(
                [(r["segments"], r[f"{metric}_f1"]) for r in arm_rows])
        rows.append(row)
    if outdir is not None:
        _make_outdir(outdir)
        columns = ["trend", "seasonality", "shape"]
        columns += [f"entire_{m}_f1" for m in cfg.eval_metrics]
        for ds in cfg.datasets:
            columns += [f"{m}_f1_{ds.name}" for m in cfg.eval_metrics]
        write_table(rows, columns, outdir / "ablation.csv", outdir / "ablation.txt",
                    provenance(cfg))
    return rows
