"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines, or
plain `pytest -v` to rely on the test verdicts.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from strad.benchmarks import pattern_benchmark_config
from strad.cli import main
from strad.config import build, resolve
from strad.experiments import run_compare
from strad.gradcheck import run_all
from strad.losses import (_pair_weights, _transform, dft_naive, seasonality_batch, shape_batch,
                          trend_batch)
from strad.metrics import air, avg_improved, entire_f1, pa_counts, rpa_counts
from strad.series import segments_from_labels

from test_metrics import brute_pa, brute_rpa
from test_spectral import full_spectrum


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}", flush=True)
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_gradient_soundness():
    start = time.monotonic()
    results = run_all(seed=0, n_windows=100, n_models=10, layer_sizes=(4, 3, 2, 3, 4))
    elapsed = time.monotonic() - start
    worst = {r.component: r.max_rel_error for r in results}
    ok = all(r.passed for r in results) and elapsed < 60.0
    report(1, "gradient soundness", ok,
           f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_2_spectral_oracle():
    rng = np.random.default_rng(2024)
    worst_fft = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        x = rng.uniform(-1, 1, size=n)
        # all n bins of the oracle: the upper ones as conjugates of the half spectrum's
        delta = np.abs(full_spectrum(_transform(x), n) - dft_naive(x))
        worst_fft = max(worst_fft, float(delta.max()))
    worst_rt = 0.0
    worst_parseval = 0.0
    for n in list(range(1, 65)) + [100, 128, 200, 255, 256]:
        x = rng.uniform(-1, 1, size=n)
        spec = _transform(x)
        worst_rt = max(worst_rt, float(np.abs(np.fft.irfft(spec, n) - x).max()))
        energy = float(np.sum(_pair_weights(n) * np.abs(spec) ** 2)) / n
        worst_parseval = max(worst_parseval, abs(float(np.sum(x * x)) - energy))
    ok = worst_fft < 1e-8 and worst_rt < 1e-9 and worst_parseval < 1e-8
    report(2, "spectral oracle", ok,
           f"fft {worst_fft:.1e}, roundtrip {worst_rt:.1e}, parseval {worst_parseval:.1e}")


def test_criterion_3_loss_identity_values():
    rng = np.random.default_rng(3)
    ok = True
    for t, d in ((8, 1), (16, 3), (32, 2)):
        x = rng.normal(size=(1, t, d))  # a one-window stack
        ok &= seasonality_batch(x, x)[0][0] == 0.0
        ok &= shape_batch(x, x)[0][0] == 0.0
        ok &= trend_batch(x, x, 1e-7, "monotone")[0][0] == 0.0
        paper = float(trend_batch(x, x, 1e-7, "negated_log")[0][0])
        ok &= abs(paper - 16.1181) < 1e-3
        ok &= paper == pytest.approx(-math.log(1e-7))
    report(3, "loss identity values", ok)


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        labels = rng.integers(0, 2, size=n).tolist()
        preds = rng.integers(0, 2, size=n).tolist()
        segments = segments_from_labels(labels)
        got = rpa_counts(preds, segments)
        ok &= (got.tp, got.fp, got.fn) == brute_rpa(preds, labels)
        got_pa = pa_counts(preds, labels)
        ok &= (got_pa.tp, got_pa.fp, got_pa.fn) == brute_pa(preds, labels)
        if not ok:
            break
    worked = rpa_counts([0, 1, 0, 0, 1, 1, 0], segments_from_labels([0, 1, 1, 0, 0, 0, 0]))
    ok &= (worked.tp, worked.fp, worked.fn) == (1, 1, 0)
    ok &= worked.f1 == pytest.approx(2 / 3)
    ok &= entire_f1([(2, 0.5), (3, 1.0)]) == pytest.approx(0.8)
    report(4, "metric oracle", ok)


def test_criterion_5_improvement_statistics(tmp_path):
    doc = pattern_benchmark_config(seed=1, length=1200, epochs=3, quantile=0.9,
                                   losses=("mse", "mse"))
    doc["output_dir"] = str(tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["compare", "-c", str(cfg_path)]) == 0

    imp_lines = [l for l in (tmp_path / "out" / "improvement.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
    header = imp_lines[0].split(",")
    imp = [dict(zip(header, l.split(","))) for l in imp_lines[1:]]
    second = [r for r in imp if r["arm"] == "mse#2"]
    ok = bool(second) and all(
        float(r["avg_improved"]) == 0.0 and float(r["air"]) == 0.0 for r in second)

    comp_lines = [l for l in (tmp_path / "out" / "comparison.csv").read_text().splitlines()
                  if l and not l.startswith("#")]
    cheader = comp_lines[0].split(",")
    comp = [dict(zip(cheader, l.split(","))) for l in comp_lines[1:]]
    by_arm = {}
    for row in comp:
        for metric in ("rpa", "pa"):
            by_arm.setdefault((row["arm"], metric), []).append(float(row[f"{metric}_f1"]))
    for row in imp:
        if row["air"] == "":
            continue
        star = by_arm[(row["arm"], row["metric"])]
        base = by_arm[("mse", row["metric"])]
        ok &= float(row["air"]) == air(star, base)
        ok &= float(row["avg_improved"]) == avg_improved(star, base)
    report(5, "improvement statistics", ok)


def test_criterion_6_directional_experiment():
    start = time.monotonic()
    seeds = range(5)
    entire = {"mse": [], "strad": []}
    per_dataset = {("mse", name): [] for name in ("shapelet", "seasonal", "trend", "mixed")}
    per_dataset.update({("strad", name): [] for name in ("shapelet", "seasonal", "trend", "mixed")})
    for seed in seeds:
        cfg = build(resolve(pattern_benchmark_config(seed=seed)))
        outcome = run_compare(cfg)
        f1s = {}
        for row in outcome.per_arm_dataset:
            f1s[(row["arm"], row["dataset"])] = row["rpa_f1"]
            per_dataset[(row["arm"], row["dataset"])].append(row["rpa_f1"])
        for row in outcome.summary:
            if row["metric"] == "rpa":
                entire[row["arm"]].append(row["entire_f1"])
    elapsed = time.monotonic() - start

    median_entire = {arm: float(np.median(v)) for arm, v in entire.items()}
    seasonal = {arm: float(np.median(per_dataset[(arm, "seasonal")])) for arm in ("mse", "strad")}
    trend = {arm: float(np.median(per_dataset[(arm, "trend")])) for arm in ("mse", "strad")}
    ok = (
        median_entire["strad"] >= median_entire["mse"]
        and seasonal["strad"] > seasonal["mse"]
        and trend["strad"] > trend["mse"]
        and elapsed < 600.0
    )
    report(
        6, "directional desk-scale experiment", ok,
        f"entire RPA median strad {median_entire['strad']:.3f} vs mse "
        f"{median_entire['mse']:.3f}; seasonal {seasonal['strad']:.3f} vs "
        f"{seasonal['mse']:.3f}; trend {trend['strad']:.3f} vs {trend['mse']:.3f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_ablation_fidelity(tmp_path):
    doc = pattern_benchmark_config(seed=2, length=1200, epochs=3, quantile=0.9)
    doc["datasets"] = [doc["datasets"][1]]  # single sub-dataset: seasonal
    doc["output_dir"] = str(tmp_path / "ablate")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    assert main(["ablate", "-c", str(cfg_path)]) == 0
    lines = [l for l in (tmp_path / "ablate" / "ablation.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    ok = len(rows) == 7
    full = next(r for r in rows
                if (r["trend"], r["seasonality"], r["shape"]) == ("1", "1", "1"))

    # independent chain: train -> detect -> eval at the detect threshold
    chain_dir = tmp_path / "chain"
    assert main(["train", "-c", str(cfg_path), "-o", str(chain_dir)]) == 0
    assert main(["detect", "-c", str(cfg_path), "-o", str(chain_dir),
                 "--checkpoint", str(chain_dir / "seasonal_model.ckpt")]) == 0
    assert main(["synth", "-c", str(cfg_path), "-o", str(chain_dir)]) == 0
    summary = json.loads((chain_dir / "seasonal_detect.json").read_text())
    assert main(["eval",
                 "--scores", str(chain_dir / "seasonal_scores.csv"),
                 "--data", str(chain_dir / "seasonal_test.csv"),
                 "--threshold", f"{summary['threshold']:.17g}",
                 "-o", str(chain_dir)]) == 0
    eval_lines = [l for l in (chain_dir / "report.csv").read_text().splitlines()
                  if l and not l.startswith("#")]
    eheader = eval_lines[0].split(",")
    erows = [dict(zip(eheader, l.split(","))) for l in eval_lines[1:]]
    eval_row = erows[0]

    # bit-for-bit: identical 17-digit strings in the CSV cells
    ok &= full["rpa_f1_seasonal"] == eval_row["rpa_f1"]
    ok &= full["pa_f1_seasonal"] == eval_row["pa_f1"]
    report(7, "ablation harness fidelity", ok,
           f"full row rpa {full['rpa_f1_seasonal']} == chain {eval_row['rpa_f1']}")


def test_criterion_8_determinism(tmp_path):
    doc = pattern_benchmark_config(seed=3, length=1200, epochs=3)
    doc["datasets"] = doc["datasets"][:2]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    def run_everything(base: Path) -> list[Path]:
        base.mkdir()
        assert main(["synth", "-c", str(cfg_path), "-o", str(base / "synth")]) == 0
        assert main(["train", "-c", str(cfg_path), "-o", str(base / "train")]) == 0
        assert main(["detect", "-c", str(cfg_path), "-o", str(base / "detect"),
                     "--checkpoint", str(base / "train" / "shapelet_model.ckpt")]) == 0
        assert main(["eval",
                     "--scores", str(base / "detect" / "shapelet_scores.csv"),
                     "--data", str(base / "synth" / "shapelet_test.csv"),
                     "-o", str(base / "eval")]) == 0
        assert main(["compare", "-c", str(cfg_path), "-o", str(base / "compare")]) == 0
        assert main(["ablate", "-c", str(cfg_path), "-o", str(base / "ablate")]) == 0
        assert main(["gradcheck", "--windows", "6", "--models", "1",
                     "-o", str(base / "gradcheck.txt")]) == 0
        return sorted(p for p in base.rglob("*") if p.is_file())

    files_a = run_everything(tmp_path / "a")
    files_b = run_everything(tmp_path / "b")
    names_a = [p.relative_to(tmp_path / "a") for p in files_a]
    names_b = [p.relative_to(tmp_path / "b") for p in files_b]
    ok = names_a == names_b
    differing = []
    for rel, pa, pb in zip(names_a, files_a, files_b):
        if pa.read_bytes() != pb.read_bytes():
            differing.append(str(rel))
    ok &= not differing
    report(8, "determinism", ok, f"{len(files_a)} files compared"
           + (f"; differing: {differing}" if differing else ""))
