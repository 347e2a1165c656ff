"""Smoke test of the benchmark at tiny size; no assertion depends on timing.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import Target, Tracer, _rows  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    env = json.loads(lines[0])["env"]
    assert env["strad_lines"] > 0 and env["nproc"] >= 1
    report = json.loads(lines[-2])["report"]
    assert report["fail_ratio"] == 0.0
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_absent_target_is_reported_not_fatal():
    import numpy as np
    import strad.detector
    from strad.model import init_model

    tracer = Tracer((
        Target("strad.spectral._renamed_away", "spectral.transform"),
        Target("strad.no_such_module.fn", "synth.generate"),
        Target("strad.detector.forward_batch", "model.forward", _rows),
    ))
    tracer.install()
    with tracer.op(0):
        strad.detector.forward_batch(init_model((4, 2, 4)), np.zeros((3, 4)))
    tracer.uninstall()
    assert tracer.absent == ["strad.spectral._renamed_away", "strad.no_such_module.fn"]
    metrics, missing = tracer.layer_metrics(overhead_ratio=1.0)
    assert "spectral.transform_s" in missing and "spectral.transform_s" not in metrics
    assert "synth.generate_s" in missing
    assert metrics["model.forward_rows"] == (3.0, "count/op")
    assert not hasattr(strad.detector.forward_batch, "__wrapped__")  # original restored


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compare",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
