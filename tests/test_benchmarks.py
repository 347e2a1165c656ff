import json
import subprocess
import sys
from pathlib import Path

from strad.benchmarks import pattern_benchmark_config
from strad.config import build, config_hash, resolve
from strad.experiments import materialize_dataset

REPO = Path(__file__).resolve().parents[1]


def test_config_builds_and_materializes():
    cfg = build(resolve(pattern_benchmark_config(seed=1, length=1000, epochs=2)))
    assert [d.name for d in cfg.datasets] == ["shapelet", "seasonal", "trend", "mixed"]
    train, test = materialize_dataset(cfg, 1)
    assert train.length == 500 and test.length == 1000
    assert test.labels.sum() == 8 * 80  # eight pattern segments

def test_mixed_dataset_has_point_and_pattern_kinds():
    doc = pattern_benchmark_config()
    kinds = {a["kind"] for a in doc["datasets"][3]["synth"]["anomalies"]}
    assert "global_point" in kinds and "seasonal_pattern" in kinds


def test_committed_config_in_sync():
    # the README's example config is the generator's default plus its output directory
    committed = json.loads((REPO / "configs" / "pattern_benchmark.json").read_text())
    assert committed == {**pattern_benchmark_config(), "output_dir": "out/pattern"}


# A changed default moves these hashes, and with them every output file's
# provenance line: such a change must show here, not pass unnoticed.
def test_default_config_hash_is_pinned():
    assert config_hash(resolve({})) == "fcdd0e6fce1a"


def test_committed_config_hash_is_pinned():
    committed = json.loads((REPO / "configs" / "pattern_benchmark.json").read_text())
    assert config_hash(resolve(committed)) == "62eb22881be1"


def test_scripts_run():
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_pattern_benchmark.py"),
         "--seeds", "1", "--epochs", "1", "--length", "1000"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "entire" in result.stdout
