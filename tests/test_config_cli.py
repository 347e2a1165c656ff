import base64
import builtins
import copy
import errno
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import strad.experiments
import strad.synth
from strad import gradcheck
from strad.cli import _load, build_parser, main
from strad.config import config_hash, load_config, resolve
from strad.errors import ConfigError
from strad.detector import ScoreSeries
from strad.experiments import evaluate, read_scores_csv, run_eval_cmd
from strad.model import (
    DenseAutoencoder,
    default_layer_sizes,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from strad.series import load_csv, segments_from_labels
from strad.synth import generate_base


# a JSON integer beyond float range
HUGE = "1" + "0" * 400

README = Path(__file__).resolve().parents[1] / "README.md"

AIR_DROP_WARNING = "dropping 1 dataset(s) with zero MSE baseline from A.I.R."


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_config(outdir, **extra):
    doc = {
        "seed": 5,
        "output_dir": str(outdir),
        "window": {"length": 16, "train_stride": 8},
        "model": {"hidden": [16, 4]},
        "train": {"epochs": 3, "batch_size": 8, "loss": "strad"},
        "threshold": {"mode": "quantile", "q": 0.99},
        "datasets": [
            {
                "name": "demo",
                "source": "synth",
                "synth": {
                    "length": 600,
                    "noise_sigma": 0.05,
                    "train_fraction": 0.5,
                    "channels": [{"shapelet": "sine", "omega": 0.0625}],
                    "anomalies": [
                        {"kind": "seasonal_pattern", "start": 200, "length": 40, "magnitude": 1.5},
                        {"kind": "global_point", "start": 450, "length": 1, "magnitude": 8.0},
                    ],
                },
            }
        ],
    }
    doc.update(extra)
    return doc


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 0
        assert cfg.window_length == 64
        assert cfg.train_stride == 32  # defaults to half the window
        assert cfg.train.weights.lambda1 == 1.5
        assert cfg.train.weights.lambda2 == 10.0
        assert cfg.train.weights.epsilon == 1e-7

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"windoww": {}})
        with pytest.raises(ConfigError, match="windoww"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, {"loss_weights": {"lambda9": 1.0}})
        with pytest.raises(ConfigError, match="loss_weights.lambda9"):
            load_config(path)

    def test_unknown_dataset_key(self, tmp_path):
        doc = {"datasets": [{"name": "x", "source": "synth", "synth": {"lenght": 5}}]}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="lenght"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        cfg = load_config(path, overrides=["seed=9", "window.length=32",
                                           'train.loss="mse"'])
        assert cfg.seed == 9 and cfg.window_length == 32 and cfg.train.loss_kind == "mse"

    def test_hash_ignores_output_dir(self):
        a = resolve({"output_dir": "x"})
        b = resolve({"output_dir": "y"})
        assert config_hash(a) == config_hash(b)
        c = resolve({"seed": 1})
        assert config_hash(a) != config_hash(c)

    def test_anomaly_outside_test_region_rejected(self, tmp_path):
        doc = small_config(tmp_path)
        doc["datasets"][0]["synth"]["anomalies"].append(
            {"kind": "trend_pattern", "start": 590, "length": 20, "magnitude": 0.1})
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="trend_pattern.*outside test region"):
            load_config(path)

    def test_value_types(self, tmp_path):
        doc = small_config(tmp_path, threshold={"q": 1})  # an int is a number
        doc["datasets"][0]["csv"] = {"label_column": None}  # no label column
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.threshold_q == 1.0 and cfg.datasets[0].csv.label_column is None
        doc["datasets"][0]["csv"] = {"value_columns": None}
        with pytest.raises(ConfigError, match="datasets.0.csv.value_columns"):
            load_config(write_config(tmp_path, doc))

    def test_bad_threshold_q(self, tmp_path):
        path = write_config(tmp_path, {"threshold": {"q": 1.5}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_defaults_table_matches_resolve(self):
        # every row of the README's table whose default is one JSON value in backticks
        section = README.read_text().split("### Configuration keys and defaults")[1]
        section = section.split("\n### ")[0]
        resolved = resolve({})
        checked = []
        for key, cell in re.findall(r"^\| `([\w.]+)` \| `([^`]+)` \|", section, re.MULTILINE):
            try:
                documented = json.loads(cell)
            except ValueError:  # e.g. `1.5 / 10.0 / 1.0`
                continue
            value = resolved
            for part in key.split("."):
                value = value[part]
            assert (type(documented), documented) == (type(value), value), key
            checked.append(key)
        assert len(checked) >= 18, checked


class TestOneHashPerConfig:
    """Two spellings of one configuration hash alike and write the same files."""

    @pytest.mark.parametrize("first,second", [
        (["--seed", "3"], ["--set", "seed=3"]),
        (["--set", "loss_weights.lambda1=2"], ["--set", "loss_weights.lambda1=2.0"]),
        (["--set", "train.lr=1"], ["--set", "train.lr=1.0"]),
    ], ids=["seed_flag", "lambda1", "lr"])
    def test_same_hash_and_same_files(self, tmp_path, first, second):
        cfgp = write_config(tmp_path, small_config(tmp_path / "unused"))
        hashes, trees = [], []
        for k, extra in enumerate((first, second)):
            argv = ["-c", cfgp, *extra]
            hashes.append(_load(build_parser().parse_args(["train", *argv])).hash)
            out = tmp_path / f"run{k}"
            assert main(["synth", *argv, "-o", str(out / "synth")]) == 0
            assert main(["train", *argv, "-o", str(out / "train")]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert hashes[0] == hashes[1]
        assert len(trees[0]) == 5 and trees[0] == trees[1]


class TestCliSynth:
    def test_writes_two_csvs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        assert main(["synth", "-c", cfgp]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["demo_test.csv", "demo_train.csv", "manifest.json"]

    def test_rerun_byte_identical(self, tmp_path):
        cfgp = write_config(tmp_path, small_config(tmp_path / "a"))
        assert main(["synth", "-c", cfgp]) == 0
        assert main(["synth", "-c", cfgp, "-o", str(tmp_path / "b")]) == 0
        for name in ("demo_train.csv", "demo_test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_outputs_load_back(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        main(["synth", "-c", cfgp])
        train = load_csv(out / "demo_train.csv", ["v0"], "label")
        test = load_csv(out / "demo_test.csv", ["v0"], "label")
        assert train.length == 300 and np.all(train.labels == 0)
        assert test.length == 600 and test.labels.sum() == 41

    def test_manifest_regenerates_every_dataset(self, tmp_path):
        from strad.benchmarks import pattern_benchmark_config
        from strad.synth import AnomalySpec, ChannelSpec, GeneratorConfig, make_benchmark

        out = tmp_path / "out"
        doc = pattern_benchmark_config(seed=1, length=1000)
        doc["output_dir"] = str(out)
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["datasets"]) == 4
        for entry in manifest["datasets"]:
            gen = GeneratorConfig(
                length=entry["length"],
                channels=tuple(ChannelSpec(**ch) for ch in entry["channels"]),
                noise_sigma=entry["noise_sigma"], seed=entry["seed"], name=entry["name"])
            specs = [AnomalySpec(**a) for a in entry["anomalies"]]
            train, test = make_benchmark(gen, specs, entry["train_fraction"])
            for split, csv_name in ((train, entry["train_csv"]), (test, entry["test_csv"])):
                written = load_csv(out / csv_name, ["v0"], "label")
                assert np.array_equal(split.values, written.values), entry["name"]
                assert np.array_equal(split.labels, written.labels), entry["name"]

    def test_out_of_region_spec_is_usage_error(self, tmp_path):
        doc = small_config(tmp_path / "out")
        doc["datasets"][0]["synth"]["anomalies"][0]["start"] = 599
        cfgp = write_config(tmp_path, doc)
        assert main(["synth", "-c", cfgp]) == 1

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "..", ".", ""])
    def test_name_that_is_not_a_file_stem_is_usage_error(self, tmp_path, name):
        # the name is the stem of the dataset's files: it must not leave the output directory
        doc = small_config(tmp_path / "esc" / "out")
        doc["datasets"][0]["name"] = name
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 1
        assert not (tmp_path / "esc").exists()

    @pytest.mark.parametrize("command", ["synth", "compare"])
    def test_name_the_outputs_cannot_encode_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          command):
        # the name is written into every output file, so it must survive their encoding
        calls = []
        trainer = strad.experiments.train
        monkeypatch.setattr(strad.experiments, "train",
                            lambda *args: calls.append(args) or trainer(*args))
        doc = small_config(tmp_path / "out")
        doc["datasets"][0]["name"] = "sh\udcffx"
        assert main([command, "-c", write_config(tmp_path, doc)]) == 1
        assert "config error: datasets.0.name: 'sh\\udcffx': cannot encode" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_point_anomaly_without_length_has_length_1(self, tmp_path):
        # an anomaly's defaults are AnomalySpec's; a length of 2 was assumed, so this exited 1
        out = tmp_path / "out"
        doc = small_config(out)
        doc["datasets"][0]["synth"]["anomalies"] = [{"kind": "global_point", "start": 400}]
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["datasets"][0]["anomalies"] == [
            {"kind": "global_point", "start": 400, "length": 1, "magnitude": 1.0, "channel": None}]

    @pytest.mark.parametrize("channel", [1, -1])
    def test_anomaly_channel_outside_channels_is_usage_error(self, tmp_path, capsys, channel):
        doc = small_config(tmp_path / "out")
        doc["datasets"][0]["synth"]["anomalies"][0]["channel"] = channel
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 1
        assert "outside [0, 1)" in capsys.readouterr().err

    def test_no_synth_dataset_is_usage_error_before_output(self, tmp_path, capsys):
        doc = small_config(tmp_path / "out")
        doc["datasets"][0]["source"] = "csv"
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 1
        assert "needs at least one dataset with source 'synth'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCliTrain:
    def test_overflowing_series_exits_2(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        rows = [f"{1e300 * math.sin(i)!r},0" for i in range(600)]
        data.write_text("v0,label\n" + "\n".join(rows) + "\n")
        doc = small_config(tmp_path / "out")
        doc["datasets"] = [{"name": "huge", "source": "csv",
                            "csv": {"train_path": str(data), "test_path": str(data)}}]
        assert main(["train", "-c", write_config(tmp_path, doc)]) == 2
        assert "huge_train: channel 0 has a mean or std that overflows" in capsys.readouterr().err

    def test_missing_csv_leaves_no_output_dir(self, tmp_path, capsys):
        doc = small_config(tmp_path / "out")
        doc["datasets"] = [{"name": "ext", "source": "csv",
                            "csv": {"train_path": str(tmp_path / "missing.csv"),
                                    "test_path": str(tmp_path / "missing.csv")}}]
        assert main(["train", "-c", write_config(tmp_path, doc)]) == 1
        assert "missing.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_history_rows_equal_epochs(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        assert main(["train", "-c", cfgp]) == 0
        lines = [l for l in (out / "demo_history.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "epoch,total,trend,seasonality,shape"
        assert len(lines) - 1 == 3

    def test_mse_history_single_column(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        assert main(["train", "-c", cfgp, "--set", 'train.loss="mse"']) == 0
        lines = (out / "demo_history.csv").read_text().splitlines()
        assert "epoch,total" in lines[1]
        assert "trend" not in lines[1]

    def test_synth_dataset_draws_only_the_train_split(self, tmp_path, monkeypatch):
        lengths = []

        def counting(cfg):
            lengths.append(cfg.length)
            return generate_base(cfg)

        monkeypatch.setattr(strad.synth, "generate_base", counting)
        assert main(["train", "-c", write_config(tmp_path, small_config(tmp_path / "out"))]) == 0
        assert lengths == [300]  # half of the 600-point generation; no test split

    def test_csv_dataset_still_reads_its_test_file(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("v0,label\n" + "".join(f"{math.sin(i / 5)!r},0\n" for i in range(100)))
        doc = small_config(tmp_path / "out")
        doc["datasets"] = [{"name": "ext", "source": "csv",
                            "csv": {"train_path": str(data),
                                    "test_path": str(tmp_path / "missing.csv")}}]
        assert main(["train", "-c", write_config(tmp_path, doc)]) == 1
        assert "missing.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_reproducible(self, tmp_path):
        cfgp = write_config(tmp_path, small_config(tmp_path / "a"))
        assert main(["train", "-c", cfgp]) == 0
        assert main(["train", "-c", cfgp, "-o", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "demo_model.ckpt").read_bytes()
                == (tmp_path / "b" / "demo_model.ckpt").read_bytes())


class TestCliDetect:
    def run_train_detect(self, tmp_path, outname="out", **extra):
        out = tmp_path / outname
        cfgp = write_config(tmp_path, small_config(out, **extra), name=f"{outname}.json")
        assert main(["train", "-c", cfgp]) == 0
        assert main(["detect", "-c", cfgp, "--checkpoint", str(out / "demo_model.ckpt")]) == 0
        return out

    def test_missing_checkpoint_leaves_no_output_dir(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["detect", "-c", cfgp, "--checkpoint", str(tmp_path / "missing.ckpt")]) == 1
        assert "missing.ckpt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_size_other_than_input_exits_2(self, tmp_path, capsys):
        # input 16 matches the window, so only the layer-size check stands in the way
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(DenseAutoencoder((16, 4, 8), np.zeros(17 * 4 + 5 * 8)), ckpt)
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["detect", "-c", cfgp, "--checkpoint", str(ckpt)]) == 2
        assert "bad.ckpt: output size 8 must equal input size 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_best_f1_threshold_equals_eval_sweep(self, tmp_path):
        # detect's best_f1 threshold is the one a sweeping eval of its scores reports
        out = self.run_train_detect(tmp_path, threshold={"mode": "best_f1", "metric": "pa"})
        assert main(["synth", "-c", str(tmp_path / "out.json"), "-o", str(tmp_path / "data")]) == 0
        assert main(["eval", "--scores", str(out / "demo_scores.csv"),
                     "--data", str(tmp_path / "data" / "demo_test.csv"),
                     "-o", str(tmp_path / "report")]) == 0
        summary = json.loads((out / "demo_detect.json").read_text())
        lines = [l for l in (tmp_path / "report" / "report.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert summary["threshold_mode"] == "best_f1"
        assert float(row["pa_threshold"]) == summary["threshold"]

    def test_threshold_of_a_sweep_without_f1_is_null(self, tmp_path, capsys):
        # with no anomaly no threshold reaches F1 > 0, and the sweep's +inf was
        # written as `Infinity`, which strict JSON parsers reject
        out = tmp_path / "out"
        doc = small_config(out, threshold={"mode": "best_f1", "metric": "rpa"})
        doc["datasets"][0]["synth"]["anomalies"] = []
        cfgp = write_config(tmp_path, doc)
        assert main(["train", "-c", cfgp]) == 0
        assert main(["detect", "-c", cfgp, "--checkpoint", str(out / "demo_model.ckpt")]) == 0
        assert "threshold inf (best_f1)" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        summary = json.loads((out / "demo_detect.json").read_text(), parse_constant=reject)
        assert summary["threshold"] is None
        assert summary["degenerate"] is True and summary["flagged_share"] == 0

    def test_test_split_scored_with_train_statistics(self, tmp_path):
        # a level shift in the test split must survive normalization: normalizing
        # the test split with its own statistics would remove it
        from strad.detector import score
        from strad.experiments import write_series_csv
        from strad.series import TimeSeries, apply_normalization, fit_normalization

        rng = np.random.default_rng(4)
        wave = np.sin(2 * np.pi * np.arange(300) / 16)
        train = TimeSeries(wave + 0.05 * rng.normal(size=300), np.zeros(300, int), "train")
        labels = np.zeros(300, int)
        labels[100:140] = 1
        test = TimeSeries(wave + 3.0 + 0.05 * rng.normal(size=300), labels, "test")
        write_series_csv(train, tmp_path / "train.csv", "# test")
        write_series_csv(test, tmp_path / "test.csv", "# test")
        doc = small_config(tmp_path / "out")
        doc["datasets"] = [{"name": "shifted", "source": "csv", "csv": {
            "train_path": str(tmp_path / "train.csv"), "test_path": str(tmp_path / "test.csv")}}]
        cfgp = write_config(tmp_path, doc)
        assert main(["train", "-c", cfgp]) == 0
        assert main(["detect", "-c", cfgp,
                     "--checkpoint", str(tmp_path / "out" / "shifted_model.ckpt")]) == 0
        model, _ = load_checkpoint(tmp_path / "out" / "shifted_model.ckpt")
        cfg = load_config(cfgp)

        def scores_of(stats):
            return score(model, apply_normalization(test, stats), 16, 1, cfg.train.weights,
                         "strad_broadcast").scores

        written = read_scores_csv(tmp_path / "out" / "shifted_scores.csv")
        assert written.tobytes() == scores_of(fit_normalization(train)).tobytes()
        assert not np.array_equal(written, scores_of(fit_normalization(test)))

    def test_score_rows_equal_series_length(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        scores = read_scores_csv(out / "demo_scores.csv")
        assert scores.shape == (600,)

    def test_segments_rederivable_from_scores_and_threshold(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        summary = json.loads((out / "demo_detect.json").read_text())
        scores = read_scores_csv(out / "demo_scores.csv")
        preds = (scores >= summary["threshold"]).astype(int)
        expected = [tuple(row) for row in segments_from_labels(preds).tolist()]
        lines = [l for l in (out / "demo_segments.csv").read_text().splitlines()
                 if l and not l.startswith("#")][1:]
        got = [tuple(int(v) for v in l.split(",")) for l in lines]
        assert got == expected

    def test_quantile_mode_ignores_test_labels(self, tmp_path):
        # same data except test labels shuffled: identical scores and threshold
        out_a = self.run_train_detect(tmp_path, "a")
        doc = small_config(tmp_path / "b")
        # move the labeled ranges: quantile thresholding must not care
        doc["datasets"][0]["synth"]["anomalies"][0]["start"] = 210
        cfgp = write_config(tmp_path, doc, name="b.json")
        main(["train", "-c", cfgp])
        main(["detect", "-c", cfgp, "--checkpoint", str(tmp_path / "b" / "demo_model.ckpt")])
        sum_a = json.loads((tmp_path / "a" / "demo_detect.json").read_text())
        sum_b = json.loads((tmp_path / "b" / "demo_detect.json").read_text())
        assert sum_a["threshold"] == sum_b["threshold"]

    def test_explicit_score_mode_overrides_auto(self, tmp_path):
        out = self.run_train_detect(tmp_path, train={"epochs": 3, "batch_size": 8, "loss": "mse"})
        assert json.loads((out / "demo_detect.json").read_text())["mode"] == "shape_only"
        assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint",
                     str(out / "demo_model.ckpt"), "--set", "score.mode=strad_broadcast"]) == 0
        assert json.loads((out / "demo_detect.json").read_text())["mode"] == "strad_broadcast"

    def test_best_f1_on_unlabelled_csv_exits_2(self, tmp_path, capsys):
        synth_out = tmp_path / "data"
        assert main(["synth", "-c", write_config(tmp_path, small_config(synth_out))]) == 0
        doc = small_config(tmp_path / "run", threshold={"mode": "best_f1"})
        doc["datasets"] = [{"name": "nolabels", "source": "csv", "csv": {
            "train_path": str(synth_out / "demo_train.csv"),
            "test_path": str(synth_out / "demo_test.csv"),
            "label_column": None,
        }}]
        cfgp = write_config(tmp_path, doc, name="csv_cfg.json")
        assert main(["train", "-c", cfgp]) == 0
        capsys.readouterr()
        assert main(["detect", "-c", cfgp, "-o", str(tmp_path / "detected"),
                     "--checkpoint", str(tmp_path / "run" / "nolabels_model.ckpt")]) == 2
        assert ("error: nolabels_test: best_f1 thresholding requires test labels\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "detected").exists()

    def test_truncated_checkpoint_exits_2(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        ckpt = out / "demo_model.ckpt"
        text = ckpt.read_text()
        encoded = text.splitlines()[-2]  # the parameter line
        start = text.index(encoded)
        for cut in (start + 4, start + len(encoded) // 2, start + len(encoded)):
            ckpt.write_text(text[:cut])
            assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(ckpt)]) == 2

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        ckpt = out / "demo_model.ckpt"
        lines = ckpt.read_text().splitlines()
        encoded = lines[-2]
        params = load_checkpoint(ckpt)[0].params
        nan = base64.b64encode(np.full_like(params, np.nan).tobytes()).decode("ascii")
        for spoil in (
            lines + ["end"],  # content after end
            lines[:-2] + ["!" + encoded[1:], "end"],
            lines[:-2] + ["\u00e9" + encoded[1:], "end"],
            lines[:-2] + [encoded[:-12], "end"],  # valid base64, 9 bytes short
            ["strad-checkpoint v2"] + lines[1:],
            lines[:-2] + [nan, "end"],
        ):
            ckpt.write_text("\n".join(spoil) + "\n", encoding="utf-8")
            assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(ckpt)]) == 2

    def test_directory_checkpoint_exits_1(self, tmp_path, capsys):
        out = self.run_train_detect(tmp_path)
        capsys.readouterr()
        assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(out)]) == 1
        assert "not a readable file" in capsys.readouterr().err

    def test_checkpoint_of_another_input_size_exits_2(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"train": {"epochs": 1}, "datasets": [{"name": "a", "synth": {
            "length": 600, "anomalies": [{"kind": "global_point", "start": 500}]}}]})
        tr, det = tmp_path / "tr", tmp_path / "det"
        assert main(["train", "-c", cfgp, "--set", "window.length=32", "-o", str(tr)]) == 0
        capsys.readouterr()
        assert main(["detect", "-c", cfgp, "--checkpoint", str(tr / "a_model.ckpt"),
                     "-o", str(det)]) == 2
        err = capsys.readouterr().err
        assert "error: checkpoint expects input size 32, configuration implies 64" in err
        assert not det.exists()

    def test_auto_scores_by_the_checkpoints_loss(self, tmp_path):
        # trained with MSE, detected under a strad config: "auto" follows the training loss
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        assert main(["train", "-c", cfgp, "--set", 'train.loss="mse"']) == 0
        assert "# loss=mse" in (out / "demo_model.ckpt").read_text().splitlines()
        assert main(["detect", "-c", cfgp, "--checkpoint", str(out / "demo_model.ckpt")]) == 0
        assert json.loads((out / "demo_detect.json").read_text())["mode"] == "shape_only"

    def test_checkpoint_without_loss_line_scores_by_the_config(self, tmp_path):
        out = self.run_train_detect(tmp_path, train={"epochs": 3, "batch_size": 8, "loss": "mse"})
        ckpt = out / "demo_model.ckpt"
        save_checkpoint(load_checkpoint(ckpt)[0], ckpt, meta={"seed": "5"})
        assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(ckpt)]) == 0
        assert json.loads((out / "demo_detect.json").read_text())["mode"] == "shape_only"
        assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(ckpt),
                     "--set", 'train.loss="strad"']) == 0
        assert json.loads((out / "demo_detect.json").read_text())["mode"] == "strad_broadcast"

    def test_unknown_checkpoint_loss_exits_2(self, tmp_path, capsys):
        out = self.run_train_detect(tmp_path)
        ckpt = out / "demo_model.ckpt"
        save_checkpoint(load_checkpoint(ckpt)[0], ckpt, meta={"loss": "huber"})
        capsys.readouterr()
        assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(ckpt),
                     "-o", str(tmp_path / "det")]) == 2
        assert "demo_model.ckpt: loss must be one of" in capsys.readouterr().err
        assert not (tmp_path / "det").exists()

    def test_incompatible_checkpoint(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        cfgp = write_config(tmp_path, small_config(out, window={"length": 32}), name="w.json")
        code = main(["detect", "-c", cfgp, "--checkpoint", str(out / "demo_model.ckpt")])
        assert code == 2


def write_eval_pair(tmp_path, name, labels, scores):
    data = tmp_path / f"{name}.csv"
    lines = ["v0,label"] + [f"0.0,{l}" for l in labels]
    data.write_text("\n".join(lines) + "\n")
    sc = tmp_path / f"{name}_scores.csv"
    sc.write_text("index,score\n" + "\n".join(f"{i},{s}" for i, s in enumerate(scores)) + "\n")
    return sc, data


class TestCliEval:
    def test_single_dataset_entire_equals_own(self, tmp_path):
        labels = [0, 1, 1, 0, 0, 1, 0]
        scores = [0, 5, 0, 0, 0, 5, 0]
        sc, data = write_eval_pair(tmp_path, "solo", labels, scores)
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "--metric", "rpa", "-o", str(out)]) == 0
        lines = [l for l in (out / "report.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        assert rows[0]["rpa_f1"] == rows[1]["rpa_f1"]
        assert rows[1]["name"] == "ENTIRE"

    def test_weighted_entire_example(self, tmp_path):
        # pair A: 2 segments, PA F1 = 0.5 at threshold 3; pair B: 3 segments, PA F1 = 1.0
        labels_a = [1, 1, 0, 0, 1, 1, 1, 0]
        scores_a = [5, 0, 0, 0, 0, 0, 0, 5]
        labels_b = [1, 0, 1, 0, 1, 0]
        scores_b = [9, 0, 9, 0, 9, 0]
        sa, da = write_eval_pair(tmp_path, "a", labels_a, scores_a)
        sb, db = write_eval_pair(tmp_path, "b", labels_b, scores_b)
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sa), "--data", str(da),
                     "--scores", str(sb), "--data", str(db),
                     "--metric", "pa", "--threshold", "3.0", "-o", str(out)]) == 0
        lines = [l for l in (out / "report.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert float(rows[0]["pa_f1"]) == pytest.approx(0.5)
        assert float(rows[1]["pa_f1"]) == pytest.approx(1.0)
        entire = rows[2]
        assert entire["name"] == "ENTIRE"
        # Eq-style weighting: (2/5)*0.5 + (3/5)*1.0
        assert float(entire["pa_f1"]) == pytest.approx(0.8)

    def test_both_metrics_emitted(self, tmp_path):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sc), "--data", str(data), "-o", str(out)]) == 0
        header = [l for l in (out / "report.csv").read_text().splitlines()
                  if l and not l.startswith("#")][0]
        assert "rpa_f1" in header and "pa_f1" in header

    def test_degenerate_best_f1_is_marked(self, tmp_path, capsys):
        # RPA: the all-positive prediction is one run over every segment, so
        # it reaches F1 = 1 on any labelled input; PA on a lone spike is not.
        rng = np.random.default_rng(5)
        labels = (rng.uniform(size=50) < 0.3).astype(int)
        sr, dr = write_eval_pair(tmp_path, "random", labels, rng.normal(size=50))
        ss, ds = write_eval_pair(tmp_path, "spike", [0, 0, 1, 0], [0.0, 0.0, 9.0, 0.0])
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sr), "--data", str(dr),
                     "--scores", str(ss), "--data", str(ds), "-o", str(out)]) == 0
        marker = " (degenerate: all-positive prediction scores the same F1)"
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[1] == f"spike: segments=1 rpa_f1=1.000000{marker} pa_f1=1.000000"
        assert f"rpa_f1=1.000000{marker}" in stdout[0]
        notes = [l for l in (out / "report.txt").read_text().splitlines() if l.startswith("note:")]
        assert notes == [f"note: random rpa_f1=1.000000{marker}",
                              f"note: spike rpa_f1=1.000000{marker}"]
        assert "degenerate" not in (out / "report.csv").read_text()

    def test_cell_over_the_csv_field_limit_exits_2(self, tmp_path, capsys):
        # was a _csv.Error traceback from the row parse
        sc, data = write_eval_pair(tmp_path, "long", [0, 1], ["1" * 200_000, "0.5"])
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "-o", str(tmp_path / "rep")]) == 2
        assert f"error: {sc}: field larger than field limit" in capsys.readouterr().err

    def test_sweep_reads_degenerate_from_the_sweep(self, monkeypatch):
        def recount(*args, **kwargs):
            raise AssertionError("evaluate recounted a swept metric with f1_at")

        monkeypatch.setattr(strad.experiments, "f1_at", recount)
        labels = np.array([0, 0, 1, 0])
        row = evaluate(ScoreSeries(np.array([0.0, 0.0, 9.0, 0.0])), labels,
                       {"rpa": None, "pa": None})
        assert row["degenerate"] == ("rpa",)
        assert (row["rpa_f1"], row["pa_f1"]) == (1.0, 1.0)

    def test_shared_data_file_is_read_once(self, tmp_path, monkeypatch):
        reads = []
        read_labels = strad.experiments.read_labels_csv

        def counting(path, *args):
            reads.append(path)
            return read_labels(path, *args)

        monkeypatch.setattr(strad.experiments, "read_labels_csv", counting)
        sa, data = write_eval_pair(tmp_path, "a", [0, 1, 1, 0], [0, 5, 0, 0])
        sb, _ = write_eval_pair(tmp_path, "b", [0, 1, 1, 0], [0, 0, 5, 1])
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sa), "--data", str(data),
                     "--scores", str(sb), "--data", str(data), "-o", str(out)]) == 0
        assert reads == [data]
        names = [l.split(",")[0] for l in (out / "report.csv").read_text().splitlines()[2:]]
        assert names == ["a", "a", "ENTIRE"]

    def test_each_input_is_opened_once(self, tmp_path, monkeypatch):
        sa, data = write_eval_pair(tmp_path, "a", [0, 1, 1, 0], [0, 5, 0, 0])
        sb, _ = write_eval_pair(tmp_path, "b", [0, 1, 1, 0], [0, 0, 5, 1])
        _, data_c = write_eval_pair(tmp_path, "c", [1, 0, 0, 1], [0, 0, 0, 0])

        def report_rows(out, *argv):
            assert main(["eval", *map(str, argv), "-o", str(out)]) == 0
            return (out / "report.csv").read_text().splitlines()[1:]

        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        # one data file under two score files, then one score file over two data files
        for k, pairs in enumerate([((sa, data), (sb, data)), ((sa, data), (sa, data_c))]):
            solo = [report_rows(tmp_path / f"solo{k}{j}", "--scores", sc, "--data", d)
                    for j, (sc, d) in enumerate(pairs)]
            opened.clear()
            monkeypatch.setattr(io, "open", counting_open)  # `Path.read_bytes` opens through it
            monkeypatch.setattr(builtins, "open", counting_open)
            rows = report_rows(tmp_path / f"pair{k}", *(arg for sc, d in pairs
                                                        for arg in ("--scores", sc, "--data", d)))
            monkeypatch.undo()
            named = {str(path) for pair in pairs for path in pair}
            assert sorted(p for p in opened if p in named) == sorted(named)
            assert rows[1:3] == [solo[0][1], solo[1][1]]  # the header, then one row per pair

    def test_provenance_covers_every_setting(self, tmp_path):
        # the parent digest covered only the input bytes: one line, three tables
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 1, 0], [0.2, 0.7, 0.5, 0.1])
        data.write_text("v0,label,copy\n0.0,0,0\n0.0,1,1\n0.0,1,1\n0.0,0,0\n")
        lines = set()
        for k, extra in enumerate([[], ["--threshold", "0.6"], ["--metric", "pa"],
                                   ["--metric", "pa", "--metric", "rpa"],
                                   ["--label-column", "copy"]]):
            out = tmp_path / f"rep{k}"
            assert main(["eval", "--scores", str(sc), "--data", str(data), "-o", str(out),
                         *extra]) == 0
            lines.add((out / "report.csv").read_text().splitlines()[0])
        assert len(lines) == 5

    def test_provenance_tells_the_files_apart(self, tmp_path):
        # the same bytes in all, split differently between the two files
        scores, data = "index,score\n0,0.1\n1,0.7\n", "v0,label\n0.0,0\n0.0,1\n"
        lines = []
        for k, comment in enumerate(["# a\n", ""]):
            run = tmp_path / str(k)
            run.mkdir()
            (run / "s.csv").write_text(scores + comment)
            (run / "d.csv").write_text("# a\n"[len(comment):] + data)
            assert main(["eval", "--scores", str(run / "s.csv"), "--data", str(run / "d.csv"),
                         "-o", str(run)]) == 0
            lines.append((run / "report.csv").read_text().splitlines())
        assert lines[0][1:] == lines[1][1:]
        assert lines[0][0] != lines[1][0]

    # `int` took all of these as a 0 or a 1
    @pytest.mark.parametrize("cell", ["+1", "01", "\u0661", "0_0", "-0", "+0"])
    def test_label_cell_must_be_0_or_1(self, tmp_path, capsys, cell):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        data.write_text(f"v0,label\n0.0,0\n0.0,{cell}\n0.0,0\n", encoding="utf-8")
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "-o", str(tmp_path / "rep")]) == 2
        assert f"row 1, column 'label': {cell!r} is not 0/1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["1,abc", "1"])
    def test_malformed_score_row_exits_2(self, tmp_path, capsys, bad_row):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        lines = sc.read_text().splitlines()
        lines[2] = bad_row
        sc.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "-o", str(tmp_path / "rep")]) == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["0.0", "0.0,x", "0.0,2"])
    def test_malformed_label_row_exits_2(self, tmp_path, capsys, bad_row):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        lines = data.read_text().splitlines()
        lines[2] = bad_row
        data.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "-o", str(tmp_path / "rep")]) == 2
        assert "row 1" in capsys.readouterr().err

    def test_label_cell_is_checked_as_a_label(self, tmp_path, capsys):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        data.write_text("v0,label\n0.0,0\n0.0,x\n0.0,0\n")
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "-o", str(tmp_path / "rep")]) == 2
        assert "row 1, column 'label': 'x' is not 0/1" in capsys.readouterr().err

    def test_empty_label_column_is_not_in_header(self, tmp_path, capsys):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        assert main(["eval", "--scores", str(sc), "--data", str(data), "--label-column", "",
                     "-o", str(tmp_path / "rep")]) == 2
        assert "column '' not in header" in capsys.readouterr().err

    def test_nan_threshold_is_usage_error(self, tmp_path, capsys):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        out = tmp_path / "rep"
        for value in ("nan", "-1e"):  # a dash argument that is no number stays an option
            assert main(["eval", "--scores", str(sc), "--data", str(data),
                         "--threshold", value, "-o", str(out)]) == 1
            assert "--threshold" in capsys.readouterr().err
            assert not (out / "report.csv").exists()
        # +/-inf stay valid: +inf is what a sweep that finds nothing returns
        for value in ("inf", "-inf"):
            assert main(["eval", "--scores", str(sc), "--data", str(data),
                         f"--threshold={value}", "-o", str(out)]) == 0

    def test_repeated_metric_is_usage_error(self, tmp_path, capsys):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "--metric", "rpa", "--metric", "rpa", "-o", str(out)]) == 1
        assert "--metric" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("value", ["-inf", "-1e-05", "%.17g" % -3.2e-07])
    def test_separate_negative_threshold_equals_joined_form(self, tmp_path, value):
        # `%.17g` prints a small negative threshold in exponent form, as
        # `detect` does; argparse took such a separate value for an option
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [-1.0, 7.0, -5e-06])
        outs = tmp_path / "separate", tmp_path / "joined"
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "--threshold", value, "-o", str(outs[0])]) == 0
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     f"--threshold={value}", "-o", str(outs[1])]) == 0
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()

    def test_threshold_count_mismatch_is_usage_error_before_output(self, tmp_path, capsys):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "--threshold", "1", "--threshold", "2", "-o", str(out)]) == 1
        assert "need one threshold per scores/data pair" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scores_leave_no_output_dir(self, tmp_path):
        _, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        assert main(["eval", "--scores", str(tmp_path / "missing.csv"), "--data", str(data),
                     "-o", str(tmp_path / "rep")]) == 1
        assert not (tmp_path / "rep").exists()

    def test_misaligned_inputs(self, tmp_path):
        sc, _ = write_eval_pair(tmp_path, "x", [0, 1, 0], [0, 7, 0])
        _, data = write_eval_pair(tmp_path, "y", [0, 1], [0, 7])
        assert main(["eval", "--scores", str(sc), "--data", str(data)]) == 2


class TestEvalInputs:
    """`run_eval_cmd` rejects bad inputs itself, before it reads any file."""

    def reject(self, tmp_path, scores=("s.csv",), data=("d.csv",), metrics=("rpa",),
            thresholds=None):
        # the paths name no file, so a check made after reading would raise FileNotFoundError
        with pytest.raises(ConfigError) as excinfo:
            run_eval_cmd([tmp_path / s for s in scores], [tmp_path / d for d in data],
                         list(metrics), tmp_path / "rep", "label", thresholds)
        assert not (tmp_path / "rep").exists()
        return str(excinfo.value)

    def test_pair_count_mismatch(self, tmp_path):
        assert "--scores and --data" in self.reject(tmp_path, data=("a.csv", "b.csv"))

    def test_repeated_metric(self, tmp_path):
        assert self.reject(tmp_path, metrics=("pa", "rpa", "pa")) == (
            "--metric repeats a metric: ['pa', 'rpa', 'pa']")

    def test_nan_threshold(self, tmp_path):
        assert "got nan" in self.reject(tmp_path, thresholds=[math.nan])

    def test_wrong_threshold_count(self, tmp_path):
        assert "one threshold per" in self.reject(tmp_path, thresholds=[1.0, 2.0])


class TestCliCompare:
    def test_fits_of_another_shape_train_in_their_own_stack(self, tmp_path, monkeypatch):
        from strad.experiments import materialize_dataset, normalize_splits, run_fits

        doc = small_config(tmp_path / "out")
        longer, wider = copy.deepcopy(doc["datasets"][0]), copy.deepcopy(doc["datasets"][0])
        longer["name"], longer["synth"]["length"] = "longer", 800
        wider["name"] = "wider"
        wider["synth"]["channels"] = 2 * wider["synth"]["channels"]
        doc["datasets"] += [longer, wider]
        cfg = load_config(write_config(tmp_path, doc))
        data = [normalize_splits(materialize_dataset(cfg, i)) for i in range(3)]
        fits = [(arm, pair) for arm in cfg.compare_arms for pair in data]
        stacks = []
        trainer = strad.experiments.train
        monkeypatch.setattr(strad.experiments, "train", lambda model, windows, arms: (
            stacks.append(windows.shape[:2] + windows.shape[3:]) or trainer(model, windows, arms)))
        rows = run_fits(cfg, fits)
        # in order of each stack's first fit: (fits, windows, channels)
        assert stacks == [(2, 36, 1), (2, 49, 1), (2, 36, 2)]
        stacks.clear()
        assert rows == [run_fits(cfg, [one])[0] for one in fits]
        assert [k for k, _, _ in stacks] == [1] * len(fits)

    def test_mse_vs_mse_zero_improvement(self, tmp_path):
        out = tmp_path / "out"
        doc = small_config(out, compare={"losses": ["mse", "mse"]})
        cfgp = write_config(tmp_path, doc)
        assert main(["compare", "-c", cfgp]) == 0
        lines = [l for l in (out / "improvement.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        second = [r for r in rows if r["arm"] == "mse#2"]
        assert second
        for row in second:
            assert float(row["avg_improved"]) == 0.0
            assert float(row["air"]) == 0.0

    def test_undefined_air_still_writes_the_tables(self, tmp_path, capsys):
        # q = 1.0 flags nothing on the MSE arm, so every MSE baseline F1 is 0
        out = tmp_path / "out"
        doc = {"seed": 0, "output_dir": str(out), "train": {"epochs": 1},
               "threshold": {"q": 1.0},
               "datasets": [{"name": "a", "synth": {"length": 1000, "anomalies": [
                   {"kind": "trend_pattern", "start": 700, "length": 20, "magnitude": 1e-12}]}}]}
        assert main(["compare", "-c", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == f"warning: {AIR_DROP_WARNING}\n"
        assert (out / "comparison.csv").is_file()
        lines = [l for l in (out / "improvement.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert [r["air"] for r in rows if r["arm"] == "strad"] == ["nan", "nan"]

    def test_dataset_without_anomalies_has_zero_segments(self, tmp_path, capsys):
        # it weighs nothing in the entire F1; its MSE F1 is 0, so A.I.R. drops it
        out = tmp_path / "out"
        doc = small_config(out)
        doc["datasets"].append({"name": "quiet", "synth": {"length": 600}})
        assert main(["compare", "-c", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == f"warning: {AIR_DROP_WARNING}\n"
        lines = [l for l in (out / "comparison.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert [r["segments"] for r in rows if r["dataset"] == "quiet"] == ["0", "0"]

    def test_explicit_shape_only_keeps_the_mse_rows(self, tmp_path):
        # "auto" scores the MSE arm shape_only, so naming that mode changes no MSE row
        def mse_rows(name, *overrides):
            out = tmp_path / name
            cfgp = write_config(tmp_path, small_config(out), name=f"{name}.json")
            assert main(["compare", "-c", cfgp, *overrides]) == 0
            lines = [l for l in (out / "comparison.csv").read_text().splitlines()
                     if l and not l.startswith("#")]
            return [lines[0]] + [l for l in lines[1:] if l.startswith("mse,")]

        auto = mse_rows("auto")
        assert len(auto) == 2
        assert mse_rows("shape_only", "--set", "score.mode=shape_only") == auto

    def test_single_loss_is_usage_error(self, tmp_path, capsys):
        doc = small_config(tmp_path / "out", compare={"losses": ["mse"]})
        assert main(["compare", "-c", write_config(tmp_path, doc)]) == 1
        assert "at least two loss entries" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_score_stride_beyond_window_is_usage_error(self, tmp_path):
        # a stride of 100 over windows of 8 would leave 92 of every 100 points unscored
        doc = small_config(tmp_path / "out", window={"length": 8, "score_stride": 100})
        assert main(["compare", "-c", write_config(tmp_path, doc)]) == 1
        assert not (tmp_path / "out").exists()
        doc["window"]["score_stride"] = 8  # windows that touch end to end leave no gap
        assert load_config(write_config(tmp_path, doc)).score_stride == 8

    def test_table_row_count(self, tmp_path):
        out = tmp_path / "out"
        doc = small_config(out, compare={"losses": ["mse", "strad", "mse_plus_strad"]})
        cfgp = write_config(tmp_path, doc)
        assert main(["compare", "-c", cfgp]) == 0
        lines = [l for l in (out / "comparison.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) - 1 == 3 * 1  # losses x datasets

    def test_air_recomputable_from_f1_columns(self, tmp_path):
        from strad.metrics import air, avg_improved

        out = tmp_path / "out"
        doc = small_config(out, compare={"losses": ["mse", "strad"]})
        cfgp = write_config(tmp_path, doc)
        assert main(["compare", "-c", cfgp]) == 0
        comp = [l for l in (out / "comparison.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        header = comp[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in comp[1:]]
        by_arm = {}
        for row in rows:
            by_arm.setdefault(row["arm"], []).append(float(row["rpa_f1"]))
        imp = [l for l in (out / "improvement.csv").read_text().splitlines()
               if l and not l.startswith("#")]
        iheader = imp[0].split(",")
        irows = [dict(zip(iheader, l.split(","))) for l in imp[1:]]
        strad_rpa = next(r for r in irows if r["arm"] == "strad" and r["metric"] == "rpa")
        assert float(strad_rpa["air"]) == air(by_arm["strad"], by_arm["mse"])
        assert float(strad_rpa["avg_improved"]) == avg_improved(by_arm["strad"], by_arm["mse"])

    def test_unlabelled_csv_dataset_exits_2(self, tmp_path, capsys):
        synth_out = tmp_path / "data"
        assert main(["synth", "-c", write_config(tmp_path, small_config(synth_out))]) == 0
        doc = small_config(tmp_path / "run")
        doc["datasets"] = [{"name": "nolabels", "source": "csv", "csv": {
            "train_path": str(synth_out / "demo_train.csv"),
            "test_path": str(synth_out / "demo_test.csv"),
            "label_column": None,
        }}]
        assert main(["compare", "-c", write_config(tmp_path, doc, name="csv_cfg.json")]) == 2
        assert ("error: dataset nolabels: evaluation requires test labels\n"
                in capsys.readouterr().err)

    def test_bad_second_dataset_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        import strad.experiments

        calls = []
        trainer = strad.experiments.train
        monkeypatch.setattr(strad.experiments, "train",
                            lambda *args: calls.append(args) or trainer(*args))
        doc = small_config(tmp_path / "out")
        second = copy.deepcopy(doc["datasets"][0])
        second["name"] = "second"
        second["synth"]["anomalies"][0]["magnitude"] = 40.0
        doc["datasets"].append(second)
        assert main(["compare", "-c", write_config(tmp_path, doc)]) == 1
        assert "datasets.1.synth.anomalies.0: scaled frequency" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_missing_second_csv_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        trainer = strad.experiments.train
        monkeypatch.setattr(strad.experiments, "train",
                            lambda *args: calls.append(args) or trainer(*args))
        doc = small_config(tmp_path / "out")
        missing = str(tmp_path / "missing.csv")
        doc["datasets"].append({"name": "second", "source": "csv",
                                "csv": {"train_path": missing, "test_path": missing}})
        assert main(["compare", "-c", write_config(tmp_path, doc)]) == 1
        assert "missing.csv" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_best_f1_notes_under_comparison_and_ablation(self, tmp_path):
        from strad.experiments import ABLATION_SUBSETS, DEGENERATE

        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out, threshold={"mode": "best_f1"}))
        assert main(["compare", "-c", cfgp]) == 0
        assert main(["ablate", "-c", cfgp]) == 0
        # predicting every point is one run that every truth segment absorbs,
        # so its RPA F1 is 1 and every swept RPA F1 is degenerate
        arms = {"comparison": ["mse demo", "strad demo"],
                "ablation": [f"T={a} S={b} Sh={c} demo" for a, b, c in ABLATION_SUBSETS]}
        for table, labels in arms.items():
            lines = (out / f"{table}.txt").read_text().splitlines()
            notes = [l for l in lines if l.startswith("note:")]
            assert notes and lines[-len(notes):] == notes  # under the table
            assert all(n.endswith(DEGENERATE) for n in notes)
            assert ([n for n in notes if " rpa_f1=" in n]
                    == [f"note: {label} rpa_f1=1.000000 {DEGENERATE}" for label in labels])
            assert "degenerate" not in (out / f"{table}.csv").read_text()

    def test_threshold_flagging_every_point_is_marked(self, tmp_path):
        from strad.experiments import DEGENERATE

        # a constant series reconstructs exactly: every score, and so the
        # quantile threshold, is 0, which flags every test point
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("v0,label\n" + "1.0,0\n" * 600)
        labels = np.zeros(600, dtype=int)
        labels[100:120] = labels[400:410] = 1
        test.write_text("v0,label\n" + "".join(f"1.0,{lab}\n" for lab in labels))
        out = tmp_path / "out"
        doc = small_config(out, train={"epochs": 2, "batch_size": 8, "loss": "strad"})
        doc["datasets"] = [{"name": "const", "source": "csv",
                            "csv": {"train_path": str(train), "test_path": str(test)}}]
        cfgp = write_config(tmp_path, doc)
        assert main(["compare", "-c", cfgp]) == 0
        notes = [l for l in (out / "comparison.txt").read_text().splitlines()
                 if l.startswith("note:")]
        assert notes == [f"note: {arm} const {m}_f1={f1} {DEGENERATE}"
                         for arm in ("mse", "strad")
                         for m, f1 in (("rpa", "1.000000"), ("pa", "0.095238"))]
        assert "degenerate" not in (out / "comparison.csv").read_text()
        assert main(["train", "-c", cfgp]) == 0
        assert main(["detect", "-c", cfgp, "--checkpoint", str(out / "const_model.ckpt")]) == 0
        summary = json.loads((out / "const_detect.json").read_text())
        assert (summary["threshold"], summary["flagged_share"], summary["degenerate"]) == (0, 1, True)
        # the check is the threshold against the minimum score, not a recount
        scores = ScoreSeries(np.array([0.5, 1.0, 2.0]))
        assert evaluate(scores, np.array([0, 1, 0]), {"rpa": 0.5})["degenerate"] == ("rpa",)
        assert evaluate(scores, np.array([0, 1, 0]), {"rpa": 0.6})["degenerate"] == ()

    def test_mse_required(self, tmp_path):
        doc = small_config(tmp_path / "out", compare={"losses": ["strad", "mse_plus_strad"]})
        cfgp = write_config(tmp_path, doc)
        assert main(["compare", "-c", cfgp]) == 1


class TestCliAblate:
    def test_exactly_seven_rows(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        assert main(["ablate", "-c", cfgp]) == 0
        lines = [l for l in (out / "ablation.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) - 1 == 7

    def test_zero_loss_weight_is_usage_error(self, tmp_path, capsys):
        # subset (1, 0, 0) would keep no positive weight
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["ablate", "-c", cfgp, "--set", "loss_weights.lambda1=0"]) == 1
        err = capsys.readouterr().err
        assert "cmd ablate needs every loss weight positive" in err
        assert "lambda1" in err and "(0.0, 10.0, 1.0)" in err
        assert not (tmp_path / "out").exists()

    def test_shape_only_row_equals_zeroed_weights_run(self, tmp_path):
        from strad.config import load_config as load
        from dataclasses import replace

        from strad.experiments import materialize_dataset, normalize_splits, run_fits
        from strad.losses import LossWeights

        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out))
        assert main(["ablate", "-c", cfgp]) == 0
        lines = [l for l in (out / "ablation.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        shape_only = next(r for r in rows
                          if (r["trend"], r["seasonality"], r["shape"]) == ("0", "0", "1"))
        cfg = load(cfgp)
        arm = replace(cfg.train, loss_kind="strad",
                      weights=LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0,
                                          epsilon=1e-7, trend_variant="monotone"))
        [manual] = run_fits(cfg, [(arm, normalize_splits(materialize_dataset(cfg, 0)))])
        assert float(shape_only["entire_rpa_f1"]) == manual["rpa_f1"]
        assert float(shape_only["entire_pa_f1"]) == manual["pa_f1"]

    def test_subsets_train_on_their_weights_and_score_on_the_configured(
            self, tmp_path, monkeypatch):
        import strad.experiments
        from strad.config import load_config as load
        from strad.experiments import ABLATION_SUBSETS
        from strad.fanout import BLAS_THREAD_VARS, fan_workers

        for var in BLAS_THREAD_VARS:  # one process, so the wrappers see every call
            monkeypatch.delenv(var, raising=False)
        assert fan_workers(7) == 1
        trained, scored = [], []

        def spy(real, seen, position):
            def wrapper(*args):
                seen.append(args[position])
                return real(*args)
            return wrapper

        monkeypatch.setattr(strad.experiments, "train", spy(strad.experiments.train, trained, 2))
        monkeypatch.setattr(strad.experiments, "score", spy(strad.experiments.score, scored, 4))
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["ablate", "-c", cfgp]) == 0
        configured = load(cfgp).train.weights
        # one lockstep stack of the 7 subsets' arms
        assert [(a.weights.lambda1, a.weights.lambda2, a.weights.lambda3)
                for arms in trained for a in arms] == [
            (configured.lambda1 * t, configured.lambda2 * s, configured.lambda3 * sh)
            for t, s, sh in ABLATION_SUBSETS]
        assert len(scored) == 7 * 2  # test and train split of each subset
        assert all(w == configured for w in scored)


class TestMultichannel:
    def test_two_channel_pipeline(self, tmp_path):
        out = tmp_path / "out"
        doc = small_config(out)
        doc["datasets"][0]["synth"]["channels"] = [
            {"shapelet": "sine", "omega": 0.0625},
            {"shapelet": "sawtooth", "omega": 0.03125, "amplitude": 0.7},
        ]
        doc["datasets"][0]["synth"]["anomalies"] = [
            {"kind": "seasonal_pattern", "start": 200, "length": 40,
             "magnitude": 1.5, "channel": 1},
        ]
        cfgp = write_config(tmp_path, doc)
        assert main(["synth", "-c", cfgp]) == 0
        header = [l for l in (out / "demo_test.csv").read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == "v0,v1,label"
        assert main(["train", "-c", cfgp]) == 0
        assert main(["detect", "-c", cfgp,
                     "--checkpoint", str(out / "demo_model.ckpt")]) == 0
        scores = read_scores_csv(out / "demo_scores.csv")
        assert scores.shape == (600,)
        assert main(["eval", "--scores", str(out / "demo_scores.csv"),
                     "--data", str(out / "demo_test.csv"), "-o", str(out)]) == 0


class TestCsvDatasetSource:
    def test_csv_round_trip_pipeline(self, tmp_path):
        # export a synthetic benchmark, then run the whole pipeline from CSVs
        synth_out = tmp_path / "data"
        cfgp = write_config(tmp_path, small_config(synth_out))
        assert main(["synth", "-c", cfgp]) == 0

        doc = small_config(tmp_path / "run")
        doc["datasets"] = [{
            "name": "fromcsv",
            "source": "csv",
            "csv": {
                "train_path": str(synth_out / "demo_train.csv"),
                "test_path": str(synth_out / "demo_test.csv"),
                "value_columns": ["v0"],
                "label_column": "label",
            },
        }]
        csv_cfg = write_config(tmp_path, doc, name="csv_cfg.json")
        assert main(["train", "-c", csv_cfg]) == 0
        assert main(["detect", "-c", csv_cfg,
                     "--checkpoint", str(tmp_path / "run" / "fromcsv_model.ckpt")]) == 0
        scores = read_scores_csv(tmp_path / "run" / "fromcsv_scores.csv")
        assert scores.shape == (600,)

    def test_cell_over_the_csv_field_limit_exits_2(self, tmp_path, capsys):
        # was a _csv.Error traceback from the row parse
        train = tmp_path / "train.csv"
        train.write_text("v0,label\n" + "1" * 200_000 + ",0\n" + "0.5,0\n" * 40)
        doc = small_config(tmp_path / "run")
        doc["datasets"] = [{"name": "long", "source": "csv",
                            "csv": {"train_path": str(train), "test_path": str(train)}}]
        assert main(["train", "-c", write_config(tmp_path, doc)]) == 2
        assert f"error: {train}: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_csv_and_synth_sources_agree(self, tmp_path):
        # the exported CSVs must reproduce the in-memory benchmark exactly
        from strad.config import load_config
        from strad.experiments import materialize_dataset

        synth_out = tmp_path / "data"
        cfgp = write_config(tmp_path, small_config(synth_out))
        assert main(["synth", "-c", cfgp]) == 0
        cfg = load_config(cfgp)
        train_mem, test_mem = materialize_dataset(cfg, 0)
        train_csv = load_csv(synth_out / "demo_train.csv", ["v0"], "label")
        test_csv = load_csv(synth_out / "demo_test.csv", ["v0"], "label")
        assert np.array_equal(train_mem.values, train_csv.values)
        assert np.array_equal(test_mem.values, test_csv.values)
        assert np.array_equal(test_mem.labels, test_csv.labels)


class TestCliGradcheck:
    def test_pass_exit_zero(self, tmp_path):
        report = tmp_path / "grad.txt"
        assert main(["gradcheck", "--windows", "6", "--models", "1",
                     "-o", str(report)]) == 0
        text = report.read_text()
        assert "combined" in text and "max rel err" in text

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1", "--windows", "1", "--models", "1"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--windows", "0"), ("--windows", "-1"),
                                            ("--models", "0")])
    def test_nothing_to_check_is_usage_error(self, flag, value, capsys):
        counts = {"--windows": "1", "--models": "1", flag: value}
        assert main(["gradcheck", *(arg for item in counts.items() for arg in item)]) == 1
        assert f"config error: {flag} must be >= 1, got {value}" in capsys.readouterr().err

    def test_constant_difference_skips_the_seasonality_window(self):
        # every bin but bin 0 of a constant difference is zero, a kink of the modulus
        x = np.random.default_rng(0).normal(size=(8, 2))
        assert gradcheck._exclusion_mask("seasonality", x, x + 0.5).all()

    def test_perturb_fails_naming_component(self, tmp_path, capsys, monkeypatch):
        shape = gradcheck._KERNELS["shape"]

        def corrupted(X, XR, want_grad=False):
            # a 1% relative plus small absolute error on one coordinate
            values, grads = shape(X, XR, want_grad)
            if grads is not None:
                grads = grads.copy()
                grads.flat[0] = grads.flat[0] * 1.01 + 1e-3
            return values, grads

        monkeypatch.setitem(gradcheck._KERNELS, "shape", corrupted)
        code = main(["gradcheck", "--windows", "4", "--models", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert "shape" in captured.err


class TestGradcheckInputs:
    """`gradcheck.run_all` rejects a negative seed and an empty check itself."""

    @pytest.mark.parametrize("seed, windows, models, message", [
        (-1, 1, 1, "--seed must be >= 0, got -1"),
        (0, 0, 1, "--windows must be >= 1, got 0"),
        (0, 1, 0, "--models must be >= 1, got 0"),
    ])
    def test_rejected(self, seed, windows, models, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            gradcheck.run_all(seed, windows, models, (2, 1, 2))


class TestExitCodes:
    def test_unknown_trend_variant_is_usage_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["train", "-c", cfgp, "--set", 'loss_weights.trend_variant="x"']) == 1
        assert ("config error: loss_weights: trend_variant must be one of"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    # Each array needs more than 128 PiB, the largest x86-64 address space, so
    # numpy refuses it at once and touches no memory.
    @pytest.mark.parametrize("argv, size", [
        (["train", "--set", "model.hidden=[1000000000000000]"], "917. PiB"),
        (["gradcheck", "--sizes", "4", "100000000000000000", "4", "--windows", "1",
          "--models", "1"], "6.25 EiB"),
        (["synth", "--set", 'datasets=[{"name":"a","synth":{"length":100000000000000000}}]'],
         "355. PiB"),  # the train split, half the length
    ], ids=["train", "gradcheck", "synth"])
    def test_out_of_memory_is_runtime_error(self, tmp_path, capsys, monkeypatch, argv, size):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory: Unable to allocate {size} for an array")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys):
        assert main(["train", "-c", "/nonexistent/cfg.json"]) == 1
        assert "error: no such file: /nonexistent/cfg.json\n" in capsys.readouterr().err

    def test_config_whose_top_level_is_a_list(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, [small_config(tmp_path / "out")])
        assert main(["train", "-c", cfgp]) == 1
        assert "top level must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfgp = write_config(tmp_path, {"bogus": 1})
        assert main(["train", "-c", cfgp]) == 1

    @pytest.mark.parametrize("override", [
        'window.length="abc"', 'threshold.q="x"', "window.score_stride=null",  # were tracebacks
        "window.length=64.9", "seed=1.5", "model.hidden=[3.5]",  # were truncated silently
        "train.epochs=true", "window.train_stride=2.5", 'eval.metrics=["rpa", 1]',
        'eval.metrics=["rpa", "rpa"]',  # was duplicate report columns
        "seed=-1", 'datasets=[{"synth": {"seed": -1}}]',  # were ValueError tracebacks
        'output_dir="a\\u0000b"',  # a NUL in a file name was a ValueError traceback
    ])
    def test_mistyped_value_is_usage_error(self, tmp_path, capsys, override):
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["synth", "-c", cfgp, "--set", override]) == 1
        assert override.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [False, True])
    def test_set_through_a_list_names_its_key_path(self, tmp_path, capsys, with_config):
        # the list is in the defaults either way, and in the document only with a config
        cfg = ["-c", write_config(tmp_path, small_config(tmp_path / "out"))] if with_config else []
        out = tmp_path / "out"
        assert main(["synth", *cfg, "--set", "datasets.0.name=x", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cannot descend into datasets.0.name: datasets is a list" in err
        assert not out.exists()

    @pytest.mark.parametrize("with_config", [False, True])
    def test_set_through_a_scalar_names_its_key_path(self, tmp_path, capsys, with_config):
        # the defaults hold an int and a null here; the document sets both only with a config
        cfg = ["-c", write_config(tmp_path, small_config(tmp_path / "out"))] if with_config else []
        out = tmp_path / "out"
        for key in ("train.epochs", "window.train_stride"):
            assert main(["synth", *cfg, "--set", f"{key}.x=1", "-o", str(out)]) == 1
            assert f"cannot descend into {key}.x: {key} is not an object" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("override", [
        "train.lr=-1", "train.lr=0", "train.lr=NaN", "train.lr=Infinity",
        "train.epochs=0", "train.batch_size=0", "train.mix=1.5", 'train.loss="bogus"',
        "loss_weights.lambda1=NaN", "loss_weights.lambda2=NaN", "loss_weights.lambda3=NaN",
        "loss_weights.lambda1=Infinity", "loss_weights.epsilon=Infinity",
        "loss_weights.epsilon=NaN",
        *(pytest.param(f"{key}={HUGE}", id=f"{key}=huge")  # were OverflowError tracebacks
          for key in ("loss_weights.lambda1", "loss_weights.epsilon", "train.lr", "train.mix")),
    ])
    def test_bad_training_value_fails_at_load(self, tmp_path, capsys, override):
        # rejected before any work, even by a command that does not train
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["synth", "-c", cfgp, "--set", override]) == 1
        assert not (tmp_path / "out").exists()
        key, _, value = override.partition("=")
        if value == HUGE:
            assert f"{key}: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden", [HUGE, str(2 ** 62)], ids=["huge", "2**62"])
    def test_unindexable_hidden_sizes_fail_at_load(self, tmp_path, capsys, hidden):
        # were a ValueError traceback from the parameter vector's allocation
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["train", "-c", cfgp, "--set", f"model.hidden=[{hidden}]"]) == 1
        assert "model.hidden: layer sizes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("expected, edit", [
        ("datasets.0.synth.anomalies.0: scaled frequency 2.5",
         lambda s: s["anomalies"][0].update(magnitude=40.0)),
        ("datasets.0.synth: length must be >= 1", lambda s: s.update(length=0, anomalies=[])),
        ("datasets.0.synth: noise_sigma must be", lambda s: s.update(noise_sigma=-1.0)),
        ("datasets.0.synth: train_fraction must lie in (0, 1)",
         lambda s: s.update(train_fraction=1.5)),
        ("datasets.0.synth: train split is empty", lambda s: s.update(train_fraction=0.001)),
        ("datasets.0.synth.channels.0: omega must lie in (0, 0.5)",
         lambda s: s["channels"][0].update(omega=0.5)),
        ("datasets.0.synth: need at least one channel", lambda s: s.update(channels=[])),
        ("datasets.0.synth.anomalies.1: global_point must have length 1",
         lambda s: s["anomalies"][1].update(length=3)),
        # no kind is assumed; this was silently a shapelet_pattern
        ("datasets.0.synth.anomalies.0: kind must be one of",
         lambda s: s["anomalies"][0].pop("kind")),
        ("datasets.0.synth.anomalies.1: anomaly global_point range (600, 600) outside test region",
         lambda s: s["anomalies"][1].update(start=600)),
        ("datasets.0.synth.anomalies.1: anomaly global_point channel 1 outside [0, 1)",
         lambda s: s["anomalies"][1].update(channel=1)),
        # a JSON integer beyond float range was an OverflowError traceback
        ("datasets.0.synth.noise_sigma: expected a number",
         lambda s: s.update(noise_sigma=int(HUGE))),
        ("datasets.0.synth.train_fraction: expected a number",
         lambda s: s.update(train_fraction=int(HUGE))),
        ("datasets.0.synth: int too large to convert to float",
         lambda s: s.update(length=int(HUGE), anomalies=[])),
        ("datasets.0.synth.channels.0.amplitude: expected a number",
         lambda s: s["channels"][0].update(amplitude=int(HUGE))),
        ("datasets.0.synth.channels.0.phase: expected a number",
         lambda s: s["channels"][0].update(phase=int(HUGE))),
        ("datasets.0.synth.channels.0.slope: expected a number",
         lambda s: s["channels"][0].update(slope=int(HUGE))),
        ("datasets.0.synth.anomalies.0.magnitude: expected a number",
         lambda s: s["anomalies"][0].update(magnitude=int(HUGE))),
        # json reads NaN and Infinity; they failed at generation, after the output directory
        ("datasets.0.synth.channels.0: amplitude must be finite, got nan",
         lambda s: s["channels"][0].update(amplitude=math.nan)),
        ("datasets.0.synth.channels.0: phase must be finite, got inf",
         lambda s: s["channels"][0].update(phase=math.inf)),
        ("datasets.0.synth.channels.0: slope must be finite, got nan",
         lambda s: s["channels"][0].update(slope=math.nan)),
        ("datasets.0.synth.anomalies.1: magnitude must be finite, got inf",
         lambda s: s["anomalies"][1].update(magnitude=math.inf)),
        ("datasets.0.synth.channels.0: shapelet must be one of",
         lambda s: s["channels"][0].update(shapelet="triangle")),
        ("datasets.0.synth.anomalies.0: start must be >= 0",
         lambda s: s["anomalies"][0].update(start=-1)),
    ], ids=["frequency", "length", "noise", "fraction", "empty-split", "omega", "no-channels",
            "point-length", "no-kind", "range", "channel", "huge-noise", "huge-fraction",
            "huge-length", "huge-amplitude", "huge-phase", "huge-slope", "huge-magnitude",
            "nan-amplitude", "inf-phase", "nan-slope", "inf-magnitude", "unknown-shapelet",
            "negative-start"])
    def test_synth_value_fails_at_load_naming_its_key(self, tmp_path, capsys, expected, edit):
        # every value is checked before any output directory exists
        doc = small_config(tmp_path / "out")
        edit(doc["datasets"][0]["synth"])
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 1
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "1" * 5000],
                             ids=["too-deep", "too-many-digits"])
    def test_json_the_json_module_cannot_hold_is_usage_error(self, tmp_path, capsys, value):
        # were a RecursionError and a ValueError traceback, from a file and from --set
        path = tmp_path / "deep.json"
        path.write_text('{"seed": ' + value + "}")
        assert main(["synth", "-c", str(path)]) == 1
        assert f"config error: {path}: invalid JSON" in capsys.readouterr().err
        cfgp = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["synth", "-c", cfgp, "--set", f"seed={value}"]) == 1
        assert "config error: seed: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_parser_built_once_without_leaking_values(self):
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["synth", "--set", "seed=1", "--set", "seed=2"])
        second = parser.parse_args(["synth"])
        assert first.overrides == ["seed=1", "seed=2"]
        assert second.overrides == []
        assert parser.parse_args(["eval", "--scores", "s", "--data", "d",
                                  "--threshold", "1"]).threshold == [1.0]
        assert parser.parse_args(["eval", "--scores", "s", "--data", "d"]).threshold is None

    def test_output_dir_is_taken_verbatim(self, tmp_path):
        odd = str(tmp_path / 'runs\\new "q" x\\u0041')
        args = build_parser().parse_args(["synth", "-o", odd])
        assert _load(args).output_dir == odd


class TestInputOutputPaths:
    """Paths that name the wrong kind of file, and files that are not text."""

    def eval_args(self, tmp_path, scores=None, data=None, out=None):
        sc, dt = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        return ["eval", "--scores", str(scores or sc), "--data", str(data or dt),
                "-o", str(out or tmp_path / "rep")]

    @pytest.mark.parametrize("which", ["scores", "data"])
    def test_directory_as_eval_input_exits_1(self, tmp_path, capsys, which):
        assert main(self.eval_args(tmp_path, **{which: tmp_path})) == 1
        assert "not a readable file" in capsys.readouterr().err

    def test_directory_as_config_exits_1(self, tmp_path, capsys):
        assert main(["synth", "-c", str(tmp_path)]) == 1
        assert "not a readable file" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["scores", "data"])
    def test_undecodable_eval_input_exits_2(self, tmp_path, capsys, which):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"index,score,label\n0,1.0,0\n1,\xff\xfe,1\n")
        assert main(self.eval_args(tmp_path, **{which: bad})) == 2
        assert "cannot decode" in capsys.readouterr().err

    def test_undecodable_series_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"v0,label\n\xff,0\n")
        doc = small_config(tmp_path / "out")
        doc["datasets"] = [{"name": "ext", "source": "csv",
                            "csv": {"train_path": str(bad), "test_path": str(bad)}}]
        assert main(["train", "-c", write_config(tmp_path, doc)]) == 2
        assert "cannot decode" in capsys.readouterr().err

    def test_undecodable_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 1, "name": "\xff"}')
        assert main(["synth", "-c", str(cfg)]) == 1
        assert "cannot decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "eval"])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_file_in_the_way_of_output_dir_exits_1(self, tmp_path, capsys, command,
                                                   under_file):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under_file else blocker
        if command == "synth":
            args = ["synth", "-c", write_config(tmp_path, small_config(tmp_path / "x")),
                    "-o", str(out)]
        else:
            args = self.eval_args(tmp_path, out=out)
        assert main(args) == 1
        assert "output directory" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_directory_as_gradcheck_output_exits_1(self, tmp_path, capsys):
        assert main(["gradcheck", "--windows", "1", "--models", "1", "-o", str(tmp_path)]) == 1
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_directory_in_the_way_of_output_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["synth", "-c", write_config(tmp_path, small_config(out))]) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert (out / "manifest.json").is_dir()

    def test_unencodable_eval_row_name_exits_2_and_keeps_the_report(self, tmp_path, capsys):
        # a data file whose name is not valid text: its stem names report.csv's row
        out = tmp_path / "rep"
        assert main(self.eval_args(tmp_path)) == 0
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        data = tmp_path / "d\udcffx.csv"
        data.write_text("v0,label\n0.0,0\n0.0,1\n0.0,0\n")
        assert main(self.eval_args(tmp_path, data=data)) == 2
        assert f"error: {out / 'report.csv'}: cannot encode" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    def test_unencodable_eval_row_name_leaves_no_output_dir(self, tmp_path, capsys):
        data = tmp_path / "d\udcffx.csv"
        data.write_text("v0,label\n0.0,0\n0.0,1\n0.0,0\n")
        out = tmp_path / "fresh"
        assert main(self.eval_args(tmp_path, data=data, out=out)) == 2
        assert f"error: {out / 'report.csv'}: cannot encode" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_no_file_name_can_hold_is_usage_error(self, tmp_path, capsys):
        # a lone surrogate was a UnicodeEncodeError traceback from mkdir
        doc = small_config(tmp_path / "o\ud800")
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 1
        assert "config error: output_dir: cannot encode" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_csv_path_no_file_name_can_hold_is_usage_error(self, tmp_path, capsys):
        # a lone surrogate was a UnicodeEncodeError traceback from open
        data = tmp_path / "t.csv"
        data.write_text("v0,label\n0.0,0\n")
        doc = small_config(tmp_path / "out")
        doc["datasets"] = [{"name": "ext", "source": "csv",
                            "csv": {"train_path": str(tmp_path / "t\ud800.csv"),
                                    "test_path": str(data)}}]
        assert main(["train", "-c", write_config(tmp_path, doc)]) == 1
        assert ("config error: datasets.0.csv.train_path: cannot encode"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blocker", ["directory", "read-only file"])
    def test_unwritable_report_exits_1(self, tmp_path, capsys, monkeypatch, blocker):
        report = tmp_path / "rep" / "report.csv"
        report.parent.mkdir()
        if blocker == "directory":
            report.mkdir()
        else:
            report.write_text("kept\n")
            report.chmod(0o444)
            if os.access(report, os.W_OK):  # a superuser may write it: fail as for any other
                opener = os.open

                def refusing(path, flags, *args, **kwargs):
                    if os.fspath(path) == str(report) and flags & (os.O_WRONLY | os.O_RDWR):
                        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                    return opener(path, flags, *args, **kwargs)

                monkeypatch.setattr(os, "open", refusing)
        assert main(self.eval_args(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and str(report) in err
        assert report.is_dir() if blocker == "directory" else report.read_text() == "kept\n"

    def test_rerun_rewrites_every_output_in_place(self, tmp_path, monkeypatch):
        # each command's outputs, written a second time: no O_TRUNC, same inode, same bytes
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, small_config(out, threshold={"mode": "best_f1"}))
        commands = [["synth", "-c", cfgp], ["train", "-c", cfgp],
                    ["detect", "-c", cfgp, "--checkpoint", str(out / "demo_model.ckpt")],
                    ["eval", "--scores", str(out / "demo_scores.csv"),
                     "--data", str(out / "demo_test.csv"), "-o", str(out)],
                    ["gradcheck", "--windows", "1", "--models", "1", "-o", str(out / "grad.txt")]]
        for argv in commands:
            assert main(argv) == 0
        first = {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()}
        assert len(first) == 11  # every write site once, and write_series_csv twice
        opened = {}
        opener = os.open

        def recording(path, flags, *args, **kwargs):
            opened[os.path.basename(path)] = flags
            return opener(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        for argv in commands:
            assert main(argv) == 0
        assert sorted(opened) == sorted(first)
        assert not [name for name, flags in opened.items() if flags & os.O_TRUNC]
        assert {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()} == first


# ---------------------------------------------------------------------------
# every rejection comes before the first fit and the first score
# ---------------------------------------------------------------------------


class Fitted(Exception):
    """Raised by the patched `train` and `score`: the command got as far as a fit."""


def _csv_datasets(name, train_path, test_path, **csv):
    return [{"name": name, "source": "csv",
             "csv": {"train_path": str(train_path), "test_path": str(test_path), **csv}}]


def _config(tmp_path, datasets=None, **extra):
    doc = small_config(tmp_path / "out", **extra)
    if datasets is not None:
        doc["datasets"] = datasets
    return write_config(tmp_path, doc)


def _series_csv(tmp_path, body):
    path = tmp_path / "series.csv"
    path.write_bytes(body)
    return path


def _checkpoint(tmp_path, input_size=16, **meta):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(default_layer_sizes(input_size, (16, 4)), seed=0), path,
                    meta={"loss": "strad", **meta})
    return path


def _detect(tmp_path, ckpt, cfgp=None):
    return ["detect", "-c", cfgp or _config(tmp_path), "--checkpoint", str(ckpt)]


def _truncated_checkpoint(tmp_path):
    ckpt = _checkpoint(tmp_path)
    text = ckpt.read_text()
    ckpt.write_text(text[:text.index(text.splitlines()[-2]) + 4])
    return _detect(tmp_path, ckpt)


def _mismatched_checkpoint(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(DenseAutoencoder((16, 4, 8), np.zeros(17 * 4 + 5 * 8)), ckpt)
    return _detect(tmp_path, ckpt)


def _nan_checkpoint(tmp_path):
    ckpt = _checkpoint(tmp_path)
    lines = ckpt.read_text().splitlines()
    nan = np.full_like(load_checkpoint(ckpt)[0].params, np.nan)
    lines[-2] = base64.b64encode(nan.tobytes()).decode("ascii")
    ckpt.write_text("\n".join(lines) + "\n")
    return _detect(tmp_path, ckpt)


def _unlabelled(tmp_path, command, **extra):
    data = _series_csv(tmp_path, b"v0\n" + b"".join(b"%r\n" % math.sin(i / 5) for i in range(600)))
    cfgp = _config(tmp_path, _csv_datasets("nolabels", data, data, label_column=None), **extra)
    if command == "detect":
        return _detect(tmp_path, _checkpoint(tmp_path), cfgp)
    return [command, "-c", cfgp]


def _second_dataset(tmp_path, edit):
    doc = small_config(tmp_path / "out")
    doc["datasets"].append(edit(copy.deepcopy(doc["datasets"][0])))
    return ["compare", "-c", write_config(tmp_path, doc)]


def _stronger(dataset):
    dataset["name"] = "second"
    dataset["synth"]["anomalies"][0]["magnitude"] = 40.0
    return dataset


def _unencodable_name(tmp_path):
    doc = small_config(tmp_path / "out")
    doc["datasets"][0]["name"] = "sh\udcffx"
    return ["compare", "-c", write_config(tmp_path, doc)]


HUGE_ROWS = b"v0,label\n" + b"".join(b"%r,0\n" % (1e300 * math.sin(i)) for i in range(600))
LONG_CELL = b"v0,label\n" + b"1" * 200_000 + b",0\n" + b"0.5,0\n" * 40

# id -> (argv of tmp_path, exit code, a piece of stderr): the config and data
# rejections of train, detect, compare and ablate that the tests above check
REJECTIONS = {
    "train/overflowing_series": (
        lambda p: ["train", "-c", _config(p, _csv_datasets(
            "huge", *[_series_csv(p, HUGE_ROWS)] * 2))],
        2, "error: huge_train: channel 0 has a mean or std that overflows"),
    "train/missing_csv": (
        lambda p: ["train", "-c", _config(p, _csv_datasets("ext", *[p / "missing.csv"] * 2))],
        1, "missing.csv"),
    "train/missing_test_csv": (
        lambda p: ["train", "-c", _config(p, _csv_datasets(
            "ext", _series_csv(p, b"v0,label\n" + b"0.5,0\n" * 100), p / "missing.csv"))],
        1, "missing.csv"),
    "train/cell_over_the_csv_field_limit": (
        lambda p: ["train", "-c", _config(p, _csv_datasets(
            "long", *[_series_csv(p, LONG_CELL)] * 2))],
        2, "field larger than field limit"),
    "train/undecodable_series_csv": (
        lambda p: ["train", "-c", _config(p, _csv_datasets(
            "ext", *[_series_csv(p, b"v0,label\n\xff,0\n")] * 2))],
        2, "cannot decode"),
    "train/csv_path_no_file_name_can_hold": (
        lambda p: ["train", "-c", _config(p, _csv_datasets(
            "ext", p / "t\ud800.csv", _series_csv(p, b"v0,label\n0.0,0\n")))],
        1, "config error: datasets.0.csv.train_path: cannot encode"),
    "train/unknown_trend_variant": (
        lambda p: ["train", "-c", _config(p), "--set", 'loss_weights.trend_variant="x"'],
        1, "config error: loss_weights: trend_variant must be one of"),
    "train/out_of_memory": (
        lambda p: ["train", "--set", "model.hidden=[1000000000000000]"],
        2, "error: out of memory: Unable to allocate 917. PiB for an array"),
    "train/missing_config_file": (
        lambda p: ["train", "-c", "/nonexistent/cfg.json"],
        1, "error: no such file: /nonexistent/cfg.json"),
    "train/config_whose_top_level_is_a_list": (
        lambda p: ["train", "-c", write_config(p, [small_config(p / "out")])],
        1, "top level must be an object"),
    "train/unknown_key": (
        lambda p: ["train", "-c", write_config(p, {"bogus": 1})],
        1, "bogus"),
    "train/unindexable_hidden_sizes": (
        lambda p: ["train", "-c", _config(p), "--set", f"model.hidden=[{HUGE}]"],
        1, "model.hidden: layer sizes"),
    "detect/missing_checkpoint": (
        lambda p: _detect(p, p / "missing.ckpt"), 1, "missing.ckpt"),
    "detect/directory_checkpoint": (
        lambda p: _detect(p, p), 1, "not a readable file"),
    "detect/output_size_other_than_input": (
        _mismatched_checkpoint, 2, "model.ckpt: output size 8 must equal input size 16"),
    "detect/truncated_checkpoint": (_truncated_checkpoint, 2, "model.ckpt: "),
    "detect/corrupt_checkpoint": (
        _nan_checkpoint, 2, "model.ckpt: checkpoint contains non-finite parameters"),
    "detect/unknown_checkpoint_loss": (
        lambda p: _detect(p, _checkpoint(p, loss="huber")), 2, "model.ckpt: loss must be one of"),
    "detect/checkpoint_of_another_input_size": (
        lambda p: _detect(p, _checkpoint(p, 32)),
        2, "error: checkpoint expects input size 32, configuration implies 16"),
    "detect/best_f1_on_unlabelled_csv": (
        lambda p: _unlabelled(p, "detect", threshold={"mode": "best_f1"}),
        2, "error: nolabels_test: best_f1 thresholding requires test labels\n"),
    "compare/single_loss": (
        lambda p: ["compare", "-c", _config(p, compare={"losses": ["mse"]})],
        1, "at least two loss entries"),
    "compare/mse_required": (
        lambda p: ["compare", "-c", _config(p, compare={"losses": ["strad", "mse_plus_strad"]})],
        1, "requires 'mse' among the losses"),
    "compare/score_stride_beyond_window": (
        lambda p: ["compare", "-c", _config(p, window={"length": 8, "score_stride": 100})],
        1, "window.score_stride"),
    "compare/name_the_outputs_cannot_encode": (
        _unencodable_name, 1, "config error: datasets.0.name: 'sh\\udcffx': cannot encode"),
    "compare/bad_second_dataset": (
        lambda p: _second_dataset(p, _stronger),
        1, "datasets.1.synth.anomalies.0: scaled frequency"),
    "compare/missing_second_csv": (
        lambda p: _second_dataset(
            p, lambda _: _csv_datasets("second", *[p / "missing.csv"] * 2)[0]),
        1, "missing.csv"),
    "compare/unlabelled_csv_dataset": (
        lambda p: _unlabelled(p, "compare"),
        2, "error: dataset nolabels: evaluation requires test labels\n"),
    "compare/default_config_without_segments": (
        lambda p: ["compare", "--seed", "0"], 2, "error: total segment count is zero\n"),
    "ablate/zero_loss_weight": (
        lambda p: ["ablate", "-c", _config(p), "--set", "loss_weights.lambda1=0"],
        1, "cmd ablate needs every loss weight positive"),
    "ablate/default_config_without_segments": (
        lambda p: ["ablate", "--seed", "0"], 2, "error: total segment count is zero\n"),
}

# Rejections that only a fit or its scores can show, so exempt from the table:
# the message, and the settings of `small_config` that bring it about.
NEEDS_A_FIT = {
    "error: non-finite loss during training\n": ["--set", "train.lr=1e300"],
}


def unfit(monkeypatch):
    """`train` and `score` raise `Fitted`, wherever the experiments call them."""
    def fitted(*args):
        raise Fitted

    monkeypatch.setattr(strad.experiments, "train", fitted)
    monkeypatch.setattr(strad.experiments, "score", fitted)


class TestRejectBeforeFit:
    @pytest.mark.parametrize("row", list(REJECTIONS))
    def test_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch, row):
        argv, code, message = REJECTIONS[row]
        unfit(monkeypatch)
        assert main([*argv(tmp_path), "-o", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # on the way
    @pytest.mark.parametrize("message", list(NEEDS_A_FIT))
    def test_exempt_rejection_needs_a_fit(self, tmp_path, capsys, monkeypatch, message):
        argv = ["compare", "-c", _config(tmp_path), *NEEDS_A_FIT[message]]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        unfit(monkeypatch)
        with pytest.raises(Fitted):
            main(argv)
