import base64
import copy
import json
import math

import numpy as np
import pytest

import strad.experiments
from strad import gradcheck
from strad.cli import _load, build_parser, main
from strad.config import config_hash, load_config, resolve
from strad.errors import ConfigError
from strad.detector import ScoreSeries
from strad.experiments import evaluate, read_scores_csv
from strad.model import load_checkpoint
from strad.series import load_csv, segments_from_labels


# a JSON integer beyond float range
HUGE = "1" + "0" * 400


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
        assert cfg.loss_weights.lambda1 == 1.5
        assert cfg.loss_weights.lambda2 == 10.0
        assert cfg.loss_weights.epsilon == 1e-7

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
        assert cfg.seed == 9 and cfg.window_length == 32 and cfg.train_loss == "mse"

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

    def test_score_rows_equal_series_length(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        scores = read_scores_csv(out / "demo_scores.csv")
        assert scores.shape == (600,)

    def test_segments_rederivable_from_scores_and_threshold(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        summary = json.loads((out / "demo_detect.json").read_text())
        scores = read_scores_csv(out / "demo_scores.csv")
        preds = (scores >= summary["threshold"]).astype(int)
        expected = [(s.start, s.end) for s in segments_from_labels(preds)]
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

    def test_directory_checkpoint_exits_2(self, tmp_path):
        out = self.run_train_detect(tmp_path)
        assert main(["detect", "-c", str(tmp_path / "out.json"), "--checkpoint", str(out)]) == 2

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

    def test_nan_threshold_is_usage_error(self, tmp_path, capsys):
        sc, data = write_eval_pair(tmp_path, "m", [0, 1, 0], [0, 7, 0])
        out = tmp_path / "rep"
        assert main(["eval", "--scores", str(sc), "--data", str(data),
                     "--threshold", "nan", "-o", str(out)]) == 1
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


class TestCliCompare:
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

    def test_shape_only_row_equals_zeroed_weights_run(self, tmp_path):
        from strad.config import load_config as load
        from strad.experiments import materialize_dataset, run_arm
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
        manual = run_arm(cfg, 0, "strad", materialize_dataset(cfg, 0),
                         weights=LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0,
                                             epsilon=1e-7, trend_variant="monotone"))
        assert float(shape_only["entire_rpa_f1"]) == manual["rpa_f1"]
        assert float(shape_only["entire_pa_f1"]) == manual["pa_f1"]


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


class TestExitCodes:
    def test_missing_config_file(self):
        assert main(["train", "-c", "/nonexistent/cfg.json"]) == 1

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
    ], ids=["frequency", "length", "noise", "fraction", "empty-split", "omega", "no-channels",
            "point-length", "range", "channel", "huge-noise", "huge-fraction", "huge-length",
            "huge-amplitude", "huge-phase", "huge-slope", "huge-magnitude"])
    def test_synth_value_fails_at_load_naming_its_key(self, tmp_path, capsys, expected, edit):
        # every value is checked before any output directory exists
        doc = small_config(tmp_path / "out")
        edit(doc["datasets"][0]["synth"])
        assert main(["synth", "-c", write_config(tmp_path, doc)]) == 1
        assert expected in capsys.readouterr().err
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
