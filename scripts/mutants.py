"""Mutation checks: each entry breaks one spot of `src/strad` and names the tests
that must then fail.

Run from the repository root (stdlib only; each mutant runs pytest once):

    python3 scripts/mutants.py                  # every entry
    python3 scripts/mutants.py --only adam_folded_step_size

For each entry the script copies `COPIED`, the package, its tests and the
repository files they read, into a fresh temporary directory (under `TMPDIR`
if set), replaces the entry's old snippet, which must occur exactly once, with
its new one, and runs pytest on the entry's tests there. A mutant is "killed"
when pytest reports failures or errors, "survived" when the tests pass, and
"error" when pytest could not run them (exit 4 or 5) or ran past 15 minutes.
First the chosen entries' tests run once on an unmutated copy, as "baseline":
a failure there would make every mutant look killed. The script prints one
JSON object, {name: outcome}, and exits 1 unless the baseline passed and every
mutant was killed. `tests/test_mutants.py` checks in Tier-1 that every old
snippet still occurs exactly once, so the table cannot go stale unnoticed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# relative to the repository root: the package, its tests and every file they read
COPIED = ("src", "tests", "pyproject.toml", "README.md", "configs/pattern_benchmark.json",
          "scripts/run_pattern_benchmark.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/strad
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("test_split_own_statistics", "experiments.py",
           "apply_normalization(test_raw, stats)",
           "apply_normalization(test_raw, fit_normalization(test_raw))",
           ("tests/test_config_cli.py::TestCliDetect",)),
    Mutant("ablation_keeps_lambda1", "experiments.py",
           "lambda1=base.lambda1 if use_trend else 0.0",
           "lambda1=base.lambda1",
           ("tests/test_config_cli.py::TestCliAblate",)),
    Mutant("sweep_drops_closed_gap_term", "metrics.py",
           "+ on(np.minimum.reduceat(padded, truth.gap_runs)[::2]))",
           "+ 0)",
           ("tests/test_detector.py", "tests/test_metrics.py")),
    Mutant("pa_sweep_segment_one_point_short", "metrics.py",
           "np.repeat(hit, truth.segments[:, 1] - truth.segments[:, 0] + 1)",
           "np.repeat(hit, truth.segments[:, 1] - truth.segments[:, 0])",
           ("tests/test_detector.py", "tests/test_metrics.py")),
    Mutant("segment_end_bound_unchecked", "metrics.py",
           "(ends >= len(preds))",
           "(ends > len(preds))",
           ("tests/test_metrics.py",)),
    Mutant("parse_columns_drops_width_check", "series.py",
           'if seps.size != ncol * nrows or (body[seps.reshape(nrows, ncol)[:, :-1]]'
           ' != ord(",")).any():',
           "if seps.size != ncol * nrows:",
           ("tests/test_series.py",)),
    Mutant("pair_weight_of_bin_n_over_2", "losses.py",
           "weights[-1] = 1.0  # and so is bin n/2",
           "weights[-1] = 2.0  # and so is bin n/2",
           ("tests/test_spectral.py",)),
    Mutant("adam_folded_step_size", "model.py",
           "step_size = state.lr * sqrt_c2 / (1.0 - ADAM_BETA1 ** state.step)",
           "step_size = state.lr / (1.0 - ADAM_BETA1 ** state.step)",
           ("tests/test_model.py",)),
    Mutant("checkpoint_byte_count_unchecked", "model.py",
           "if len(raw) != 8 * count:",
           "if False:",
           ("tests/test_model.py", "tests/test_config_cli.py::TestCliDetect")),
    Mutant("checkpoint_layer_sizes_unchecked", "model.py",
           'raise CheckpointError(f"{path}: {exc}") from None',
           "pass",
           ("tests/test_model.py", "tests/test_config_cli.py::TestCliDetect")),
    Mutant("history_drops_mse_term", "detector.py",
           '"mse": mvalues, ',
           "",
           ("tests/test_detector.py",)),
    Mutant("score_adds_windows_newest_first", "detector.py",
           "np.add.at(sums[lo * stride :], points[: part.size], part.ravel())",
           "np.add.at(sums[lo * stride :], points[: part.size][::-1], part.ravel()[::-1])",
           ("tests/test_detector.py::TestOverlapAdd",)),
    Mutant("score_channel_sum_from_last", "detector.py",
           "np.abs(err, out=err)",
           "np.abs(err, out=err)\n        err = err[:, :, ::-1]",
           ("tests/test_detector.py::TestChannelSum",)),
    Mutant("trend_sign_subgradient_flipped", "losses.py",
           "SLOPE_TIE, 0.0, np.sign(diff))",
           "SLOPE_TIE, 0.0, -np.sign(diff))",
           ("tests/test_losses.py",)),
    Mutant("normalization_std_unfloored", "series.py",
           "std = np.maximum(std, STD_FLOOR)",
           "std = std",
           ("tests/test_series.py",)),
    Mutant("fixed_threshold_never_degenerate", "experiments.py",
           "degenerate = threshold <= scores.scores.min()",
           "degenerate = False",
           ("tests/test_config_cli.py::TestCliCompare",)),
    Mutant("float_key_keeps_an_int", "config.py",
           "return float(given)",
           "return given",
           ("tests/test_config_cli.py::TestOneHashPerConfig",)),
    Mutant("channel_value_finite_unchecked", "synth.py",
           "if not math.isfinite(getattr(self, key)):",
           "if False:",
           ("tests/test_config_cli.py::TestExitCodes",)),
    Mutant("csv_error_uncaught", "series.py",
           "except csv.Error as exc:",
           "except UnicodeError as exc:",
           ("tests/test_config_cli.py::TestCliEval", "tests/test_config_cli.py::TestCsvDatasetSource")),
    Mutant("train_split_drawn_full_length", "synth.py",
           "length=train_length(cfg, train_fraction)",
           "length=cfg.length",
           ("tests/test_benchmarks.py", "tests/test_synth.py::TestMakeBenchmark")),
    Mutant("injection_deterministic_shifted", "synth.py",
           "_deterministic(cfg, j)",
           "_deterministic(cfg, j + 1)",
           ("tests/test_synth.py::TestInject::test_seasonal_identity_magnitude",)),
    Mutant("f1_at_alignment_unchecked", "metrics.py",
           "if np.shape(scores) != truth.labels.shape:",
           "if False:",
           ("tests/test_detector.py::TestF1At",)),
    Mutant("memory_error_escapes_main", "cli.py",
           "except MemoryError",
           "except ArithmeticError",
           ("tests/test_config_cli.py::TestExitCodes",)),
    Mutant("phases_divide_small_bins", "losses.py",
           ", where=mod >= ZERO_MODULUS)",
           ")",
           ("tests/test_losses.py::TestKernelsAgainstOracles::test_seasonality",)),
    Mutant("seasonality_values_contiguous_sum", "losses.py",
           "np.ascontiguousarray(np.swapaxes(mod, 1, 2)).swapaxes(1, 2) @ _pair_weights(n)",
           "mod @ _pair_weights(n)",
           ("tests/test_losses.py::TestKernelsAgainstOracles::test_seasonality",)),
    Mutant("eval_repeated_metric_unchecked", "experiments.py",
           "if len(set(metrics)) != len(metrics):",
           "if False:",
           ("tests/test_config_cli.py::TestEvalInputs::test_repeated_metric",)),
    Mutant("train_cmd_generates_test_split", "experiments.py",
           "train_raw = materialize_train(cfg, 0)",
           "train_raw, _ = materialize_dataset(cfg, 0)",
           ("tests/test_config_cli.py::TestCliTrain::test_synth_dataset_draws_only_the_train_split",)),
    Mutant("recall_guard_tp_minus_fn", "metrics.py",
           "self.tp + self.fn",
           "self.tp - self.fn",
           ("tests/test_metrics.py::TestConfusionCounts::test_as_many_found_as_missed",
            "tests/test_detector.py::TestF1At::test_rpa_finding_half_the_segments")),
    Mutant("entire_f1_rejects_zero_segments", "metrics.py",
           "if any(e < 0 for e in counts):",
           "if any(e <= 0 for e in counts):",
           ("tests/test_metrics.py::TestEntireF1::test_subdataset_without_segments_weighs_nothing",
            "tests/test_config_cli.py::TestCliCompare::test_dataset_without_anomalies_has_zero_segments")),
    Mutant("no_pairs_read_as_one_pair", "metrics.py",
           "np.empty((0, 2), np.int64)",
           "np.empty((1, 2), np.int64)",
           ("tests/test_metrics.py::TestPointAdjust::test_no_pairs_leaves_preds_unchanged",
            "tests/test_metrics.py::TestRpaCounts::test_no_pairs_counts_runs_as_false_positives")),
    Mutant("train_step_keeps_its_arrays", "detector.py",
           "del values, v, g, grads, upstream, grad",
           "pass",
           ("tests/test_detector.py::TestTrainMemory",)),
    Mutant("lockstep_history_sums_the_run", "detector.py",
           "v.reshape(b - a, -1).sum(axis=1).tolist()",
           "[float(v.sum())] * (b - a)",
           ("tests/test_detector.py::TestLockstep::test_each_fit_gets_its_bits_alone",)),
    Mutant("checkpoint_joined_as_text", "model.py",
           'header + base64.b64encode(memoryview(params)) + b"\\nend\\n"',
           '(header.decode() + "\\n".join([base64.b64encode(params.tobytes()).decode("ascii"), "end"])'
           ' + "\\n").encode()',
           ("tests/test_model.py::TestCheckpoint::test_save_peak_is_under_three_parameter_vectors",)),
    Mutant("fan_out_raises_highest_failing_share", "fanout.py",
           "for w in range(workers):  # lowest share first",
           "for w in reversed(range(workers)):  # highest share first",
           ("tests/test_fan_out.py::test_lowest_index_failure_wins",
            "tests/test_fan_out.py::test_shares_mix_children_and_this_process")),
    Mutant("segment_total_checked_after_the_fits", "experiments.py",
           "    segment_total([len(segments_from_labels(test_norm.labels)) for _, test_norm in data])\n",
           "",
           ("tests/test_config_cli.py::TestRejectBeforeFit",)),
)


def copy_tree(tree: Path) -> None:
    """Copy `COPIED` from the repository into `tree`, without bytecode caches."""
    for rel in COPIED:
        source, target = ROOT / rel, tree / rel
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, target)


def run(tests, mutant=None) -> str:
    """Run `tests` on a fresh copy of the tree, with `mutant` applied if given.

    Returns "passed", "failed" or "error".
    """
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            target = tree / "src" / "strad" / mutant.file
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return "error"
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                   "no:cacheprovider", *tests],
                                  cwd=tree, env=env, capture_output=True, timeout=900)
        except subprocess.TimeoutExpired:  # a mutant that makes the tests hang
            return "error"
    if proc.returncode in (4, 5):  # usage error, or no tests collected
        return "error"
    return "failed" if proc.returncode != 0 else "passed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run just these entries")
    args = parser.parse_args(argv)
    names = {m.name for m in MUTANTS}
    unknown = sorted(set(args.only or ()) - names)
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    outcomes = {"baseline": run(tests)}
    if outcomes["baseline"] == "passed":
        for m in chosen:
            result = run(m.tests, m)
            outcomes[m.name] = {"failed": "killed", "passed": "survived"}.get(result, result)
    print(json.dumps(outcomes, indent=2))
    return 0 if all(o in ("passed", "killed") for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
