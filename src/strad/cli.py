"""Command-line experiment harness.

Subcommands: synth, train, detect, eval, compare, ablate, gradcheck. All
commands are config-file-first (`--config experiment.json`) with individual
`--set key.path=value` overrides. Exit codes: 0 success, 1 usage/config error,
2 runtime/numeric error, 3 gradcheck failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from .fanout import BLAS_THREAD_VARS  # loads no numpy

# One BLAS thread per process, so that `compare` and `ablate` fan their fits
# out over the usable CPUs (`fanout.fan_out`). It only takes effect before
# numpy loads, and a variable the caller set is kept; the defaults also reach
# every process started from here.
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

from . import gradcheck as gradcheck_mod  # loads numpy
from .config import ExperimentConfig, load_config
from .errors import ConfigError, StradError
from .experiments import (
    DEGENERATE,
    run_ablate,
    run_compare,
    run_detect_cmd,
    run_eval_cmd,
    run_synth,
    run_train_cmd,
)
from .metrics import THRESHOLD_METRICS
from .series import write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_GRADCHECK = 3


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", "-c", help="JSON configuration file (defaults apply without one)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY.PATH=VALUE", help="override one configuration entry")
    parser.add_argument("--output-dir", "-o", help="override the configured output directory")
    parser.add_argument("--seed", type=int, help="override the configured seed")


def _load(args: argparse.Namespace) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.output_dir is not None:
        overrides.append(f"output_dir={json.dumps(args.output_dir)}")
    return load_config(args.config, overrides)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves it unchanged: every call gets a fresh namespace, and
    argparse copies an `append` option's default list before appending.
    """
    parser = argparse.ArgumentParser(prog="strad",
                                     description="structure-aware anomaly detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate benchmark CSVs plus a manifest")
    _add_config_args(p)

    p = sub.add_parser("train", help="train on the first configured dataset")
    _add_config_args(p)

    p = sub.add_parser("detect", help="score and threshold the first dataset's test split")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file from `strad train`")

    p = sub.add_parser("eval", help="evaluate score files against labeled CSVs")
    p.add_argument("--scores", action="append", required=True, help="score CSV (repeatable)")
    p.add_argument("--data", action="append", required=True, help="labeled series CSV (repeatable)")
    p.add_argument("--label-column", default="label")
    p.add_argument("--metric", action="append", choices=THRESHOLD_METRICS, default=None,
                   help="metric to report (repeatable; default both)")
    p.add_argument("--threshold", action="append", type=float, default=None,
                   help="fixed threshold per pair (single value broadcasts); default best-F1 sweep")
    p.add_argument("--output-dir", "-o", default="out")

    p = sub.add_parser("compare", help="compare configured loss arms against the MSE baseline")
    _add_config_args(p)

    p = sub.add_parser("ablate", help="run the 7 component subsets of the combined objective")
    _add_config_args(p)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--windows", type=int, default=100, help="random windows per loss component")
    p.add_argument("--models", type=int, default=10, help="random models per end-to-end check")
    p.add_argument("--sizes", type=int, nargs="+", default=[4, 3, 2, 3, 4],
                   help="layer sizes of the end-to-end check model")
    p.add_argument("--output", "-o", default=None, help="also write the report to a file")
    return parser


def _cmd_synth(args) -> int:
    cfg = _load(args)
    written = run_synth(cfg, Path(cfg.output_dir))
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load(args)
    ckpt, hist = run_train_cmd(cfg, Path(cfg.output_dir))
    print(ckpt)
    print(hist)
    return EXIT_OK


def _cmd_detect(args) -> int:
    cfg = _load(args)
    summary = run_detect_cmd(cfg, Path(args.checkpoint), Path(cfg.output_dir))
    print(f"threshold {summary['threshold']:.17g} ({summary['threshold_mode']})")
    print(Path(cfg.output_dir) / summary["scores_csv"])
    print(Path(cfg.output_dir) / summary["segments_csv"])
    return EXIT_OK


def _cmd_eval(args) -> int:
    metrics = args.metric or list(THRESHOLD_METRICS)
    *rows, entire = run_eval_cmd(args.scores, args.data, metrics, Path(args.output_dir),
                                 args.label_column, args.threshold)
    for row in rows:
        cells = " ".join(f"{m}_f1={row[f'{m}_f1']:.6f}"
                         + (f" {DEGENERATE}" if m in row["degenerate"] else "") for m in metrics)
        print(f"{row['name']}: segments={row['segments']} {cells}")
    print("ENTIRE: " + " ".join(f"{m}_f1={entire[f'{m}_f1']:.6f}" for m in metrics))
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load(args)
    outcome = run_compare(cfg, Path(cfg.output_dir))
    for row in outcome.summary:
        improved = row["avg_improved"]
        air_v = row["air"]
        extra = "" if improved == "" else f" avg_improved={improved:.6f} air={air_v:.6f}"
        print(f"{row['arm']} {row['metric']}: entire_f1={row['entire_f1']:.6f}{extra}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _load(args)
    rows = run_ablate(cfg, Path(cfg.output_dir))
    for row in rows:
        flags = f"T={row['trend']} S={row['seasonality']} Sh={row['shape']}"
        f1s = " ".join(f"{m}_f1={row[f'entire_{m}_f1']:.6f}" for m in cfg.eval_metrics)
        print(f"{flags}: {f1s}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_all(args.seed, args.windows, args.models, tuple(args.sizes))
    report = gradcheck_mod.format_report(results)
    print(report)
    if args.output:
        prov = (f"# config=gradcheck-w{args.windows}-m{args.models}-"
                f"{'x'.join(str(s) for s in args.sizes)} seed={args.seed}")
        write_text(args.output, prov + "\n" + report + "\n")
    failing = [r.component for r in results if not r.passed]
    if failing:
        print(f"FAILED components: {', '.join(failing)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """`--threshold -1e-05` as `--threshold=-1e-05`.

    argparse takes a separate value that starts with '-' for an option unless
    it is a plain decimal, so `-inf` and a negative number in exponent form,
    as `%.17g` prints it, could only be given after '='.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--threshold" and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                joined[-1] = f"--threshold={arg}"
                continue
        joined.append(arg)
    return joined


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    with warnings.catch_warnings():  # a warning is one plain line, without source path or line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:  # a model or series too large to allocate
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except StradError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
