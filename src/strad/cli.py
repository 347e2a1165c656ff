"""Command-line experiment harness.

Subcommands: synth, train, detect, eval, compare, ablate, gradcheck. All
commands are config-file-first (`--config experiment.json`) with individual
`--set key.path=value` overrides. Exit codes: 0 success, 1 usage/config error,
2 runtime/numeric error, 3 gradcheck failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import gradcheck as gradcheck_mod
from .config import ExperimentConfig, load_config
from .errors import ConfigError, StradError
from .experiments import (
    run_ablate,
    run_compare,
    run_detect_cmd,
    run_eval_cmd,
    run_synth,
    run_train_cmd,
)

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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--metric", action="append", choices=["rpa", "pa"], default=None,
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
    p.add_argument("--perturb", choices=gradcheck_mod.ALL_COMPONENTS, default=None,
                   help="test hook: corrupt one analytic gradient to force a failure")
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
    if len(args.scores) != len(args.data):
        raise ConfigError("--scores and --data must be given the same number of times")
    metrics = args.metric or ["rpa", "pa"]
    digest = hashlib.sha256()
    for name in args.scores + args.data:
        path = Path(name)
        if path.exists():  # provenance reflects input content, not location
            digest.update(path.read_bytes())
    digest = digest.hexdigest()[:12]
    report = run_eval_cmd(
        pairs=[(Path(s), Path(d)) for s, d in zip(args.scores, args.data)],
        metrics=metrics,
        outdir=Path(args.output_dir),
        label_column=args.label_column,
        thresholds=args.threshold,
        prov=f"# config=eval-{digest} seed=0",
    )
    for row in report.rows:
        cells = " ".join(f"{m}_f1={getattr(row, f'{m}_f1'):.6f}" for m in metrics)
        print(f"{row.name}: segments={row.segment_count} {cells}")
    entire = " ".join(f"{m}_f1={getattr(report, f'entire_{m}_f1'):.6f}" for m in metrics)
    print(f"ENTIRE: {entire}")
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
    results = gradcheck_mod.run_all(
        seed=args.seed,
        n_windows=args.windows,
        n_models=args.models,
        layer_sizes=tuple(args.sizes),
        perturb=args.perturb,
    )
    report = gradcheck_mod.format_report(results)
    print(report)
    if args.output:
        prov = (f"# config=gradcheck-w{args.windows}-m{args.models}-"
                f"{'x'.join(str(s) for s in args.sizes)} seed={args.seed}")
        Path(args.output).write_text(prov + "\n" + report + "\n")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
