#!/usr/bin/env python3
"""Seed sweep of MSE vs the structural objective on the pattern benchmark.

Trains both arms on each of the four sub-datasets for every seed, evaluates
entire-dataset and per-sub-dataset RPA/PA F1 at the configured quantile
threshold, and prints per-arm medians.

Usage: python scripts/run_pattern_benchmark.py [--seeds 5] [--epochs 20]
"""

import argparse
import time

import numpy as np

from strad.benchmarks import pattern_benchmark_config
from strad.config import build, resolve
from strad.experiments import run_compare


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--length", type=int, default=4000)
    parser.add_argument("--quantile", type=float, default=0.99)
    args = parser.parse_args()

    per_dataset = {}
    entire = {}  # (arm, metric) in the order of compare's summary rows
    start = time.time()
    for seed in range(args.seeds):
        doc = pattern_benchmark_config(seed=seed, length=args.length,
                                       epochs=args.epochs, quantile=args.quantile)
        cfg = build(resolve(doc))
        outcome = run_compare(cfg)
        for row in outcome.per_arm_dataset:
            for metric in cfg.eval_metrics:
                key = (row["arm"], row["dataset"], metric)
                per_dataset.setdefault(key, []).append(row[f"{metric}_f1"])
        for row in outcome.summary:
            entire.setdefault((row["arm"], row["metric"]), []).append(row["entire_f1"])
        print(f"seed {seed} done ({time.time() - start:.1f}s)")

    names = [ds.name for ds in cfg.datasets]
    print(f"\nmedian F1 over {args.seeds} seeds "
          f"(quantile threshold q={args.quantile}):\n")
    header = f"{'arm':<8} {'metric':<7} " + " ".join(f"{d:>9}" for d in names) + f" {'entire':>9}"
    print(header)
    print("-" * len(header))
    for (arm, metric), ents in entire.items():
        cells = [float(np.median(per_dataset[(arm, d, metric)])) for d in names]
        row = " ".join(f"{c:>9.4f}" for c in cells)
        print(f"{arm:<8} {metric:<7} {row} {float(np.median(ents)):>9.4f}")


if __name__ == "__main__":
    main()
