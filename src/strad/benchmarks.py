"""Canned benchmark configurations for desk-scale experiments.

The pattern benchmark has four synthetic sub-datasets, one per pattern-anomaly
family (waveform swap, frequency shift, drift ramp) plus a mixed one that also
includes point spikes. Each sub-dataset carries eight labeled anomaly segments
in its test split. Sub-dataset seeds derive from the experiment seed, so a
seed sweep varies data, model init, and batch order together.
"""

from __future__ import annotations

import numpy as np

SEGMENT_LENGTH = 80
SEGMENTS_PER_DATASET = 8


def _starts(length: int) -> list[int]:
    # margin scales with the series (300 at the default length 4000) and keeps
    # the eight segments disjoint down to length 1000
    margin = length * 3 // 40
    return [int(s) for s in np.linspace(margin, length - margin - SEGMENT_LENGTH,
                                        SEGMENTS_PER_DATASET)]


def _anomalies(kind: str, length: int) -> list[dict]:
    starts = _starts(length)
    if kind == "mixed":
        cycle = ("shapelet_pattern", "seasonal_pattern", "trend_pattern", "global_point")
        specs = []
        for i, start in enumerate(starts):
            k = cycle[i % len(cycle)]
            specs.append(_one(k, start))
        return specs
    return [_one(kind, start) for start in starts]


def _one(kind: str, start: int) -> dict:
    if kind == "global_point":
        return {"kind": kind, "start": start, "length": 1, "magnitude": 8.0}
    magnitude = {"shapelet_pattern": 1.0, "seasonal_pattern": 1.6, "trend_pattern": 0.02}[kind]
    return {"kind": kind, "start": start, "length": SEGMENT_LENGTH, "magnitude": magnitude}


def pattern_benchmark_config(
    seed: int = 0,
    length: int = 4000,
    epochs: int = 20,
    quantile: float = 0.99,
    losses: tuple[str, ...] = ("mse", "strad"),
) -> dict:
    """Configuration document for the four-sub-dataset pattern benchmark: only
    the settings that differ from `config.DEFAULTS`, which `resolve` fills in."""
    return {
        "seed": seed,
        # null derives the same stride (64 // 2) but hashes differently, so
        # spelling it out keeps the benchmark's config_hash
        "window": {"train_stride": 32},
        "train": {"epochs": epochs},
        "threshold": {"q": quantile},
        "compare": {"losses": list(losses)},
        "datasets": [{"name": name, "synth": {"length": length,
                                              "anomalies": _anomalies(kind, length)}}
                     for name, kind in (("shapelet", "shapelet_pattern"),
                                        ("seasonal", "seasonal_pattern"),
                                        ("trend", "trend_pattern"),
                                        ("mixed", "mixed"))],
    }
