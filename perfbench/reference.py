"""A fixed unit of CPU work that runs no strad code: the benchmark's yardstick.

The host's speed drifts in phases of tens of seconds, by more than the bounds
the benchmark keeps. `reference()` is timed between every two ops, and each
op's wall time is divided by the mean of the reference times around it. The
ratio is the op's time in "ref" units. It cancels most of that drift, because
the reference and the op run on the same core in the same phase. The mix
follows strad's own profile: FFTs, a pure-Python loop, number formatting and
a threshold sweep of numpy calls on small arrays. It takes 22 to 45 ms on a
2-vCPU x86-64 virtual machine, by the host's phase. Its inputs and work are fixed, so it must
never change once numbers have been recorded against it.
"""

from __future__ import annotations

import time

import numpy as np

# The reference's time in the fast phase of the 2-vCPU machine the bounds were
# set on. `setup_s` is the set-up time in refs times this: seconds at that speed.
NOMINAL_S = 0.022

_RNG = np.random.default_rng(12345)
_SIGNAL = _RNG.standard_normal(4096)
_SMALL = _RNG.standard_normal((64, 32))
_SCORES = _RNG.standard_normal(1000)
_LABELS = _SCORES > 1.0
_THRESHOLDS = np.sort(_SCORES)[::4]


def _kernel() -> float:
    spectrum = 0.0
    for _ in range(200):
        spectrum += float(np.abs(np.fft.rfft(_SIGNAL))[1])
    total = 0
    for k in range(100_000):
        total += k * k % 7
    text = ",".join(f"{v:.6g}" for v in _SIGNAL) + ",".join(f"{v:.6g}" for v in _SMALL.ravel())
    hits = runs = 0
    for threshold in _THRESHOLDS:
        predicted = _SCORES >= threshold
        hits += int(np.count_nonzero(predicted & _LABELS))
        runs += np.flatnonzero(np.diff(predicted.astype(np.int8))).size
    return spectrum + total + len(text) + hits + runs


def reference() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
