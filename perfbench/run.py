#!/usr/bin/env python3
"""Benchmark of strad's workloads: closed loop, one client, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload compare --seed 0 --seconds 25 --trace 0

The package is imported from ./src, never from an installed copy. The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the lines
before it hold the environment and a report. With --trace 0 the metrics are
the end-to-end ones, with op times in units of the reference kernel of
perfbench/reference.py, timed between ops. With --trace 1 ops alternate
between plain and traced runs of the same inputs, and the metrics are the
per-layer ones, averaged over the traced ops. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"  # scratch outputs and span files; git-ignored
WORKLOAD_NAMES = ("compare", "train_scaled", "eval_sweep")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one setup: for the smoke test, not for numbers")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "strad_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "strad").rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def attempt(workload, i: int, tracer=None) -> tuple[float, list[str]]:
    """Run op i and time it, then check its output: (seconds, problems)."""
    out, problems = None, []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with tracer.op(i) if tracer is not None else contextlib.nullcontext():
            out = workload.op(i)
    except Exception as exc:  # a failed op is counted, and the run goes on
        traceback.print_exc()
        problems = [f"op raised {exc!r}"]
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if not problems:
        try:
            problems = workload.check(i, out)
        except Exception as exc:
            traceback.print_exc()
            problems = [f"check raised {exc!r}"]
    for problem in problems[:5]:
        print(f"perfbench: {workload.name} op {i}: {problem}", file=sys.stderr)
    return elapsed, problems


def tail(latencies: list[float]) -> tuple[float, dict]:
    """Highest percentile with TAIL_BEYOND samples beyond it (the maximum
    when there are too few samples), and how it was taken."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], {"percentile": 100.0 * (k + 1) / n, "beyond": n - 1 - k, "samples": n}


def set_up(workload) -> float:
    """Write the inputs, then run the warm-up op, which fills strad's caches.
    Its outcome is not counted: a broken program fails the timed ops instead."""
    start = time.perf_counter()
    workload.setup()
    try:
        workload.op(-1)
    except Exception:
        traceback.print_exc()
    return time.perf_counter() - start


def in_refs(times: list[float], refs: list[float]) -> list[float]:
    """Each time over the mean of the two reference times around it:
    refs[i] and refs[i + 1] bracket times[i]."""
    return [t / (0.5 * (before + after)) for t, before, after in zip(times, refs, refs[1:])]


def measure(workload, seconds: float, setups: int, import_s: float) -> tuple[dict, dict]:
    from reference import NOMINAL_S, reference

    setup_refs = [reference()]  # also the one timed right after the import
    setup_times = []
    for _ in range(setups):
        setup_times.append(set_up(workload))
        setup_refs.append(reference())
    setup_in_refs = import_s / setup_refs[0] + statistics.median(in_refs(setup_times, setup_refs))
    latencies, works, failed = [], [], 0
    refs = [reference()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        elapsed, problems = attempt(workload, i)
        latencies.append(elapsed)
        refs.append(reference())
        failed += bool(problems)
        works.append(0 if problems else workload.work(i))
        i += 1
        if time.perf_counter() >= deadline:
            break
    op_refs = in_refs(latencies, refs)
    tail_ref, tail_info = tail(op_refs)
    metrics = {
        "setup_s": (NOMINAL_S * setup_in_refs, "s"),
        "op_p50_ref": (statistics.median(op_refs), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "work_per_ref": (statistics.median(w / r for w, r in zip(works, op_refs)), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "ops": len(latencies),
        "op_s": latencies,
        "ref_s": refs,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "work_per_s": sum(works) / sum(latencies),
        "fail_ratio": failed / len(latencies),
        "op_tail": tail_info,
        "work_unit": workload.unit,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "setup_ref_s": setup_refs,
        "setup_raw_s": import_s + statistics.median(setup_times),
        "quality": workload.quality(),
    }
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics}, report


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from spans import Tracer

    set_up(workload)
    tracer = Tracer()
    plain = traced = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        # the same op plain and traced, in alternating order
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, problems = attempt(workload, i, tracer if with_trace else None)
            if with_trace:
                traced += elapsed
            else:
                plain += elapsed
            attempted += 1
            failed += bool(problems)
        i += 1
        if time.perf_counter() >= deadline:
            break
    metrics, missing = tracer.layer_metrics(overhead_ratio=traced / plain)
    tracer.write_jsonl(spans_path)
    layers = {name: busy / tracer.ops for name, busy in tracer.layer_breakdown().items()}
    report = {
        "ops": attempted,
        "fail_ratio": failed / attempted,
        "traced_ops": tracer.ops,
        "absent_targets": tracer.absent,
        "absent_metrics": missing,
        "layer_self_s_per_op": layers,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strad" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'strad'}; run from a strad checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: strad's matrices are small, and a second thread only spins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import strad.cli  # with numpy: the import cost users pay

    import_s = time.perf_counter() - start
    if not Path(strad.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: strad imported from {strad.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, tiny=args.tiny)
        if args.trace:
            spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result, report = measure_traced(workload, args.seconds, spans_path)
        else:
            setups = 1 if args.tiny else SETUP_REPEATS
            result, report = measure(workload, args.seconds, setups, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **report}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"env": environment()}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
