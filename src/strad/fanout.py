"""Independent jobs on every usable CPU, in forked processes.

This module loads no numpy, so `strad.cli` can read `BLAS_THREAD_VARS` from
it before its first numpy-loading import.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import BinaryIO, Callable, Optional, Sequence

from .errors import StradError

# A forked process inherits numpy's BLAS threads, which then spin on the other
# processes' CPUs: fan-out pays only with one BLAS thread per process, set
# before numpy loads (as `strad.cli` does).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fan_workers(n_jobs: int) -> int:
    """How many processes `fan_out` runs `n_jobs` jobs in: 1 unless BLAS is
    single-threaded, this process has no other thread to break by forking,
    and the platform can fork and report its usable CPUs."""
    if (n_jobs < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS)
            or threading.active_count() != 1):
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0)))


def fan_out(fn: Callable, jobs: Sequence) -> list:
    """`[fn(job) for job in jobs]`, split over W = `fan_workers(len(jobs))` shares.

    Share w holds jobs w, w + W, ... and runs them in index order up to its
    first exception. This process runs share 0, and a forked child runs each
    other share, then pipes back one pickle of its results or that exception;
    a share whose pipe or fork fails runs here too. The lowest-index failure
    is raised, which is the one the serial loop raises; a child that dies
    without a result raises `StradError`. Every child is reaped before this
    returns or raises, and killed first if this process is unwinding.
    """
    workers = fan_workers(len(jobs))
    children = {}  # share -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            try:
                children[w] = _fork_share(fn, jobs, w, workers)
            except OSError:  # no process or descriptor to spare
                pass
        shares = {w: _run_share(fn, jobs, w, workers)
                  for w in range(workers) if w not in children}
        payloads = {w: pipe.read() for w, (_, pipe) in children.items()}
    except BaseException:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = {}
        for w, (pid, pipe) in children.items():
            pipe.close()
            statuses[w] = os.waitpid(pid, 0)[1]
    for w, payload in payloads.items():
        try:
            shares[w] = pickle.loads(payload)
        except Exception:
            code = os.waitstatus_to_exitcode(statuses[w])
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise StradError(f"worker process {w} of {workers} died without a result "
                             f"({how})") from None
    failures = [failure for _, failure in shares.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(jobs)
    for w, (done, _) in shares.items():
        results[w::workers] = done
    return results


def _run_share(fn: Callable, jobs: Sequence, first: int, step: int) -> tuple[list, Optional[tuple]]:
    """fn over jobs[first::step] in order: (results, None), or the results
    before the first exception and (its job index, the exception)."""
    done = []
    for i in range(first, len(jobs), step):
        try:
            done.append(fn(jobs[i]))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _fork_share(fn: Callable, jobs: Sequence, first: int, step: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs one share and writes its pickle to a pipe: (pid, read end)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child never returns into the caller's stack
        code = 1
        try:
            os.close(read_end)
            done, failure = _run_share(fn, jobs, first, step)
            if failure is not None:
                failure = (failure[0], _picklable(failure[1]))
            with open(write_end, "wb") as out:
                out.write(pickle.dumps((done, failure)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _picklable(exc: Exception) -> Exception:
    """`exc` if it survives a pickle round trip, else an error naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return StradError(f"{type(exc).__name__}: {exc}")
    return exc
