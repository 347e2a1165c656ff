"""`fanout.fan_out`: independent jobs over forked processes, with the
serial loop's results and errors.

The in-process tests make the helper fork by declaring one BLAS thread and
two usable CPUs; their jobs are plain Python. The subprocess tests run the
real CLI, whose import sets the BLAS variables, against a serial in-process
run of the same commands.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import strad.experiments
import strad.fanout
from strad.benchmarks import pattern_benchmark_config
from strad.cli import main
from strad.errors import StradError
from strad.fanout import BLAS_THREAD_VARS, fan_out, fan_workers

SRC = Path(strad.fanout.__file__).resolve().parents[1]  # the package under test


@pytest.fixture
def forking(monkeypatch):
    """fan_out forks into two processes here; no child outlives the test."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert fan_workers(8) == 2
    yield os.getpid()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles, but cannot be unpickled: its args hold one value, not two."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_results_come_back_in_job_order(forking):
    parent = forking
    results = fan_out(lambda j: (j * j, os.getpid()), list(range(7)))
    assert [value for value, _ in results] == [j * j for j in range(7)]
    pids = [pid for _, pid in results]
    assert pids[0::2] == [parent] * 4  # job i runs in process i mod 2
    assert len(set(pids[1::2])) == 1 and parent not in pids[1::2]


def test_lowest_index_failure_wins(forking):
    def job(j):
        if j in (1, 2):  # 1 fails in the child, 2 in this process
            raise ValueError(f"job {j}")
        return j

    with pytest.raises(ValueError, match="^job 1$"):
        fan_out(job, [0, 1, 2, 3])


def test_unpicklable_exception_names_its_type(forking):
    def job(j):
        if j == 1:
            raise TwoArgError("left", "right")
        return j

    with pytest.raises(StradError, match="TwoArgError: left/right"):
        fan_out(job, [0, 1])


def test_child_killed_by_signal_exits_2(forking, tmp_path, monkeypatch, capsys):
    parent = forking
    run_fits = strad.experiments.run_fits

    def killed_in_child(cfg, fits):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_fits(cfg, fits)

    monkeypatch.setattr(strad.experiments, "run_fits", killed_in_child)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert main(["compare", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "died without a result (killed by signal 9)" in err
    assert not (tmp_path / "out").exists()


def test_interrupted_child_never_returns_into_the_caller(forking, tmp_path):
    parent = forking
    log = tmp_path / "unwound"

    def job(j):
        if os.getpid() != parent:
            raise KeyboardInterrupt
        return j

    with pytest.raises(StradError, match="died without a result"):
        try:
            fan_out(job, [0, 1])
        finally:  # caller code: only this process may run it
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
    assert log.read_text() == f"{parent}\n"


def test_unwinding_parent_kills_its_children(forking):
    parent = forking

    def job(j):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fan_out(job, [0, 1])
    assert time.monotonic() - start < 30


def no_resource(*args):
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_share_without_a_process_runs_here(forking, monkeypatch, call):
    parent = forking
    monkeypatch.setattr(os, call, no_resource)
    assert fan_out(lambda j: (j * j, os.getpid()), list(range(5))) == [(j * j, parent)
                                                                       for j in range(5)]


def test_shares_mix_children_and_this_process(forking, monkeypatch):
    parent = forking
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real_fork, forks = os.fork, []

    def fork_once():
        forks.append(None)
        return real_fork() if len(forks) == 1 else no_resource()

    monkeypatch.setattr(os, "fork", fork_once)
    results = fan_out(lambda j: (j, os.getpid()), list(range(7)))
    assert [j for j, _ in results] == list(range(7))
    assert {pid for j, pid in results if j % 3 != 1} == {parent}  # shares 0 and 2
    assert parent not in {pid for j, pid in results if j % 3 == 1}

    def job(j):
        if j in (2, 3):  # 2 fails in share 2, 3 in share 0, both in this process
            raise ValueError(f"job {j}")
        return j

    forks.clear()
    with pytest.raises(ValueError, match="^job 2$"):
        fan_out(job, list(range(6)))


def test_compare_without_a_process_to_spare_exits_0(forking, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", no_resource)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert main(["compare", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "comparison.csv").is_file()


@pytest.mark.parametrize("spoil", ["unset", "two_threads", "no_fork", "background_thread"])
def test_serial_unless_every_condition_holds(forking, monkeypatch, spoil):
    if spoil == "unset":
        monkeypatch.delenv("OMP_NUM_THREADS")
    elif spoil == "two_threads":
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
    elif spoil == "no_fork":
        monkeypatch.delattr(os, "fork")
    if spoil != "background_thread":
        assert fan_workers(8) == 1
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert fan_workers(8) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# the real CLI in a subprocess
# ---------------------------------------------------------------------------


def small_config() -> dict:
    doc = pattern_benchmark_config(seed=5, length=600, epochs=2)
    doc["datasets"] = doc["datasets"][:2]
    return doc


def python(*args, cwd=None):
    """Run python with the package on its path and no BLAS variable set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["compare", "ablate"])
def test_cli_writes_what_the_serial_loop_writes(command, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    proc = python("-m", "strad.cli", command, "-c", str(cfg_path), "-o", str(tmp_path / "forked"))
    assert proc.returncode == 0, proc.stderr

    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert fan_workers(8) == 1
    capsys.readouterr()
    assert main([command, "-c", str(cfg_path), "-o", str(tmp_path / "serial")]) == 0
    assert proc.stdout == capsys.readouterr().out
    forked, serial = tree(tmp_path / "forked"), tree(tmp_path / "serial")
    assert forked == serial and serial


@pytest.mark.parametrize("command, fits", [("compare", 2 * 2), ("ablate", 7 * 2)])
def test_each_share_trains_one_stack(forking, command, fits, tmp_path, monkeypatch, capsys):
    # two datasets of one length: each share's fits train as one lockstep stack
    log = tmp_path / "stacks"
    train = strad.experiments.train

    def logged(model, windows, cfgs):
        with open(log, "a") as fh:  # from this process and the child alike
            fh.write(f"{len(cfgs)}\n")
        return train(model, windows, cfgs)

    monkeypatch.setattr(strad.experiments, "train", logged)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert main([command, "-c", str(cfg_path), "-o", str(tmp_path / "forked")]) == 0
    assert log.read_text().split() == [str(fits // 2)] * 2
    forked_out = capsys.readouterr().out

    log.unlink()
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var)
    assert fan_workers(8) == 1
    assert main([command, "-c", str(cfg_path), "-o", str(tmp_path / "serial")]) == 0
    assert log.read_text().split() == [str(fits)]
    assert capsys.readouterr().out == forked_out
    forked, serial = tree(tmp_path / "forked"), tree(tmp_path / "serial")
    assert forked == serial and serial


PROBE = ("import os, strad.fanout as e; "
         "print(json.dumps([[os.environ.get(v) for v in e.BLAS_THREAD_VARS], "
         "e.fan_workers(8), len(os.sched_getaffinity(0))]))")


def test_cli_import_sets_one_blas_thread():
    proc = python("-c", "import json, strad.cli; " + PROBE)
    assert proc.returncode == 0, proc.stderr
    values, workers, cpus = json.loads(proc.stdout)
    assert values == ["1"] * 3 and workers == min(8, cpus)


def test_numpy_loaded_first_keeps_blas_threads_and_the_serial_loop():
    proc = python("-c", "import json, numpy, strad.cli; " + PROBE)
    assert proc.returncode == 0, proc.stderr
    values, workers, _ = json.loads(proc.stdout)
    assert values == [None] * 3 and workers == 1
