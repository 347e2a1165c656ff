"""The suite's warning filters, checked on throwaway tests run by a child pytest
that reads this repository's pyproject.toml."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_pytest(tmp_path, body: str) -> subprocess.CompletedProcess:
    test = tmp_path / "test_throwaway.py"
    test.write_text(body)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_hypothesis_test_fails_without_internal_error(tmp_path):
    # reporting a failure imports libcst, whose import raises a DeprecationWarning
    proc = run_pytest(tmp_path, """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0
""")
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in proc.stdout


def test_deprecation_warning_of_code_under_test_still_fails(tmp_path):
    proc = run_pytest(tmp_path, """
import warnings


def test_warns():
    warnings.warn("an old call", DeprecationWarning)
""")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "DeprecationWarning: an old call" in proc.stdout
    assert "1 failed" in proc.stdout
