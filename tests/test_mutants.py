"""The table of scripts/mutants.py stays applicable to the source it mutates.

The mutant runs themselves are slow and stay out of this suite; run them with
`python3 scripts/mutants.py`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_snippet_occurs_exactly_once(mutant):
    occurrences = sum(path.read_text().count(mutant.old)
                      for path in (REPO / "src" / "strad").glob("*.py"))
    assert occurrences == 1
    assert mutant.old in (REPO / "src" / "strad" / mutant.file).read_text()
    assert mutant.new != mutant.old


def test_table_is_small_and_names_existing_tests():
    assert 1 <= len(mutants.MUTANTS) <= 33
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.tests and all((REPO / node.split("::")[0]).is_file() for node in m.tests)


def test_copied_tree_holds_the_files_the_tests_read(tmp_path):
    mutants.copy_tree(tmp_path)
    for rel in ("pyproject.toml", "README.md", "configs/pattern_benchmark.json",
                "scripts/run_pattern_benchmark.py", "src/strad/losses.py",
                "tests/test_benchmarks.py"):
        assert (tmp_path / rel).is_file(), rel
    assert not list(tmp_path.rglob("__pycache__"))
