"""Every output file of `src/strad` is written by `series.write_text`.

The scan fails on a `.write_text(` or `.write_bytes(` method call, such as
`Path.write_text`, which truncates an existing file to zero, and on any
`open` that can write, outside the writer itself and the pipe that
`fanout._fork_share` sends a worker's result through. A new output path
therefore cannot bring back `O_TRUNC` unnoticed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "strad"

# (module, function) pairs that may open a file for writing
ALLOWED = {("series.py", "write_text"), ("fanout.py", "_fork_share")}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _mode(call: ast.Call, position: int):
    """The constant mode string of an `open`-like call, "r" by default, None if not constant."""
    node = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _flags(node):
    """The names of an `os.O_A | os.O_B ...` expression, None for any other expression."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = _flags(node.left), _flags(node.right)
        return None if left is None or right is None else left | right
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr.startswith("O_")):
        return {node.attr}
    return None


def _writes(call: ast.Call, imports_writer: bool) -> bool:
    """Whether `call` writes a file, or may: a mode that is not a constant counts."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "write_text":
            return not imports_writer
        if func.id == "write_bytes":
            return True
        if func.id == "open":
            mode = _mode(call, 1)
            return mode is None or any(c in mode for c in "wax+")
        return False
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if func.attr in ("write_text", "write_bytes"):
        return True
    if owner == "os" and func.attr == "open":
        flags = _flags(call.args[1]) if len(call.args) > 1 else None
        return flags is None or bool(flags & WRITE_FLAGS)
    if func.attr in ("open", "fdopen"):  # io.open, codecs.open, os.fdopen, Path.open
        mode = _mode(call, 1 if owner in ("io", "codecs", "os") else 0)
        return mode is None or any(c in mode for c in "wax+")
    return False


def write_paths(source: str, module: str) -> list[str]:
    """`module:line in function` of every write outside `ALLOWED`."""
    tree = ast.parse(source)
    imports_writer = any(isinstance(n, ast.ImportFrom) and n.module == "series" and n.level == 1
                         and any(a.name == "write_text" and a.asname is None for a in n.names)
                         for n in ast.walk(tree))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and (module, function) not in ALLOWED
                and _writes(node, imports_writer)):
            found.append(f"{module}:{node.lineno} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_output_goes_through_the_writer():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [w for path in modules for w in write_paths(path.read_text(), path.name)]
    assert found == []


def test_the_writer_and_the_pipe_are_the_only_writers():
    for module, function in ALLOWED:
        assert write_paths((SRC / module).read_text(), "elsewhere.py"), (module, function)


@pytest.mark.parametrize("snippet", [
    'Path(p).write_text("x")',
    'p.write_bytes(b"x")',
    'open(p, "w")',
    'open(p, mode="ab")',
    'open(p, "r+")',
    'open(p, m)',
    'io.open(p, "x")',
    'Path(p).open("w")',
    "os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)",
    "os.open(p, flags)",
    'os.fdopen(fd, "wb")',
    'write_text(p, "x")',  # not imported from .series
])
def test_scan_finds_a_write(snippet):
    assert write_paths(f"def f(p, m, fd, flags):\n    {snippet}\n", "m.py") == ["m.py:2 in f"]


@pytest.mark.parametrize("snippet", [
    'open(p, "rb")',
    "open(p)",
    'Path(p).open("r")',
    "os.open(p, os.O_RDONLY)",
    "Path(p).read_text()",
])
def test_scan_passes_a_read(snippet):
    assert write_paths(f"def f(p):\n    {snippet}\n", "m.py") == []


def test_scan_passes_the_imported_writer():
    source = 'from .series import write_text\n\ndef f(p):\n    write_text(p, "x")\n'
    assert write_paths(source, "m.py") == []
