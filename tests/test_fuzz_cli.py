"""Error-contract gate: whatever the inputs, `strad.cli.main` returns an exit code.

Each example takes valid inputs for one command, spoils one thing about them
(a path, a file's bytes, a configuration value, or an argument) and runs the
command. It must return 0, 1, 2 or 3; any exception escaping `main` fails.
Sizes are tiny and drawn numbers small, so no example trains for long or asks
for a large allocation.
"""

import functools
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strad.cli import main

COMMANDS = ("synth", "train", "detect", "eval", "compare", "ablate", "gradcheck")
CONFIG_COMMANDS = ("synth", "train", "detect", "compare", "ablate")

# files each command reads, and files each command writes inside its output
# directory (gradcheck's report is the file named by -o)
READS = {
    "synth": ("cfg.json",),
    "train": ("cfg.json", "train.csv"),
    "detect": ("cfg.json", "train.csv", "test.csv", "model.ckpt"),
    "eval": ("scores.csv", "test.csv"),
    "compare": ("cfg.json", "train.csv", "test.csv"),
    "ablate": ("cfg.json", "train.csv", "test.csv"),
    "gradcheck": (),
}
WRITES = {
    "synth": ("gen_train.csv", "gen_test.csv", "manifest.json"),
    "train": ("ext_model.ckpt", "ext_history.csv"),
    "detect": ("ext_scores.csv", "ext_segments.csv", "ext_detect.json"),
    "eval": ("report.csv", "report.txt"),
    "compare": ("comparison.csv", "improvement.txt"),
    "ablate": ("ablation.csv", "ablation.txt"),
    "gradcheck": ("grad.txt",),
}


def config(d: Path) -> dict:
    """Two tiny datasets: "ext" reads d's CSVs, "gen" is synthetic."""
    return {
        "seed": 1,
        "window": {"length": 8, "train_stride": 4},
        "model": {"hidden": [4]},
        "train": {"epochs": 1, "batch_size": 16},
        "datasets": [
            {"name": "ext", "source": "csv",
             "csv": {"train_path": str(d / "train.csv"), "test_path": str(d / "test.csv")}},
            {"name": "gen", "synth": {
                "length": 64,
                "anomalies": [{"kind": "global_point", "start": 40, "length": 1,
                               "magnitude": 6.0}],
            }},
        ],
    }


@functools.lru_cache(maxsize=1)
def valid_files() -> dict:
    """Name -> bytes of one valid set of inputs, made by the commands themselves."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "cfg.json").write_text(json.dumps(config(d)))
        assert main(["synth", "-c", str(d / "cfg.json"), "-o", str(d / "s")]) == 0
        shutil.copy(d / "s" / "gen_train.csv", d / "train.csv")
        shutil.copy(d / "s" / "gen_test.csv", d / "test.csv")
        assert main(["train", "-c", str(d / "cfg.json"), "-o", str(d / "t")]) == 0
        shutil.copy(d / "t" / "ext_model.ckpt", d / "model.ckpt")
        assert main(["detect", "-c", str(d / "cfg.json"), "-o", str(d / "t"),
                     "--checkpoint", str(d / "model.ckpt")]) == 0
        shutil.copy(d / "t" / "ext_scores.csv", d / "scores.csv")
        return {name: (d / name).read_bytes()
                for name in ("train.csv", "test.csv", "model.ckpt", "scores.csv")}


def argv_for(command: str, d: Path) -> list:
    out = str(d / "out")
    if command == "eval":
        return ["eval", "--scores", str(d / "scores.csv"), "--data", str(d / "test.csv"),
                "-o", out]
    if command == "gradcheck":
        return ["gradcheck", "--windows", "1", "--models", "1", "--sizes", "2", "1", "2",
                "-o", str(d / "out" / "grad.txt")]
    argv = [command, "-c", str(d / "cfg.json"), "-o", out]
    if command == "detect":
        argv += ["--checkpoint", str(d / "model.ckpt")]
    return argv


# Text stays free of path separators, so a mutated dataset name cannot
# point an output file outside the example's directory.
texts = st.text(alphabet="ab01.-_ é\x00", max_size=4)
scalars = (st.none() | st.booleans() | st.integers(-2, 40) | texts
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)


def nodes(doc, path=()):
    """Every key path into a JSON document, containers included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def mutate_config(doc: dict, data) -> dict:
    """Replace one value anywhere in `doc`, or add an unknown key to an object."""
    path = data.draw(st.sampled_from(list(nodes(doc))[1:]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    key = path[-1]
    if isinstance(node[key], dict) and data.draw(st.booleans()):
        node, key = node[key], data.draw(texts)
    node[key] = data.draw(json_values)
    return doc


def spoil_bytes(raw: bytes, data) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "random", "insert", "drop_column", "rename"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw)))]
    if kind == "random":
        return data.draw(st.binary(max_size=64))
    if kind == "insert":
        at = data.draw(st.integers(0, len(raw)))
        junk = data.draw(st.sampled_from([b"\xff\xfe", b"\x00", b",", b"\n", b"\r", b"nan",
                                          b"1e400", b'"', b"#", b" ", b"-"]))
        return raw[:at] + junk + raw[at:]
    lines = raw.split(b"\n")
    if kind == "drop_column":  # the last column of every line
        return b"\n".join(line.rpartition(b",")[0] or line.rpartition(b" ")[0]
                          for line in lines)
    header = next((i for i, line in enumerate(lines) if not line.startswith(b"#")), 0)
    lines[header] = lines[header].replace(b"label", b"lab").replace(b"score", b"sc")
    return b"\n".join(lines)


def spoil_path(path: Path, data) -> Path:
    """Make `path` missing, a directory, or a path under a regular file."""
    kind = data.draw(st.sampled_from(["missing", "directory", "under_file"]))
    if path.exists():
        path.unlink()
    if kind == "directory":
        path.mkdir(parents=True)
    elif kind == "under_file":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("a regular file\n")
        return path / "child"
    return path


def spoil_args(command: str, argv: list, data) -> list:
    if command == "gradcheck":
        flag = data.draw(st.sampled_from(["--windows", "--models", "--seed", "--sizes"]))
        values = [str(v) for v in data.draw(st.lists(st.integers(-2, 3), min_size=1,
                                                     max_size=3 if flag == "--sizes" else 1))]
        return argv + [flag, *values]
    if command == "eval":
        return argv + data.draw(st.one_of(
            st.floats().map(lambda t: ["--threshold", str(t)]),
            st.sampled_from(["rpa", "pa", "f1"]).map(lambda m: ["--metric", m]),
            texts.map(lambda column: ["--label-column", column]),
            st.just(["--scores", argv[2]]),  # a pair with no --data
        ))
    key = data.draw(st.sampled_from(["seed", "window.length", "train.lr", "datasets",
                                     "datasets.0.name", "window.length.x", "bogus", ""]))
    return argv + ["--set", f"{key}={data.draw(texts)}"]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(COMMANDS), st.data())
def test_main_returns_an_exit_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, raw in valid_files().items():
            (d / name).write_bytes(raw)
        doc = config(d)
        (d / "cfg.json").write_text(json.dumps(doc))
        argv = argv_for(command, d)
        kinds = ["path_out", "file_in_the_way", "args"]
        kinds += ["path_in", "content"] if READS[command] else []
        kinds += ["config"] if command in CONFIG_COMMANDS else []
        what = data.draw(st.sampled_from(kinds))
        if what == "path_in":
            name = data.draw(st.sampled_from(READS[command]))
            old, new = str(d / name), str(spoil_path(d / name, data))
            argv = [new if a == old else a for a in argv]
            if name != "cfg.json":
                (d / "cfg.json").write_text(json.dumps(doc).replace(old, new))
        elif what == "path_out":
            out = Path(argv[argv.index("-o") + 1])
            argv[argv.index("-o") + 1] = str(spoil_path(out, data))
        elif what == "file_in_the_way":  # a directory where an output file goes
            name = data.draw(st.sampled_from(WRITES[command]))
            (d / "out" / name).mkdir(parents=True)
        elif what == "content":
            name = data.draw(st.sampled_from(READS[command]))
            (d / name).write_bytes(spoil_bytes((d / name).read_bytes(), data))
        elif what == "config":
            (d / "cfg.json").write_text(json.dumps(mutate_config(doc, data)))
        elif what == "args":
            argv = spoil_args(command, argv, data)
        code = main(argv)
    assert code in (0, 1, 2, 3)
