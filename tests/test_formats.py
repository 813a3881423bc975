"""The file formats live in one module, and no malformed input file escapes the CLI.

`corpus.py` is the only code in the package that opens files, uses
`csv`/`json`, calls numpy's file readers and writers, parses numbers from text
with numpy, starts threads or builds records (`EmbeddingRecord`, `TripletSample`);
no module rebinds a frozen field with `object.__setattr__`, and each public function, class and
method is used by the program (or allowlisted); the fuzz tests mutate valid corpus,
partition, model, candidate and query files and require `cli.run` to answer
every mutation with a documented exit code instead of an exception. The embedding CSV's vector-block
parser is checked bit for bit against the per-cell parser, on fuzzed files and
on hard cells, on one to four parser threads, and its writer against the plain
`csv` writer, as is `write_table`, the one CSV writer. The block float formatter
behind every float `write_table` writes and the model file is checked against
`repr` cell for cell, and the model file against `json.dumps`.
"""

import ast
import csv
import decimal
import io
import itertools
import json
import logging
import math
import os
import platform
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import facesim
from facesim import cli, corpus, synth
from facesim.errors import FormatError
from facesim.metric import MODEL_FORMAT_VERSION, ProjectionModel


PACKAGE_DIR = Path(facesim.__file__).resolve().parent


# numpy functions and methods that read or write files, or parse numbers from text
NUMPY_FILE_IO = {"loadtxt", "genfromtxt", "fromfile", "fromstring", "savetxt", "tofile"}
# calls that open or read files: `open()`, `os.open()` and `os.pread()`
FILE_CALLS = {"open", "pread"}
# modules whose import means file formats or threads
FILE_MODULES = {"csv", "json", "threading", "concurrent"}


def _file_access(path: Path):
    """File-opening and reading calls (`FILE_CALLS`), numpy file I/O and text-parsing
    calls (`NUMPY_FILE_IO`) and `csv`/`json`/`threading`/`concurrent` imports in one module,
    as (line, what)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in FILE_CALLS or name in NUMPY_FILE_IO:
                found.append((node.lineno, f"{name}()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] in FILE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in FILE_MODULES:
                found.append((node.lineno, node.module))
    return found


def test_file_access_finds_os_reads_and_threads(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os, threading\nfrom threading import Thread\n"
                      "fd = os.open('x', os.O_RDONLY)\nos.pread(fd, 1, 0)\n"
                      "from concurrent.futures import ThreadPoolExecutor\n", encoding="utf-8")
    assert sorted(_file_access(module)) == [(1, "threading"), (2, "threading"), (3, "open()"),
                                    (4, "pread()"), (5, "concurrent.futures")]


def test_only_corpus_reads_and_writes_files():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert _file_access(PACKAGE_DIR / "corpus.py"), "corpus.py should hold the file formats"
    offenders = [
        f"{path.name}:{line}: {what}"
        for path in modules if path.name != "corpus.py"
        for line, what in _file_access(path)
    ]
    assert len(modules) > 5 and not offenders, offenders


# what src/ may import beside the standard library and relative imports
RUNTIME_PACKAGES = {"numpy", "facesim"}
# standard modules src/ may not import: every seeded draw comes from one numpy Generator
BANNED_MODULES = {"random"}


def _foreign_imports(path: Path):
    """Imports in one module, at any depth, of anything but `RUNTIME_PACKAGES`, the
    standard library less `BANNED_MODULES` and relative names, as (line, module)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        allowed = (RUNTIME_PACKAGES | sys.stdlib_module_names) - BANNED_MODULES
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in allowed]
    return found


def test_foreign_imports_finds_lazy_and_dotted_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\nimport os, numpy.linalg as la\n"
                      "from . import corpus\nfrom facesim.errors import FormatError\n"
                      "import scipy.stats\ndef f():\n    from scipy import stats\n",
                      encoding="utf-8")
    assert sorted(_foreign_imports(module)) == [(5, "scipy.stats"), (7, "scipy")]


def test_foreign_imports_finds_the_random_module(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import random\nfrom random import shuffle\nimport numpy.random\n",
                      encoding="utf-8")
    assert _foreign_imports(module) == [(1, "random"), (2, "random")]


def test_src_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    offenders = [f"{path.name}:{line}: {name}"
                 for path in modules for line, name in _foreign_imports(path)]
    assert len(modules) > 5 and not offenders, offenders


RECORD_TYPES = ("EmbeddingRecord", "TripletSample")


def _record_builds(path: Path):
    """Calls of the record types and `object.__setattr__` uses in one module, as
    (line, what)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in RECORD_TYPES:
                found.append((node.lineno, f"{name}()"))
        elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
              and getattr(node.value, "id", None) == "object"):
            found.append((node.lineno, "object.__setattr__"))
    return found


def test_only_corpus_builds_records_and_none_is_rebound():
    """A table's records are built in one place, `corpus`, from its rows, and never
    changed after."""
    found = {path.name: _record_builds(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert sorted(what for _, what in found.pop("corpus.py")) == [
        f"{name}()" for name in RECORD_TYPES
    ]
    offenders = [f"{name}:{line}: {what}" for name, hits in found.items() for line, what in hits]
    assert len(found) > 5 and not offenders, offenders


REPO = Path(__file__).resolve().parents[1]

# public names that no code under src/ or perfbench/ uses, kept on purpose
UNREFERENCED_ALLOWED = {}


def _public_definitions(path: Path):
    """Qualified names of a module's public functions and classes and their public methods."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def _used_names(paths):
    """Every name, attribute and imported name in the files; strings do not count."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    return used


def test_every_public_name_is_used_by_the_program():
    """A public door that only the tests call is deleted, or allowlisted with a reason."""
    used = _used_names([*(REPO / "src").rglob("*.py"), *(REPO / "perfbench").rglob("*.py")])
    public = [name for path in sorted((REPO / "src" / "facesim").glob("*.py"))
              for name in _public_definitions(path)]
    assert set(UNREFERENCED_ALLOWED) <= set(public), "an allowlisted name is gone"
    unused = [name for name in public
              if name.rsplit(".", 1)[1] not in used and name not in UNREFERENCED_ALLOWED]
    assert len(public) > 50 and not unused, unused


def _class_members(path: Path):
    """Per public class of one module, its name, its public methods and properties, and
    its declared fields (annotated names of its body, as dataclasses and NamedTuples
    declare them)."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
            fields = {item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            found.append((f"{path.stem}.{node.name}", methods, fields))
    return found


def test_no_public_method_shares_a_name_with_another_class_field():
    """The used-name test matches bare names, so a method named like another class's field
    counts as used wherever that field is read: such a name would hide an unused method."""
    classes = [c for path in sorted(PACKAGE_DIR.glob("*.py")) for c in _class_members(path)]
    shared = [f"{owner}.{name} ~ {other}.{name}"
              for owner, methods, _ in classes for other, _, fields in classes
              if other != owner for name in sorted(methods & fields)]
    assert len(classes) > 10 and not shared, shared


def test_triplet_tables_and_records_meet_only_at_the_record_edges():
    """Every library function takes triplets as a `TripletTable`; only the record edges
    that still take `TripletSample`s, `build_datasets` and `audit_partition`, test for one."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and "TripletTable" in ast.unparse(node.args[-1])):
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, inside[-1].name if inside else "<module>"))
    assert sorted(found) == [("corpus.py", "audit_partition"), ("corpus.py", "build_datasets")]


def test_no_module_imports_another_modules_private_name():
    """A `_`-prefixed name is its module's own: another module that needs it needs a public door.

    Neither `from .module import _name` nor `module._name` may reach one."""
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    modules = {path.stem for path in paths}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if private(alias.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                  and getattr(node.value, "id", None) in modules):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert len(paths) > 5 and not found, found


# ---------------------------------------------------------------------------
# fuzz: mutated inputs exit with a documented code

CSV_FILES = ("embeddings.csv", "manifest.csv", "annotations.csv")
JSON_FILES = ("partition.json", "model.json")
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
INVALID_UTF8 = (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82")
NUMBERS = ("nan", "inf", "-inf", "1e999", "1e308", "-1e308", "1e-320", "0", "")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Valid corpus, partition and model files, as bytes, and a directory to run in."""
    src = tmp_path_factory.mktemp("valid")
    synth.planted(seed=123, n_triplets=60, dim=8, data_subspace=6, truth_rank=2).write(src)
    ProjectionModel.identity(8).save(src / "model.json")
    assert cli.run(["split", *_corpus_args(src), "--mode", "i",
                    "--out", str(src / "partition.json")]) == 0
    files = {name: (src / name).read_bytes() for name in CSV_FILES + JSON_FILES}
    return files, tmp_path_factory.mktemp("fuzz")


def _corpus_args(d: Path):
    return ["--embeddings", str(d / "embeddings.csv"), "--manifest", str(d / "manifest.csv"),
            "--annotations", str(d / "annotations.csv")]


@st.composite
def _mutated_csv(draw, data: bytes) -> bytes:
    lines = data.decode("utf-8").split("\n")
    i = draw(st.integers(0, len(lines) - 2))
    fields = lines[i].split(",")
    j = draw(st.integers(0, len(fields) - 1))
    op = draw(st.sampled_from(
        ["drop", "reorder", "garble", "number", "oversized", "drop-line", "invalid-utf8"]
    ))
    if op == "drop":
        del fields[j]
    elif op == "reorder":
        fields = draw(st.permutations(fields))
    elif op == "garble":
        fields[j] = draw(st.text(max_size=8))
    elif op == "number":
        fields[j] = draw(st.sampled_from(NUMBERS))
    elif op == "oversized":
        fields[j] = "7" * 140_000
    elif op == "drop-line":
        fields = []
    lines[i] = ",".join(fields)
    out = "\n".join(lines).encode("utf-8")
    if op == "invalid-utf8":
        at = draw(st.integers(0, len(out)))
        out = out[:at] + draw(st.sampled_from(INVALID_UTF8)) + out[at:]
    return out


@st.composite
def _mutated_json(draw, data: bytes) -> bytes:
    payload = json.loads(data)
    key = draw(st.sampled_from(sorted(payload)))
    op = draw(st.sampled_from(
        ["non-object", "drop-key", "garble-value", "garble-item", "truncate", "invalid-utf8"]
    ))
    if op == "non-object":
        return json.dumps(draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))).encode()
    if op == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if op == "invalid-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    if op == "drop-key":
        del payload[key]
    elif op == "garble-item" and isinstance(payload[key], list) and payload[key]:
        items = payload[key]
        items[draw(st.integers(0, len(items) - 1))] = draw(JSON_VALUES)
    else:
        payload[key] = draw(JSON_VALUES)
    return json.dumps(payload).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_documented_code(valid_inputs, data):
    files, work = valid_inputs
    target = data.draw(st.sampled_from(CSV_FILES + JSON_FILES), label="file")
    for name, content in files.items():
        if name == target:
            mutate = _mutated_csv if name.endswith(".csv") else _mutated_json
            content = data.draw(mutate(content), label="mutated")
        (work / name).write_bytes(content)
    common = [*_corpus_args(work), "--partition", str(work / "partition.json"),
              "--model", str(work / "model.json")]
    assert cli.run(["train", *common, "--epochs", "1",
                    "--out", str(work / "trained.json")]) in DOCUMENTED_EXITS
    assert cli.run(["eval-triplets", *common,
                    "--report", str(work / "report.json")]) in DOCUMENTED_EXITS


CLUSTERED_FILES = ("candidates.csv", "queries.csv", "model.json")


@pytest.fixture(scope="module")
def clustered_inputs(tmp_path_factory):
    """Valid candidate, query and model files of `eval-attributes` and `select`, as bytes."""
    src = tmp_path_factory.mktemp("clustered")
    synth.clustered_attributes(seed=5, per_cluster=6, n_queries=8, dim=4).write(src)
    ProjectionModel.identity(4).save(src / "model.json")
    files = {name: (src / name).read_bytes() for name in CLUSTERED_FILES}
    return files, tmp_path_factory.mktemp("fuzz-clustered")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_attribute_inputs_exit_with_a_documented_code(clustered_inputs, data):
    files, work = clustered_inputs
    # None leaves every file valid, so that `--per-group` alone decides the exit code
    target = data.draw(st.sampled_from((None,) + CLUSTERED_FILES), label="file")
    for name, content in files.items():
        if name == target:
            mutate = _mutated_csv if name.endswith(".csv") else _mutated_json
            content = data.draw(mutate(content), label="mutated")
        (work / name).write_bytes(content)
    common = ["--model", str(work / "model.json"), "--candidates", str(work / "candidates.csv")]
    per_group = data.draw(st.none() | st.integers(-2, 7), label="per_group")  # 6 per cluster
    if per_group is not None:
        common += ["--per-group", str(per_group)]
    queries = str(work / "queries.csv")
    report = str(work / "report.json")
    for argv in (
        ["eval-attributes", "--queries", queries, "--distances", str(work / "distances.csv")],
        ["eval-attributes", "--queries", queries, "--task", "gender", "--student-t"],
        ["select", "--query", queries, "--group-mode", "all", "--ranking",
         str(work / "ranking.csv")],
    ):
        out = ["--out" if argv[0] == "select" else "--report", report]
        assert cli.run([*argv, *common, *out]) in DOCUMENTED_EXITS


# ---------------------------------------------------------------------------
# the embedding CSV: vector-block parser and writer against the per-cell oracles

ODD_CELLS = ("1_0", "１", "٣", "0x10", "1.5#", "#1", "nan", "-nan", "inf", "1e999", "-1e999",
             "1e-400", "5e-324", "-0.0", "", " 1", "1 ", "1 2", "\t2\x0c", "\x1c1", "1\x1f",
             "\x00", "\u20281", "\xa01", "1e", ".", "--1", "+.5")
ODD_IDS = ("a,b", 'a"b', "a\nb", "a\rb", "a\r\nb", "", " ")
FIELD_LIMIT = csv.field_size_limit()


@st.composite
def _embedding_csv(draw) -> bytes:
    """A small embedding CSV, valid or mutated in one to three ways."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    rows = [
        [f"s{i}", f"id{i}", "source", "", "male", "young",
         *(repr(draw(floats)) for _ in range(dim))]
        for i in range(n)
    ]
    header = corpus.EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(dim)]
    quoted = False
    for _ in range(draw(st.integers(0 if n else 1, 3))):
        op = draw(st.sampled_from(["cell", "cell", "text-cell", "extra-cell", "missing-cell",
                                   "id", "quoted-id", "oversized", "header"]))
        if op == "header":
            header = draw(st.sampled_from([header[:-1], header + ["v9"],
                                           ['"image_id"', *header[1:]], []]))
            continue
        if not rows:
            rows.append(["s", "id", "source", "", "", "", *(["1"] * dim)])
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cell = draw(st.integers(6, len(row) - 1)) if len(row) > 6 else len(row) - 1
        if op == "cell":
            row[cell] = draw(st.sampled_from(ODD_CELLS))
        elif op == "text-cell":
            row[cell] = draw(st.text(max_size=4))
        elif op == "extra-cell":
            row.append("1")
        elif op == "missing-cell":
            del row[cell]
        elif op in ("id", "quoted-id"):
            row[0] = draw(st.sampled_from(ODD_IDS))
            quoted = quoted or op == "quoted-id"
        else:
            row[draw(st.sampled_from([0, cell]))] = "7" * draw(
                st.sampled_from([FIELD_LIMIT, FIELD_LIMIT + 1]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if quoted:  # written by the csv module, so ids holding delimiters are quoted
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator=newline).writerows([header, *rows])
        text = buffer.getvalue()
    else:
        text = "".join(",".join(r) + newline for r in [header, *rows])
    lines = text.split(newline)
    for _ in range(draw(st.integers(0, 2))):  # blank lines
        lines.insert(draw(st.integers(1, len(lines))), "")
    return newline.join(lines).encode("utf-8")


_HEADER = ",".join(corpus.EMBEDDING_FIXED_COLUMNS)


def _in_threads(monkeypatch, cpus, read_bytes=None, block_cells=None):
    """Parse each file on `cpus` threads, the calling one among them, whatever the CPUs
    here, read it `read_bytes` at a time, and parse blocks of up to `block_cells` cells."""
    monkeypatch.setattr(corpus, "_CPUS", cpus)
    if read_bytes is not None:
        monkeypatch.setattr(corpus, "_READ_BYTES", read_bytes)
    if block_cells is not None:
        monkeypatch.setattr(corpus, "_BLOCK_CELLS", block_cells)


# (threads, read size, block cells): the host's defaults, then one to four threads,
# reads short enough to cut lines and CR LF ends, and blocks of a row or a few
THREADINGS = [(None, None, None), *((cpus, 16, 8) for cpus in (1, 2, 3, 4))]


def _parse_in_threads(path, cpus, read_bytes, block_cells):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if cpus is not None:
            _in_threads(monkeypatch, cpus, read_bytes, block_cells)
        return corpus._parse_embedding_block(path)


def _assert_same_parse(block, expected):
    """The block parser's (line numbers, fixed fields, matrix) equal, bit for bit."""
    assert list(block[0]) == list(expected[0]) and block[1] == expected[1]
    assert block[2].shape == expected[2].shape and block[2].tobytes() == expected[2].tobytes()


@settings(max_examples=150, deadline=None)
@given(data=_embedding_csv())
@example(data=f"{_HEADER},v0\ns,i,source,,,,\x1c1\n".encode())
@example(data=f"{_HEADER},v0\ns,i,source,,,,1_0\r\n".encode())
@example(data=f"{_HEADER},v0\ns,i,source,,,,\n".encode())
@example(data=f'{_HEADER},v0\n"s",i,source,,,,1\n'.encode())
@example(data=f"{_HEADER},v0\ns,i,source,,,,{'7' * (FIELD_LIMIT + 1)}\n".encode())
@example(data=f"{_HEADER},v0,v1\ns,i,source,,,,1,2,3\n".encode())
@example(data=f"{_HEADER},v0,v1\ns,i,source,,,,1,\nt,i,source,,,,2,3\n".encode())
@example(data=f"{_HEADER},v0\r\ns,i,source,,,,1\r\n\r\nt,i,source,,,,2\r\r\n".encode())
def test_block_parser_agrees_with_the_per_cell_parser(tmp_path_factory, data):
    """Bit-equal vectors, the same fixed fields and lines, or the per-cell parser
    decides, on any number of threads, reads and blocks."""
    path = tmp_path_factory.mktemp("block") / "emb.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a block with no rows
        blocks = [_parse_in_threads(path, *threading_) for threading_ in THREADINGS]
    assert len({block is None for block in blocks}) == 1, "the threads decide alike"
    try:
        expected = corpus._parse_embeddings_per_cell(path)
    except FormatError:
        assert blocks[0] is None  # load_embeddings then raises the per-cell parser's error
        return
    for block in blocks:
        if block is not None:
            _assert_same_parse(block, expected)


def test_block_parser_takes_what_facesim_writes(valid_inputs, clustered_inputs, tmp_path,
                                                monkeypatch):
    one_block = corpus._BLOCK_CELLS
    for files, name in ((valid_inputs[0], "embeddings.csv"),
                        (clustered_inputs[0], "candidates.csv"),
                        (clustered_inputs[0], "queries.csv")):
        path = tmp_path / name
        path.write_bytes(files[name])
        expected = corpus._parse_embeddings_per_cell(path)
        for cpus in (1, 2, 3, 4):
            for block_cells in (one_block, 64):  # the default blocks, or many small ones
                _in_threads(monkeypatch, cpus, block_cells=block_cells)
                _assert_same_parse(corpus._parse_embedding_block(path), expected)


def _adjacent_doubles(rng, count, exponents):
    """`count` pairs (a, b) of adjacent doubles of either sign, |a| < |b|, with
    biased exponent fields drawn from `exponents` (0 for subnormals)."""
    bits = (rng.choice(exponents, count).astype(np.uint64) << np.uint64(52)) | rng.integers(
        0, 1 << 52, count, dtype=np.uint64)
    sign = rng.choice([-1.0, 1.0], count)
    low = bits.view(np.float64) * sign
    return list(zip(low.tolist(), np.nextafter(low, sign * np.inf).tolist()))


def _near(value, rng):
    """`value` exactly, and cut to 20-60 significant digits toward and away from zero."""
    digits = int(rng.integers(20, 61))
    return [str(value)] + [
        str(decimal.Context(prec=digits, rounding=rounding).plus(value))
        for rounding in (decimal.ROUND_DOWN, decimal.ROUND_UP)
    ]


def _hard_cells(seed=0):
    """Vector cells where a decimal read to 64 bits and then cast to a double is
    off: decimals at, just below and just above midpoints between adjacent
    doubles (normal, subnormal and near the largest), the overflow threshold,
    `repr` of random doubles, 20-60 digit strings, and a few spellings."""
    rng = np.random.default_rng(seed)
    exact = decimal.Context(prec=1200)  # exact for the sum of two doubles
    pairs = (_adjacent_doubles(rng, 3000, np.arange(1, 2047))
             + _adjacent_doubles(rng, 1000, [0])
             + _adjacent_doubles(rng, 300, [1, 2, 2044, 2045, 2046]))
    biggest = decimal.Decimal(np.finfo(np.float64).max)
    below = decimal.Decimal(np.nextafter(np.finfo(np.float64).max, 0))
    pairs.append((np.finfo(np.float64).max, exact.add(biggest, exact.subtract(biggest, below))))
    cells = []
    for low, high in pairs:
        midpoint = exact.divide(exact.add(decimal.Decimal(low), decimal.Decimal(high)), 2)
        cells += _near(midpoint, rng)
    doubles = rng.integers(0, 0x7FF0 << 48, 3000, dtype=np.uint64).view(np.float64)
    cells += map(repr, (doubles * rng.choice([-1.0, 1.0], 3000)).tolist())
    for _ in range(3000):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(20, 61)))))
        cells.append(f"{rng.choice(['', '-'])}{digits[0]}.{digits[1:]}e{rng.integers(-340, 320)}")
    return cells + ["-0.0", "0", "+.5", "5.", "1e+5", "1E5", "1e-400", "-1e-400", "1e400",
                    "-1e400", "1e-5000", "1e5000", "2.2250738585072011e-308",
                    "4.9406564584124654e-324", "2.4703282292062328e-324"]


def _embedding_csv_of(cells, dim=16):
    """An embedding CSV whose vector cells are `cells`, row by row (the last row padded)."""
    cells = cells + ["1"] * (-len(cells) % dim)
    rows = [f"r{i},i,source,,,," + ",".join(cells[i * dim:(i + 1) * dim])
            for i in range(len(cells) // dim)]
    header = ",".join(corpus.EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(dim)])
    return "\n".join([header, *rows, ""])


@pytest.fixture(scope="module")
def hard_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("hard") / "emb.csv"
    path.write_text(_embedding_csv_of(_hard_cells()), encoding="utf-8")
    return path


def _assert_block_parser_reads_as_float(path, monkeypatch):
    """The block parser reads every cell as `float` does, on one to four threads and
    in reads of several sizes."""
    expected = corpus._parse_embeddings_per_cell(path)
    for cpus, read_bytes in itertools.product((1, 2, 3, 4), (61, 1 << 16)):
        _in_threads(monkeypatch, cpus, read_bytes)
        parsed = corpus._parse_embedding_block(path)
        assert parsed is not None, "every cell is plain decimal text"
        wrong = np.flatnonzero(parsed[2].view(np.uint64) != expected[2].view(np.uint64))
        assert not wrong.size, f"{wrong.size} cells differ from float, first at {wrong[0]}"
        _assert_same_parse(parsed, expected)


def test_block_parser_reads_hard_cells_as_float(hard_csv, monkeypatch):
    _assert_block_parser_reads_as_float(hard_csv, monkeypatch)


def test_without_x87_loads_cell_by_cell(tmp_path, monkeypatch, caplog):
    """Where `longdouble` is not x87 extended precision, run on this host: the block
    reader is never entered, and the load of the finite hard cells is the per-cell
    parser's."""
    path = tmp_path / "emb.csv"
    cells = [cell for cell in _hard_cells() if math.isfinite(float(cell))]
    path.write_text(_embedding_csv_of(cells), encoding="utf-8")
    monkeypatch.setattr(corpus, "_X87", False)
    monkeypatch.setattr(corpus, "_vector_block", None)  # a call would raise TypeError
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        table = corpus.load_embeddings(path)
    assert caplog.messages == [f"{path}: parsing cell by cell: "
                               "longdouble is not x87 extended precision"]
    _, columns, matrix = corpus._parse_embeddings_per_cell(path)
    assert table.image_ids == columns[0]
    assert table.matrix.tobytes() == matrix.tobytes()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64", "i686", "i386")
                    or sys.platform == "win32", reason="x87 extended precision is x86's")
def test_x86_reads_blocks_in_x87_extended_precision(hard_csv):
    """On x86 the guard runs: a plain cast of the 64-bit reads would miss many hard cells."""
    assert corpus._X87
    texts = [line.split(",", 6)[6] for line in hard_csv.read_text().splitlines()[1:]]
    with np.errstate(over="ignore"):
        cast = np.fromstring(",".join(texts), dtype=np.longdouble, sep=",").astype(np.float64)
    expected = corpus._parse_embeddings_per_cell(hard_csv)[2].reshape(-1)
    assert (cast.view(np.uint64) != expected.view(np.uint64)).sum() > 1000


@pytest.mark.parametrize("text, reason", [
    (f'{_HEADER},v0\n"s",i,source,,,,1\n', "a quote"),
    (f"{_HEADER},v0\ns,i,source,,,,{'7' * (FIELD_LIMIT + 1)}\n", "field size limit"),
    (f"{_HEADER},v0\ns,i,source,,,,\n", "no vector text"),
    (f"{_HEADER},v0\ns,i,source,,,,1_0\n", "a byte other than"),
    (f"{_HEADER},v0,v1\ns,i,source,,,,1,2,3\n", "width"),
    (f"{_HEADER},v0\ns,i,source,,,,1e\n", "does not parse"),
    (f"{_HEADER},v0\ns,i\r,source,,,,1\n", "a carriage return"),
    (f"{_HEADER},v0\ns,i,source,,,,1\n\n", "a blank line"),
    (f"{_HEADER},v0\ns,i,source,,,,1", "a last line with no line end"),
], ids=["quote", "field-limit", "no-vector-text", "byte", "width", "unparsable", "bare-cr",
        "blank-line", "no-final-line-end"])
def test_block_parser_logs_why_it_defers(tmp_path, caplog, text, reason):
    path = tmp_path / "emb.csv"
    path.write_text(text, encoding="utf-8")
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        assert corpus._parse_embedding_block(path) is None
    assert [(str(path) in m and reason in m) for m in caplog.messages] == [True]


def test_a_nul_in_a_label_is_read_as_the_csv_module_reads_it(tmp_path, caplog):
    """`csv` reads a NUL as any other byte, and so does the block parser: it defers
    nothing, and gives the per-cell parser's columns and matrix."""
    path = tmp_path / "emb.csv"
    path.write_text(f"{_HEADER},v0\ns\0t,i,source,,,,1\nu,i,source,,,,2\n", encoding="utf-8")
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        block = corpus._parse_embedding_block(path)
    assert caplog.messages == [] and block[1][0] == ("s\0t", "u")
    _assert_same_parse(block, corpus._parse_embeddings_per_cell(path))


def _rows_csv(cells, newline="\n"):
    """An embedding CSV of one row per entry of `cells`, each that row's vector text."""
    header = ",".join(corpus.EMBEDDING_FIXED_COLUMNS + ["v0", "v1"])
    return newline.join([header, *(f"r{i},i,source,,,,{text}" for i, text in enumerate(cells)),
                         ""]).encode()


def test_reads_and_blocks_meet_line_ends(tmp_path, monkeypatch):
    """LF and CR LF ends at read and block boundaries: the same lines, fields and values as
    the per-cell parser, bit for bit, whatever the threads, reads and blocks."""
    path = tmp_path / "emb.csv"
    for newline in ("\n", "\r\n"):
        for rows in range(16, 20):  # shifts every boundary by a line or so
            path.write_bytes(_rows_csv([f"{i}.25,-{i}e-3" for i in range(rows)], newline))
            expected = corpus._parse_embeddings_per_cell(path)
            for cpus in (1, 2, 3, 4):
                for read_bytes in (1, 2, 3, 7, 1 << 16):
                    _in_threads(monkeypatch, cpus, read_bytes, block_cells=6)
                    _assert_same_parse(corpus._parse_embedding_block(path), expected)


def _with_blank_line(lines, where):
    """`lines`, the lines of a file, with a blank line inserted: before the first row,
    after the first block's eight rows, or after the last row."""
    if where == "first-row":
        return lines[:1] + [b""] + lines[1:]
    if where == "end":
        return lines[:-1] + [b"", b""]
    return lines[:9] + [b""] + lines[9:]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("where, reason", [
    ("first-row", "a blank line"),
    ("read-and-block-boundary", "a blank line"),
    ("end", "a blank line"),
    ("no-final-line-end", "a last line with no line end"),
])
def test_a_blank_line_or_no_final_line_end_is_read_cell_by_cell(
    tmp_path, monkeypatch, caplog, newline, where, reason
):
    """The block parser defers once, saying why, and the per-cell parser reads the file."""
    path = tmp_path / "emb.csv"
    data = _rows_csv([f"{i}.25,-{i}e-3" for i in range(16)], newline)
    if where == "no-final-line-end":
        data = data.removesuffix(newline.encode())
    else:
        data = newline.encode().join(_with_blank_line(data.split(newline.encode()), where))
    path.write_bytes(data)
    lines = [line + newline.encode() for line in data.split(newline.encode())]
    header, first_block = len(lines[0]), sum(map(len, lines[1:9]))
    _in_threads(monkeypatch, 2, read_bytes=first_block, block_cells=16)  # blocks of eight rows
    if where == "read-and-block-boundary":
        assert data[header + first_block:].startswith(newline.encode()), (
            "the second read and block start on the blank line")
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        assert corpus._parse_embedding_block(path) is None
    assert [(str(path) in m and reason in m) for m in caplog.messages] == [True]
    _, columns, matrix = corpus._parse_embeddings_per_cell(path)
    table = corpus.load_embeddings(path)
    assert table.image_ids == columns[0] and len(table) == 16
    assert table.matrix.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("bad, reason", [
    ({39: "1_0,1"}, "a byte other than"),
    ({0: "1_0,1", 39: "1,2,3"}, "a byte other than"),
    ({0: "1,2,3", 39: "1_0,1"}, "width"),
    ({0: "1,2,3", 2: "1_0,1"}, "width"),
    ({0: "1,2,3", 5: ""}, "width"),
], ids=["last-range", "first-and-last-first-byte", "first-and-last-first-width",
        "first-two-blocks-first-width", "first-block-before-a-later-line"])
def test_a_bad_row_in_any_range_defers_once(tmp_path, monkeypatch, caplog, bad, reason):
    """The whole file goes to the per-cell parser, with the first failing block's reason,
    whichever thread parses it first."""
    cells = [f"{i}.5,1" for i in range(40)]
    for row, text in bad.items():
        cells[row] = text
    path = tmp_path / "emb.csv"
    path.write_bytes(_rows_csv(cells))
    _in_threads(monkeypatch, 4, block_cells=4)  # twenty blocks of two rows
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        assert corpus._parse_embedding_block(path) is None
    assert [reason in m for m in caplog.messages] == [True]
    if len(bad) == 1:
        assert corpus.load_embeddings(path).matrix[39].tolist() == [10.0, 1.0]  # float("1_0")


@pytest.mark.parametrize("error", [OSError(5, "Input/output error"), MemoryError()],
                         ids=["OSError", "MemoryError"])
def test_other_errors_of_a_range_thread_reach_the_caller(tmp_path, monkeypatch, error):
    """An error a parser thread raises, other than a reason to defer, reaches the caller
    and no thread is left running."""
    path = tmp_path / "emb.csv"
    path.write_bytes(_rows_csv([f"{i}.5,1" for i in range(40)]))
    _in_threads(monkeypatch, 4, block_cells=4)
    vector_block = corpus._vector_block

    def failing_off_the_main_thread(texts, dim):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return vector_block(texts, dim)

    monkeypatch.setattr(corpus, "_vector_block", failing_off_the_main_thread)
    threads = threading.active_count()
    with pytest.raises(type(error)) as raised:
        corpus.load_embeddings(path)
    assert raised.value is error and threading.active_count() == threads


def test_a_load_leaves_the_warning_filters_of_other_threads_alone(tmp_path, monkeypatch):
    """A load changes no process-wide state: a thread that warns under an `ignore` filter
    all through threaded loads raises nothing, and the filters are the same list after."""
    path = tmp_path / "emb.csv"
    path.write_bytes(_rows_csv([f"{i}.5,1" for i in range(400)]))
    _in_threads(monkeypatch, 4, block_cells=4)
    raised, loaded = [], threading.Event()

    def warn_until_loaded():
        while not loaded.is_set():
            try:
                warnings.warn("a warning of another thread", DeprecationWarning)
            except DeprecationWarning as exc:
                raised.append(exc)
                return

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        filters = list(warnings.filters)
        warner = threading.Thread(target=warn_until_loaded)
        warner.start()
        try:
            for _ in range(5):
                corpus.load_embeddings(path)
        finally:
            loaded.set()
            warner.join()
        assert warnings.filters == filters
    assert raised == []


def test_a_load_starts_at_most_one_thread_per_cpu(tmp_path, monkeypatch):
    """The calling thread parses too: a load starts at most `_CPUS - 1` threads, none for
    a file of one block, and leaves none running."""
    path = tmp_path / "emb.csv"
    path.write_bytes(_rows_csv([f"{i}.5,1" for i in range(40)]))
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: [started.append(self),
                                                                 start(self)])
    threads, one_block = threading.active_count(), corpus._BLOCK_CELLS
    for cpus in (1, 2, 3, 4):
        for block_cells, most in ((one_block, 0), (2, cpus - 1)):  # one block, or forty
            _in_threads(monkeypatch, cpus, block_cells=block_cells)
            started.clear()
            assert corpus._parse_embedding_block(path) is not None
            assert min(1, most) <= len(started) <= most and threading.active_count() == threads


def test_more_parser_threads_than_cpus_fill_every_row(tmp_path, monkeypatch):
    """Eight threads, a row a block and a thread switch every microsecond: every row of the
    shared matrix is the per-cell parser's, bit for bit, and the load ends."""
    path = tmp_path / "emb.csv"
    path.write_bytes(_rows_csv([f"{i}.{i}e-{i % 7},-{i}" for i in range(300)]))
    expected = corpus._parse_embeddings_per_cell(path)
    _in_threads(monkeypatch, 8, read_bytes=61, block_cells=2)
    parsed = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        loader = threading.Thread(target=lambda: parsed.append(corpus._parse_embedding_block(path)))
        loader.start()
        loader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not loader.is_alive() and parsed[0] is not None
    _assert_same_parse(parsed[0], expected)


# a row in the same bytes: made two, or merged with the next
_ROW_10 = b"r10,i,source,,,,10.5,1\n"
_TWO_ROWS = b"a,,,,,,1,2\nb,,,,,,1,20\n"
_ROWS_10_11 = _ROW_10 + b"r11,i,source,,,,11.5,1\n"
_MERGED_ROW = b"m,i,source,,,,10." + b"5" * 26 + b",1\n"


@pytest.mark.parametrize("replaced, old, new, ids", [
    (True, _ROW_10, _TWO_ROWS, ("a", "b")),
    (False, _ROW_10, _TWO_ROWS, ("a", "b")),
    (False, _ROWS_10_11, _MERGED_ROW, ("m", "r12")),
], ids=["replaced", "rewritten-in-place", "rows-merged-in-place"])
def test_a_file_changed_after_its_lines_are_counted_is_not_read_in_ranges(
    tmp_path, monkeypatch, caplog, replaced, old, new, ids
):
    """More or fewer lines in the same bytes, size and mtime: the per-cell parser reads
    what is there then. Another file put at the path: the block parser reads the file it
    opened, and the per-cell parser, opening the path again, the new one."""
    path = tmp_path / "emb.csv"
    path.write_bytes(_rows_csv([f"{i}.5,1" for i in range(40)]))
    assert len(old) == len(new)
    changed = path.read_bytes().replace(old, new)
    count_lines = corpus._count_lines

    def changing_the_file(fh):
        lines = count_lines(fh)
        if replaced:
            (tmp_path / "new.csv").write_bytes(changed)
            os.replace(tmp_path / "new.csv", path)
        else:
            before = os.stat(path)
            with open(path, "r+b") as out:
                out.write(changed)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        return lines

    monkeypatch.setattr(corpus, "_count_lines", changing_the_file)
    _in_threads(monkeypatch, 2, block_cells=4)
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        parsed = corpus._parse_embedding_block(path)
    if replaced:
        assert parsed is not None and parsed[1][0][10:12] == ("r10", "r11") and not caplog.messages
    else:
        assert parsed is None
        assert ["changed while it was read" in m for m in caplog.messages] == [True]
    assert corpus._parse_embeddings_per_cell(path)[1][0][10:12] == ids


def _read_through_fifo(path, data: bytes, read):
    """`read(path)` of a named pipe that `data` is written to once. A second open of the
    pipe would wait for a writer for ever, so `read` runs on a thread with a timeout."""
    os.mkfifo(path)
    result = []

    def reader():
        try:
            result.append(read(path))
        except Exception as exc:  # raised below, in the test's thread
            result.append(exc)

    threads = [threading.Thread(target=path.write_bytes, args=(data,), daemon=True),
               threading.Thread(target=reader, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "the pipe is opened again"
    if isinstance(result[0], Exception):
        raise result[0]
    return result[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
@pytest.mark.parametrize("first_id", ["s", '"s"'], ids=["block-parsable", "quoted"])
def test_a_pipe_is_read_once_by_the_per_cell_parser(tmp_path, caplog, capsys, first_id):
    data = f"{_HEADER},v0,v1\n{first_id},i,source,,,,1,2\nt,i,source,,,,3,4\n".encode()
    (tmp_path / "emb.csv").write_bytes(data)
    expected = corpus.load_embeddings(tmp_path / "emb.csv")
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        table = _read_through_fifo(tmp_path / "pipe1", data, corpus.load_embeddings)
    assert ["not a regular file" in m for m in caplog.messages] == [True]
    assert table.image_ids == expected.image_ids == ("s", "t")
    assert table.matrix.tobytes() == expected.matrix.tobytes()
    capsys.readouterr()
    code = _read_through_fifo(tmp_path / "pipe2", data,
                              lambda path: cli.run(["ingest", "--embeddings", str(path)]))
    assert code == 0 and capsys.readouterr().out == "ingested 2 records (d=2)\n"


def _csv_module_lines(rows):
    """Each row written by its own `csv.writer` ending in "\\r\\n" (so a field holding
    either line break is quoted), with that ending swapped for "\\n"."""
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        yield buffer.getvalue()[:-2] + "\n"


def _csv_module_save_embeddings(table, path):
    """The embedding writer as one `csv.writer` row per record, floats included."""
    header = corpus.EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(table.dim)]
    rows = (
        [rec.image_id, rec.identity_id, rec.role, rec.target_id or "", rec.gender,
         rec.age_group, *rec.vector.tolist()]
        for rec in table
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_module_lines([header, *rows]))


AWKWARD_IDS = ["plain", "a,b", 'say "hi"', "two\nlines", "a\r\nb", "bare\rreturn"]


@pytest.mark.parametrize("image_id", AWKWARD_IDS)
def test_save_embeddings_writes_what_the_csv_module_writes(tmp_path, image_id):
    table = corpus.EmbeddingTable.of([
        corpus.EmbeddingRecord(image_id, "id,1", "swapped", 'target"1', "male", "older",
                               np.array([5e-324, -0.0, 1e308, 0.1])),
        corpus.EmbeddingRecord("other", "id2", "source", None, "female", "unknown",
                               np.array([-1e-300, 2.0, -0.1, 1 / 3])),
    ])
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    corpus.save_embeddings(table, got)
    _csv_module_save_embeddings(table, expected)
    assert got.read_bytes() == expected.read_bytes()
    again = corpus.load_embeddings(got)
    assert [r.image_id for r in again] == [image_id, "other"]
    assert again["other"].target_id is None
    assert again.matrix.tobytes() == table.matrix.tobytes()


@pytest.mark.parametrize("field", AWKWARD_IDS + ["", "trailing\r", "\rleading"])
def test_write_table_reads_back(tmp_path, field):
    path = tmp_path / "rows.csv"
    rows = [[field, "x", 0.1], ["y", field, -0.0]] * 300
    a, b, c = zip(*rows)
    corpus.write_table(path, ["a", "b", "c"], [a, b, np.array(c)[:, None]])
    assert path.read_bytes().decode("utf-8") == "".join(
        _csv_module_lines([["a", "b", "c"], *rows])
    )
    header, _, read = corpus.read_csv(path)
    assert [header, *read] == [
        ["a", "b", "c"], *[[field, "x", "0.1"], ["y", field, "-0.0"]] * 300
    ]


# ---------------------------------------------------------------------------
# the block float formatter against `repr`, cell for cell


def _block_cells(values, sep=b","):
    """The cells `_repr_block` writes for `values`, laid out as one row."""
    text, _, _ = corpus._repr_block(np.asarray(values, dtype=np.float64).reshape(1, -1), sep)
    assert text.endswith("\n") and text.count("\n") == 1
    return text[:-1].split(sep.decode())


def _assert_cells_are_repr(values, sep=b","):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    expected = list(map(repr, values.tolist()))
    got = _block_cells(values, sep)
    wrong = [(g, e) for g, e in zip(got, expected) if g != e]
    assert len(got) == len(expected) and not wrong, wrong[:5]


def _signed(rng, values):
    values = np.asarray(values, dtype=np.float64)
    return values * rng.choice([-1.0, 1.0], values.shape)


def _formatter_cases():
    """Cells where a shortcut to `repr`'s text would go wrong, by kind."""
    rng = np.random.default_rng(11)
    largest = np.finfo(np.float64).max
    decades = 10.0 ** np.arange(-6, 18)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    integers = np.concatenate([np.arange(1000), rng.integers(0, 2 ** 53, 3000),
                               [2 ** 53 - 1, 2 ** 53]]).astype(np.float64)
    short = np.concatenate([[0.1, 0.125, 1.5, 100.0, 999999999999999.0, 123456789012345.0],
                            rng.integers(1, 10 ** 6, 3000) / 10.0 ** rng.integers(0, 12, 3000)])
    return {
        "adjacent-doubles": np.array(_adjacent_doubles(rng, 6000, np.arange(0, 2047))).ravel(),
        "next-to-decades": _signed(rng, np.concatenate(
            [decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)])),
        "next-to-powers-of-two": _signed(rng, np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])),
        "short-decimals": _signed(rng, short),
        "integers": np.concatenate([_signed(rng, integers), [0.0, -0.0, largest, -largest]]),
    }


FORMATTER_CASES = _formatter_cases()


@pytest.mark.parametrize("case", FORMATTER_CASES)
def test_block_cells_are_repr(case):
    _assert_cells_are_repr(FORMATTER_CASES[case])
    _assert_cells_are_repr(FORMATTER_CASES[case][:50], sep=b", ")


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=30))
def test_block_cells_are_repr_for_any_float(values):
    _assert_cells_are_repr(values)


def _table_of_cells(cells, dim):
    """A table of rows of width `dim` holding `cells` (the last row padded with 1.0)."""
    cells = np.concatenate([cells, np.ones(-len(cells) % dim)]).reshape(-1, dim)
    cells[~cells.any(axis=1), 0] = 1.0  # no row may be all zeros
    ids = tuple(f"r{i}" for i in range(len(cells)))
    n = len(ids)
    return corpus.EmbeddingTable(
        (ids, ids, ("source",) * n, (None,) * n, ("unknown",) * n, ("unknown",) * n), cells)


def _assert_saved_as_by_csv_module(table, tmp_path):
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    corpus.save_embeddings(table, got)
    _csv_module_save_embeddings(table, expected)
    assert got.read_bytes() == expected.read_bytes()
    again = corpus.load_embeddings(got)
    assert again.dim == table.dim and again.matrix.tobytes() == table.matrix.tobytes()


@pytest.mark.parametrize("case", FORMATTER_CASES)
def test_save_embeddings_writes_repr_of_hard_cells(tmp_path, case):
    _assert_saved_as_by_csv_module(_table_of_cells(FORMATTER_CASES[case], 16), tmp_path)


@pytest.mark.parametrize("dim, rows, piece_cells", [
    (1, 7, 3), (3, 5, 7), (10, 4, 7), (3, 0, 7), (512, 40, corpus._FORMAT_CELLS),
], ids=["d1", "pieces-of-two-rows", "row-wider-than-a-piece", "no-rows", "d512"])
def test_save_embeddings_in_pieces(tmp_path, monkeypatch, dim, rows, piece_cells):
    """Rows fall into pieces of `piece_cells // dim` rows (at least one) and the
    last piece is short; the text is the same."""
    monkeypatch.setattr(corpus, "_FORMAT_CELLS", piece_cells)
    cells = np.concatenate(list(FORMATTER_CASES.values()))
    picked = np.random.default_rng(dim).choice(cells, rows * dim)
    _assert_saved_as_by_csv_module(_table_of_cells(picked, dim), tmp_path)


AWKWARD_LABELS = ["plain", "a,b", 'say "hi"', "cr\rlf\n", "\r", "\n", "\r\n", "naïve 名前",
                  " leading space", "", None, 7, 0]
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-4, float(np.nextafter(1e-4, 0)), 1e16,
                  float(np.nextafter(1e16, 0)), -1e16, float("nan"), float("inf"), 0.1, 1 / 3]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 12),
    st.data(),
)
def test_write_table_writes_what_the_csv_writer_and_repr_write(
    tmp_path_factory, n_labels, widths, n_rows, data
):
    """`write_table` and `save_embeddings` against the csv module: label columns
    before, between and after float arrays; labels with a comma, a quote, CR, LF,
    non-ASCII text, a leading space and the empty string; floats at signed zeros,
    subnormals, the 1e-4 and 1e16 boundaries and nan."""
    label = st.sampled_from(AWKWARD_LABELS) | st.text(max_size=3)
    cell = st.sampled_from(AWKWARD_FLOATS) | st.floats(width=64)
    # a label column is width 0, a float array its number of columns
    order = data.draw(st.permutations([0] * n_labels + widths))
    columns = [
        np.array(data.draw(st.lists(cell, min_size=n_rows * width, max_size=n_rows * width)),
                 np.float64).reshape(n_rows, width)
        if width else data.draw(st.lists(label, min_size=n_rows, max_size=n_rows))
        for width in order
    ]
    header = [f"c{i}" for i in range(n_labels + sum(widths))]
    rows = [[field for column in columns
             for field in (column[i].tolist() if isinstance(column, np.ndarray) else [column[i]])]
            for i in range(n_rows)]
    work = tmp_path_factory.mktemp("table")
    corpus.write_table(work / "got.csv", header, columns)
    assert (work / "got.csv").read_bytes().decode("utf-8") == "".join(
        _csv_module_lines([header, *rows])
    )
    labels = [column for column in columns if not isinstance(column, np.ndarray)]
    matrix = np.hstack([column for column in columns if isinstance(column, np.ndarray)])

    # the embedding writer over the same cells and labels, rows that a table holds
    kept = np.flatnonzero(np.isfinite(matrix).all(axis=1) & matrix.any(axis=1)).tolist()
    ids = [f"{i}:{labels[0][i]}" for i in kept]
    texts = [str(labels[-1][i]) for i in kept]
    table = corpus.EmbeddingTable(
        (tuple(ids), tuple(texts), tuple("swapped" if t else "source" for t in texts),
         tuple(t or None for t in texts), ("male",) * len(kept), ("young",) * len(kept)),
        matrix[kept],
    )
    corpus.save_embeddings(table, work / "got.csv")
    _csv_module_save_embeddings(table, work / "expected.csv")
    assert (work / "got.csv").read_bytes() == (work / "expected.csv").read_bytes()


@pytest.mark.parametrize("labels, cells", [(["x", "y"], 3), (["x", "y", "z"], 2)],
                         ids=["short-labels", "short-array"])
def test_write_table_refuses_columns_of_unequal_length(tmp_path, labels, cells):
    with pytest.raises(ValueError):
        corpus.write_table(tmp_path / "t.csv", ["l", "v0"], [labels, np.zeros((cells, 1))])
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("columns", [
    [["x", "", None, "y", 0]],
    [[""]],
    [["x", "", None, "y", 0], ["", "", "b", None, ""]],
], ids=["one-column", "one-empty-field", "two-columns"])
def test_write_table_of_labels_only_keeps_its_empty_fields(tmp_path, columns):
    """A row of one empty field is `""`, as `csv` writes it, and not a blank line, which
    `read_csv` skips."""
    path = tmp_path / "t.csv"
    header = [f"c{i}" for i in range(len(columns))]
    rows = [list(row) for row in zip(*columns)]
    corpus.write_table(path, header, columns)
    assert path.read_bytes().decode("utf-8") == "".join(_csv_module_lines([header, *rows]))
    assert corpus.read_csv(path)[::2] == (
        header, [["" if field is None else str(field) for field in row] for row in rows]
    )


def test_save_embeddings_writes_cells_outside_the_fixed_range_with_repr(tmp_path, caplog):
    cells = [1e-5, -9.99e-5, 5e-324, -2.2250738585072014e-308, 1e16, -2.5e16,
             np.finfo(np.float64).max, 1e300]
    table = _table_of_cells(np.array(cells), 4)
    path = tmp_path / "got.csv"
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        _assert_saved_as_by_csv_module(table, tmp_path)
    assert f"{path}: writing 8 of 8 cells with repr: 8 with |x| outside [1e-4, 1e16)," \
           " 0 on an exact tie, half a gap or a carry" in caplog.messages


def test_save_embeddings_logs_nothing_when_no_cell_needs_repr(tmp_path, caplog):
    table = _table_of_cells(np.array([0.1, -0.0, 123.25, 1e-4, 9999999999999998.0, 0.0]), 3)
    with caplog.at_level(logging.DEBUG, logger="facesim.corpus"):
        _assert_saved_as_by_csv_module(table, tmp_path)
    assert not [m for m in caplog.messages if "with repr" in m]


def test_save_embeddings_memory_does_not_grow_with_rows(tmp_path):
    """The writer holds one piece of about `_FORMAT_CELLS` cells at a time."""
    rng = np.random.default_rng(3)
    peaks = {}
    for rows in (500, 2000):
        table = _table_of_cells(rng.normal(0, 0.05, rows * 512), 512)
        tracemalloc.start()
        try:
            corpus.save_embeddings(table, tmp_path / "emb.csv")
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] < 6 << 20, peaks
    assert peaks[2000] < peaks[500] + (256 << 10), peaks


def _square_of_cells(cells, dim):
    return np.resize(np.asarray(cells, dtype=np.float64), dim * dim).reshape(dim, dim)


@pytest.mark.parametrize("weight", [
    np.eye(1), np.eye(4), -np.eye(3), np.zeros((2, 2)),
    _square_of_cells(np.concatenate(list(FORMATTER_CASES.values())), 45),
], ids=["identity-1", "identity-4", "minus-identity", "zeros", "hard-cells"])
@pytest.mark.parametrize("piece_cells", [3, corpus._FORMAT_CELLS])
def test_model_file_is_what_json_dumps_writes(tmp_path, monkeypatch, weight, piece_cells):
    monkeypatch.setattr(corpus, "_FORMAT_CELLS", piece_cells)
    path = tmp_path / "model.json"
    ProjectionModel(weight).save(path)
    payload = {"version": MODEL_FORMAT_VERSION, "dim": len(weight),
               "weight": weight.reshape(-1).tolist()}
    assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"
    assert ProjectionModel.load(path).weight.tobytes() == weight.tobytes()


def test_model_file_memory_does_not_grow_with_weights(tmp_path):
    """The model file is written a piece of rows at a time, as synth's truth model:
    a few nonzero rows, the rest zeros."""
    peaks = {}
    for dim in (256, 1024):
        weight = np.zeros((dim, dim))
        weight[:2] = np.random.default_rng(dim).normal(size=(2, dim))
        model = ProjectionModel(weight)
        tracemalloc.start()
        try:
            model.save(tmp_path / "model.json")
            peaks[dim] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1024] < 4 << 20, peaks
    assert peaks[1024] < peaks[256] + (256 << 10), peaks


def test_synth_truth_model_is_what_json_dumps_writes(tmp_path):
    corpus_ = synth.planted(seed=2, n_triplets=30, dim=64, data_subspace=12, noise_fraction=0.1)
    corpus_.write(tmp_path)
    weight = corpus_.truth.weight
    assert (tmp_path / "truth_model.json").read_text(encoding="utf-8") == json.dumps(
        {"version": MODEL_FORMAT_VERSION, "dim": 64, "weight": weight.reshape(-1).tolist()}
    ) + "\n"
