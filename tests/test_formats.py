"""The file formats live in one module, and no malformed input file escapes the CLI.

`corpus.py` is the only code in the package that opens files, uses
`csv`/`json` or calls numpy's file readers and writers; the fuzz tests
mutate valid corpus, partition, model, candidate and query files and require
`cli.run` to answer every mutation with a documented exit code instead of an
exception. The embedding CSV's vector-block parser and writer are checked
against the per-cell parser and the plain `csv` writer.
"""

import ast
import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import facesim
from facesim import cli, corpus, synth
from facesim.errors import FormatError
from facesim.metric import ProjectionModel

PACKAGE_DIR = Path(facesim.__file__).resolve().parent


# numpy functions and methods that read or write files by path
NUMPY_FILE_IO = {"loadtxt", "genfromtxt", "fromfile", "savetxt", "tofile"}


def _file_access(path: Path):
    """`open(` and numpy file I/O calls and `csv`/`json` imports in one module, as (line, what)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "open" or name in NUMPY_FILE_IO:
                found.append((node.lineno, f"{name}()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] in ("csv", "json")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in ("csv", "json"):
                found.append((node.lineno, node.module))
    return found


def test_only_corpus_reads_and_writes_files():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert _file_access(PACKAGE_DIR / "corpus.py"), "corpus.py should hold the file formats"
    offenders = [
        f"{path.name}:{line}: {what}"
        for path in modules if path.name != "corpus.py"
        for line, what in _file_access(path)
    ]
    assert len(modules) > 5 and not offenders, offenders


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
    target = data.draw(st.sampled_from(CLUSTERED_FILES), label="file")
    for name, content in files.items():
        if name == target:
            mutate = _mutated_csv if name.endswith(".csv") else _mutated_json
            content = data.draw(mutate(content), label="mutated")
        (work / name).write_bytes(content)
    common = ["--model", str(work / "model.json"), "--candidates", str(work / "candidates.csv")]
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


@settings(max_examples=150, deadline=None)
@given(data=_embedding_csv())
@example(data=f"{_HEADER},v0\ns,i,source,,,,\x1c1\n".encode())
@example(data=f"{_HEADER},v0\ns,i,source,,,,1_0\r\n".encode())
@example(data=f"{_HEADER},v0\ns,i,source,,,,\n".encode())
@example(data=f'{_HEADER},v0\n"s",i,source,,,,1\n'.encode())
@example(data=f"{_HEADER},v0\ns,i,source,,,,{'7' * (FIELD_LIMIT + 1)}\n".encode())
@example(data=f"{_HEADER},v0,v1\ns,i,source,,,,1,2,3\n".encode())
def test_block_parser_agrees_with_the_per_cell_parser(tmp_path_factory, data):
    """Bit-equal vectors, the same fixed fields and lines, or the per-cell parser decides."""
    path = tmp_path_factory.mktemp("block") / "emb.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a block with no rows
        block = corpus._parse_embedding_block(path)
    try:
        lines, fields, matrix = corpus._parse_embeddings_per_cell(path)
    except FormatError:
        assert block is None  # load_embeddings then raises the per-cell parser's error
        return
    if block is not None:
        assert block[0] == lines and block[1] == fields
        assert block[2].shape == matrix.shape and block[2].tobytes() == matrix.tobytes()


def test_block_parser_takes_what_facesim_writes(valid_inputs, clustered_inputs, tmp_path):
    for files, name in ((valid_inputs[0], "embeddings.csv"),
                        (clustered_inputs[0], "candidates.csv"),
                        (clustered_inputs[0], "queries.csv")):
        path = tmp_path / name
        path.write_bytes(files[name])
        lines, fields, matrix = corpus._parse_embedding_block(path)
        expected = corpus._parse_embeddings_per_cell(path)
        assert (lines, fields) == expected[:2] and matrix.tobytes() == expected[2].tobytes()


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
    table = corpus.EmbeddingTable([
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
def test_write_csv_reads_back(tmp_path, field):
    path = tmp_path / "rows.csv"
    rows = [[field, "x", 0.1], ["y", field, -0.0]] * 300  # more rows than one write block
    corpus.write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes().decode("utf-8") == "".join(
        _csv_module_lines([["a", "b", "c"], *rows])
    )
    header, read = corpus.read_csv(path)
    assert [header, *(fields for _, fields in read)] == [
        ["a", "b", "c"], *[[field, "x", "0.1"], ["y", field, "-0.0"]] * 300
    ]
