"""The file formats live in one module, and no malformed input file escapes the CLI.

`corpus.read_csv`, `write_csv`, `read_json` and `write_json` are the only
code in the package that opens files or uses `csv`/`json`; the fuzz tests
mutate valid corpus, partition, model, candidate and query files and require
`cli.run` to answer every mutation with a documented exit code instead of an
exception.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import facesim
from facesim import cli, synth
from facesim.metric import ProjectionModel

PACKAGE_DIR = Path(facesim.__file__).resolve().parent


def _file_access(path: Path):
    """`open(` calls and `csv`/`json` imports in one module, as (line, what) pairs."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                found.append((node.lineno, "open()"))
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
