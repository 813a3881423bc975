import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from facesim.errors import DegenerateVectorError, FormatError, ValidationError
from facesim.metric import MODEL_FORMAT_VERSION, ProjectionModel

from conftest import make_record
from scalar_oracle import cosine, distance, project, rowwise_cosine, similarity_score


def test_identity_projection_is_noop():
    model = ProjectionModel.identity(3)
    np.testing.assert_array_equal(project(model, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_zero_weight_projection_gives_zero_vector():
    model = ProjectionModel(np.zeros((2, 2)))
    np.testing.assert_array_equal(project(model, [3.0, 4.0]), [0.0, 0.0])


def test_scaled_identity_projection():
    model = ProjectionModel(2.0 * np.eye(2))
    np.testing.assert_array_equal(project(model, [1.0, 0.0]), [2.0, 0.0])


def test_projection_dimension_mismatch():
    with pytest.raises(ValidationError):
        project(ProjectionModel.identity(3), [1.0, 2.0])


def test_cosine_identical_vectors():
    assert cosine([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 1.0


def test_cosine_orthogonal_vectors():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_45_degrees():
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.707107, abs=1e-6)


def test_cosine_zero_vector_raises():
    with pytest.raises(DegenerateVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_distance_examples():
    assert distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert distance([1.0, 0.0], [-1.0, 0.0]) == 2.0
    assert distance([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.292893, abs=1e-6)


def test_similarity_score_matches_brute_force():
    rng = np.random.default_rng(0)
    model = ProjectionModel(rng.normal(size=(5, 5)))
    a = make_record("a", rng.normal(size=5))
    b = make_record("b", rng.normal(size=5))
    got = similarity_score(model, a, b)
    # independent dot-product route
    pa, pb = model.weight @ a.vector, model.weight @ b.vector
    dot = sum(x * y for x, y in zip(pa, pb))
    expected = dot / (math.sqrt(sum(x * x for x in pa)) * math.sqrt(sum(y * y for y in pb)))
    assert got == pytest.approx(expected, abs=1e-12)


def test_similarity_score_symmetry():
    rng = np.random.default_rng(1)
    model = ProjectionModel(rng.normal(size=(4, 4)))
    a = make_record("a", rng.normal(size=4))
    b = make_record("b", rng.normal(size=4))
    assert similarity_score(model, a, b) == similarity_score(model, b, a)


def test_similarity_score_degenerate_projection_names_record():
    model = ProjectionModel(np.zeros((2, 2)))
    a = make_record("offender", [1.0, 0.0])
    b = make_record("b", [0.0, 1.0])
    with pytest.raises(DegenerateVectorError, match="offender"):
        similarity_score(model, a, b)


@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
@example([1e-156, 0.0, 0.0], [1.0, 1.0, 0.0], 1e-3, 1.0)
def test_cosine_scale_invariance(u, v, alpha, beta):
    u, v = np.array(u), np.array(v)
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    assert cosine(alpha * u, beta * v) == pytest.approx(cosine(u, v), abs=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-159, 1.0, 1e150, 1e300])
def test_cosine_tiny_and_huge_components(scale):
    u = scale * np.array([[1.0, 0.0, 0.0], [3.0, -4.0, 0.0]])
    v = np.array([[1.0, 1.0, 0.0], [3.0, 4.0, 12.0]])
    expected = [1.0 / math.sqrt(2.0), -7.0 / 65.0]
    np.testing.assert_allclose(rowwise_cosine(u, v), expected, rtol=0, atol=1e-15)
    assert [cosine(a, b) for a, b in zip(u, v)] == pytest.approx(expected, abs=1e-15)


def test_rowwise_cosine_equal_rows_score_exactly_one():
    rows = np.random.default_rng(4).normal(size=(5, 7))
    assert rowwise_cosine(rows, rows).tolist() == [1.0] * 5
    assert rowwise_cosine(rows[2:3], rows)[2] == 1.0


@given(
    st.integers(2, 40),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_project_block_rows_do_not_depend_on_the_block(dim, n, seed):
    rng = np.random.default_rng(seed)
    model = ProjectionModel(rng.normal(size=(dim, dim)))
    block = rng.normal(size=(n, dim))
    ids = [f"r{i}" for i in range(n)]
    whole = model.project_block(block, ids)
    subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    part = model.project_block(block[subset], [ids[i] for i in subset])
    for j, i in enumerate(subset):
        alone = model.project_block(block[i : i + 1], [ids[i]])[0]
        assert np.array_equal(whole[i], alone) and np.array_equal(part[j], alone)


def test_project_block_zero_projection_names_record():
    model = ProjectionModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateVectorError, match="flat"):
        model.project_block(np.array([[1.0, 2.0], [0.0, 3.0]]), ["fine", "flat"])


@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_cosine_range(u, v):
    u, v = np.array(u), np.array(v)
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    assert -1.0 <= cosine(u, v) <= 1.0
    assert 0.0 <= distance(u, v) <= 2.0


def test_model_json_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    model = ProjectionModel(rng.normal(size=(6, 6)) / 3.0)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = ProjectionModel.load(path)
    assert loaded == model
    # a second save round-trip is byte-identical
    path2 = tmp_path / "model2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_load_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": "x", "dim": 3, "weight": [1, 2]}')
    with pytest.raises(FormatError):
        ProjectionModel.load(path)


@pytest.mark.parametrize(
    "fields",
    [
        '"dim": 2, "weight": [[1, 0], [0]]',
        '"dim": 2, "weight": [1, "a", 0, 1]',
        '"dim": "2", "weight": [1, 0, 0, 1]',
        '"dim": 2.0, "weight": [1, 0, 0, 1]',
        '"dim": true, "weight": [1]',
        '"dim": 2, "weight": ["1", 0, 0, 1]',
        '"dim": 2, "weight": [true, 0, 0, 1]',
    ],
    ids=["ragged", "non-numeric", "string-dim", "float-dim", "bool-dim", "string-weight",
         "bool-weight"],
)
def test_model_load_rejects_malformed_fields(tmp_path, fields):
    path = tmp_path / "bad.json"
    # a valid version, so that the named field alone is at fault
    path.write_text(f'{{"version": "{MODEL_FORMAT_VERSION}", {fields}}}')
    with pytest.raises(FormatError, match="bad.json"):
        ProjectionModel.load(path)


@pytest.mark.parametrize("version", ['"facesim-projection-9"', "5"])
def test_model_load_rejects_unknown_version(tmp_path, version):
    path = tmp_path / "future.json"
    path.write_text(f'{{"version": {version}, "dim": 2, "weight": [1, 0, 0, 1]}}')
    with pytest.raises(FormatError, match="future.json.*version"):
        ProjectionModel.load(path)


def test_model_rejects_a_weight_that_is_not_square():
    with pytest.raises(ValidationError) as info:
        ProjectionModel(np.zeros((2, 3)))
    assert str(info.value) == "projection weight must be square, got shape (2, 3)"


def test_model_rejects_nonfinite_weight():
    with pytest.raises(ValidationError):
        ProjectionModel(np.array([[1.0, float("nan")], [0.0, 1.0]]))


def test_identity_model_equals_base_cosine():
    rng = np.random.default_rng(3)
    model = ProjectionModel.identity(8)
    for _ in range(50):
        a = make_record("a", rng.normal(size=8))
        b = make_record("b", rng.normal(size=8))
        assert similarity_score(model, a, b) == pytest.approx(
            cosine(a.vector, b.vector), abs=1e-12
        )
