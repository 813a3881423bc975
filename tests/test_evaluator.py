import csv

import numpy as np
import pytest

from facesim import corpus, evaluator
from facesim.errors import DegenerateVectorError, EvaluationError
from facesim.metric import ProjectionModel

from conftest import make_record, make_triplets


def triplets_of(table, votes):
    """Triplets over `table`, `votes` mapping i to its choices ("AAB"): triplet i is
    t{i:03d}, on images i{i}c, i{i}a and i{i}b."""
    manifest = {f"t{i:03d}": (f"i{i}c", f"i{i}a", f"i{i}b") for i in votes}
    return make_triplets(table, manifest, {f"t{i:03d}": v for i, v in votes.items()})


@pytest.fixture()
def aligned_corpus():
    """Base cosines already encode the annotated ordering."""
    rng = np.random.default_rng(10)
    records = []
    for i in range(10):
        ref = rng.normal(size=5)
        near = ref + 0.1 * rng.normal(size=5)
        far = -ref + 0.1 * rng.normal(size=5)
        records += [
            make_record(f"i{i}c", ref),
            make_record(f"i{i}a", near),
            make_record(f"i{i}b", far),
        ]
    return triplets_of(corpus.EmbeddingTable.of(records), {i: "AAA" for i in range(10)})


def test_perfect_model_scores_one(aligned_corpus):
    accuracy, (_, sim, dissim) = evaluator.eval_triplets(
        ProjectionModel.identity(5), aligned_corpus
    )
    assert accuracy == 1.0
    assert (sim > dissim).all()


def test_tied_scores_count_incorrect(tmp_path):
    records = [
        make_record("i0c", [1.0, 0.0]),
        make_record("i0a", [0.0, 1.0]),
        make_record("i0b", [0.0, 1.0]),
    ]
    table = corpus.EmbeddingTable.of(records)
    accuracy, pairs = evaluator.eval_triplets(
        ProjectionModel.identity(2), triplets_of(table, {0: "AAA"})
    )
    _, (sim,), (dissim,) = pairs
    assert sim == dissim
    evaluator.export_scatter(pairs, tmp_path / "scatter.csv")
    assert (tmp_path / "scatter.csv").read_text().splitlines()[1].endswith(",false")
    assert accuracy == 0.0


def test_zero_projection_names_record():
    records = [
        make_record("i0c", [1.0, 1.0, 0.0]),
        make_record("i0a", [1.0, 0.0, 1.0]),
        make_record("i0b", [0.0, 1.0, 1.0]),
        make_record("i1c", [0.0, 1.0, 0.0]),
        make_record("i1a", [0.0, 0.0, 2.0]),
        make_record("i1b", [1.0, 0.0, 0.0]),
    ]
    table = corpus.EmbeddingTable.of(records)
    model = ProjectionModel(np.diag([1.0, 1.0, 0.0]))  # maps only i1a to zero
    with pytest.raises(DegenerateVectorError, match="'i1a'"):
        evaluator.eval_triplets(model, triplets_of(table, {0: "AAA", 1: "AAA"}))


def test_inconsistent_samples_filtered(aligned_corpus):
    votes = {**{i: "AAA" for i in range(10)}, 99: "AAB"}
    noisy = triplets_of(aligned_corpus.table, votes)
    _, (triplet_ids, _, _) = evaluator.eval_triplets(ProjectionModel.identity(5), noisy)
    assert "t099" not in triplet_ids


def test_empty_retained_set_raises(aligned_corpus):
    with pytest.raises(EvaluationError, match="no consistent samples"):
        evaluator.eval_triplets(
            ProjectionModel.identity(5), triplets_of(aligned_corpus.table, {0: "AAB"})
        )


def test_evaluation_is_repeatable(aligned_corpus):
    model = ProjectionModel.identity(5)
    first_accuracy, (first_ids, *first_scores) = evaluator.eval_triplets(model, aligned_corpus)
    accuracy, (triplet_ids, *scores) = evaluator.eval_triplets(model, aligned_corpus)
    assert (accuracy, triplet_ids) == (first_accuracy, first_ids)
    assert all(map(np.array_equal, scores, first_scores))


def test_records_ordered_by_triplet_id(aligned_corpus):
    _, (ids, _, _) = evaluator.eval_triplets(
        ProjectionModel.identity(5), aligned_corpus.take(range(9, -1, -1))
    )
    assert list(ids) == sorted(ids)


class TestExportScatter:
    def test_rows_and_header(self, aligned_corpus, tmp_path):
        _, pairs = evaluator.eval_triplets(
            ProjectionModel.identity(5), aligned_corpus.take(range(3))
        )
        path = tmp_path / "scatter.csv"
        evaluator.export_scatter(pairs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "triplet_id,sim_pair_score,dissim_pair_score,correct"
        assert len(lines) == 4

    def test_accuracy_recomputable_from_csv(self, aligned_corpus, tmp_path):
        accuracy, pairs = evaluator.eval_triplets(ProjectionModel.identity(5), aligned_corpus)
        path = tmp_path / "scatter.csv"
        evaluator.export_scatter(pairs, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        # independent recomputation: fraction of points with y < x
        below = sum(
            1 for row in rows
            if float(row["dissim_pair_score"]) < float(row["sim_pair_score"])
        )
        assert below / len(rows) == accuracy

    def test_reexport_byte_identical(self, aligned_corpus, tmp_path):
        _, pairs = evaluator.eval_triplets(ProjectionModel.identity(5), aligned_corpus)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        evaluator.export_scatter(pairs, p1)
        evaluator.export_scatter(pairs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            evaluator.export_scatter(((), np.empty(0), np.empty(0)), tmp_path / "x.csv")
