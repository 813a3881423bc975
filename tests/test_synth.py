import filecmp

import pytest

from facesim import corpus, evaluator, synth
from facesim.errors import ValidationError
from facesim.metric import ProjectionModel

from conftest import planted_triplets


def aggregate(c):
    return corpus.aggregate_triplets(
        c.manifest, c.annotations, corpus.validate_annotators(c.annotations)
    )


class TestPlanted:
    def test_truth_model_scores_perfectly(self, small_planted):
        accuracy, _ = evaluator.eval_triplets(small_planted.truth, planted_triplets(small_planted))
        assert accuracy == 1.0

    def test_identity_model_near_chance(self):
        c = synth.planted(seed=77, n_triplets=300)
        accuracy, _ = evaluator.eval_triplets(ProjectionModel.identity(32), planted_triplets(c))
        assert accuracy <= 0.7

    def test_annotations_unanimous_without_noise(self, small_planted):
        samples = aggregate(small_planted)
        assert all(s.consistent for s in samples)

    def test_noise_fraction_marks_inconsistent(self):
        c = synth.planted(seed=3, n_triplets=100, dim=8, data_subspace=6,
                          truth_rank=2, noise_fraction=0.3)
        samples = aggregate(c)
        assert sum(not s.consistent for s in samples) == 30
        assert all(s.admitted for s in samples)

    def test_triplets_share_target(self, small_planted):
        corpus.verify_target_consistency(planted_triplets(small_planted))

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.planted(seed=9, n_triplets=40, dim=8, data_subspace=6, truth_rank=2).write(a)
        synth.planted(seed=9, n_triplets=40, dim=8, data_subspace=6, truth_rank=2).write(b)
        for name in ("embeddings.csv", "manifest.csv", "annotations.csv", "truth_model.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False)

    def test_written_corpus_roundtrips(self, tmp_path, small_planted):
        small_planted.write(tmp_path)
        table = corpus.load_embeddings(tmp_path / "embeddings.csv")
        manifest = corpus.load_manifest(tmp_path / "manifest.csv")
        annotations = corpus.load_annotations(tmp_path / "annotations.csv")
        assert len(table) == len(small_planted.table)
        assert manifest == small_planted.manifest
        samples = corpus.aggregate_triplets(
            manifest, annotations, corpus.validate_annotators(annotations)
        )
        assert [s.majority for s in samples] == [s.majority for s in aggregate(small_planted)]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            synth.planted(seed=0, n_triplets=0)
        with pytest.raises(ValidationError):
            synth.planted(seed=0, noise_fraction=1.5)
        with pytest.raises(ValidationError):
            synth.planted(seed=0, dim=8, data_subspace=16)


class TestClusteredAttributes:
    def test_labels_cover_four_clusters(self, clustered):
        labels = {(r.age_group, r.gender) for r in clustered.candidates}
        assert labels == {("young", "male"), ("young", "female"),
                          ("older", "male"), ("older", "female")}

    def test_sizes(self, clustered):
        assert len(clustered.candidates) == 120
        assert len(clustered.queries) == 40

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.clustered_attributes(seed=4, per_cluster=10, n_queries=8, dim=8).write(a)
        synth.clustered_attributes(seed=4, per_cluster=10, n_queries=8, dim=8).write(b)
        for name in ("candidates.csv", "queries.csv"):
            assert filecmp.cmp(a / name, b / name, shallow=False)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            synth.clustered_attributes(seed=0, per_cluster=0)
