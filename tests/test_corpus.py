import json

import numpy as np
import pytest

from facesim import corpus
from facesim.errors import (
    FormatError,
    InfeasibleSplitError,
    IntegrityError,
    ValidationError,
)

from conftest import make_annotation, make_record


def write_embeddings(path, rows, dim=4, newline="\n"):
    header = ",".join(corpus.EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(dim)])
    path.write_bytes(newline.join([header, *rows, ""]).encode("utf-8"))


class TestLoadEmbeddings:
    def test_parses_rows(self, tmp_path):
        path = tmp_path / "emb.csv"
        # "\r\n" line ends are what earlier releases wrote
        for newline in ("\n", "\r\n"):
            write_embeddings(
                path,
                [
                    "s01,idA,swapped,t1,male,young,1,0,0,0",
                    "s02,idB,swapped,t1,female,older,0,1,0,0",
                    "s03,idC,source,,male,young,0,0,1,0",
                ],
                newline=newline,
            )
            table = corpus.load_embeddings(path)
            assert len(table) == 3 and table.dim == 4
            assert table["s01"].identity_id == "idA"
            assert table["s03"].target_id is None

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(
            path,
            ["s01,idA,swapped,t1,male,young,1,0,0,0", "s02,idB,swapped,t1,male,young,1,0,0"],
        )
        with pytest.raises(FormatError, match=":3"):
            corpus.load_embeddings(path)

    def test_duplicate_image_id(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(
            path,
            ["s01,idA,swapped,t1,male,young,1,0,0,0", "s01,idB,swapped,t1,male,young,0,1,0,0"],
        )
        with pytest.raises(ValidationError, match=r"emb\.csv:3: duplicate image_id 's01'"):
            corpus.load_embeddings(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(path, ["s01,idA,swapped,t1,male,young,0,0,0,0"])
        with pytest.raises(ValidationError, match="zero"):
            corpus.load_embeddings(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(path, ["s01,idA,swapped,t1,male,young,1,oops,0,0"])
        with pytest.raises(FormatError, match=":2"):
            corpus.load_embeddings(path)

    def test_swapped_requires_target(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(path, ["s01,idA,swapped,,male,young,1,0,0,0"])
        with pytest.raises(ValidationError, match="target_id"):
            corpus.load_embeddings(path)

    def test_roundtrip(self, tmp_path, small_planted):
        path = tmp_path / "emb.csv"
        corpus.save_embeddings(small_planted.table, path)
        again = corpus.load_embeddings(path)
        assert len(again) == len(small_planted.table)
        for rec in small_planted.table:
            np.testing.assert_array_equal(again[rec.image_id].vector, rec.vector)


class TestValidateAnnotators:
    def test_all_dummies_correct_is_valid(self):
        anns = [make_annotation("p1", f"d{i}", "A", True, "A") for i in range(5)]
        assert corpus.validate_annotators(anns) == {"p1"}

    def test_one_wrong_dummy_invalidates(self):
        anns = [make_annotation("p2", f"d{i}", "A", True, "A") for i in range(4)]
        anns.append(make_annotation("p2", "d4", "B", True, "A"))
        assert corpus.validate_annotators(anns) == set()

    def test_no_dummies_seen_is_invalid(self):
        anns = [make_annotation("p3", "t1", "A")]
        assert corpus.validate_annotators(anns) == set()

    def test_idempotent(self):
        anns = [
            make_annotation("p1", "d0", "A", True, "A"),
            make_annotation("p2", "d0", "B", True, "A"),
            make_annotation("p1", "t1", "B"),
        ]
        first = corpus.validate_annotators(anns)
        assert corpus.validate_annotators(anns) == first == {"p1"}


class TestAggregateTriplets:
    MANIFEST = {"t1": ("c1", "a1", "b1")}

    def test_strict_majority(self):
        anns = [
            make_annotation("p1", "t1", "A"),
            make_annotation("p2", "t1", "A"),
            make_annotation("p3", "t1", "B"),
        ]
        (sample,) = corpus.aggregate_triplets(self.MANIFEST, anns, {"p1", "p2", "p3"})
        assert sample.majority == "A" and not sample.consistent and sample.admitted

    def test_unanimous_is_consistent(self):
        anns = [make_annotation(p, "t1", "A") for p in ("p1", "p2", "p3")]
        (sample,) = corpus.aggregate_triplets(self.MANIFEST, anns, {"p1", "p2", "p3"})
        assert sample.consistent and sample.majority == "A"

    def test_too_few_votes_rejected(self):
        anns = [
            make_annotation("p1", "t1", "A"),
            make_annotation("p2", "t1", "B"),
            make_annotation("bad", "t1", "A"),
        ]
        (sample,) = corpus.aggregate_triplets(self.MANIFEST, anns, {"p1", "p2"})
        assert not sample.admitted and "valid votes" in sample.rejection

    def test_tie_rejected(self):
        anns = [make_annotation(p, "t1", c) for p, c in
                [("p1", "A"), ("p2", "A"), ("p3", "B"), ("p4", "B")]]
        (sample,) = corpus.aggregate_triplets(
            self.MANIFEST, anns, {"p1", "p2", "p3", "p4"}
        )
        assert not sample.admitted and "tied" in sample.rejection

    def test_unknown_triplet_raises(self):
        anns = [make_annotation("p1", "nope", "A")]
        with pytest.raises(IntegrityError, match="nope"):
            corpus.aggregate_triplets(self.MANIFEST, anns, {"p1"})

    def test_dummies_and_invalid_annotators_dropped(self):
        anns = [make_annotation(p, "t1", "A") for p in ("p1", "p2", "p3")]
        anns.append(make_annotation("cheater", "t1", "B"))
        anns.append(make_annotation("p1", "d0", "A", True, "A"))
        (sample,) = corpus.aggregate_triplets(self.MANIFEST, anns, {"p1", "p2", "p3"})
        assert sample.votes == ("A", "A", "A")


class TestBuildDatasets:
    def _samples(self, n, n_consistent):
        out = []
        for i in range(n):
            consistent = i < n_consistent
            votes = ("A", "A", "A") if consistent else ("A", "A", "B")
            out.append(
                corpus.TripletSample(
                    triplet_id=f"t{i}", ref_id="c", option_a_id="a", option_b_id="b",
                    votes=votes, majority="A", consistent=consistent, admitted=True,
                )
            )
        return out

    def test_filter_semantics(self):
        ds = corpus.build_datasets(self._samples(10, 6))
        assert len(ds["D1"]) == 10 and len(ds["D2"]) == 6

    def test_d2_subset_of_d1(self, small_planted):
        samples = corpus.aggregate_triplets(
            small_planted.manifest,
            small_planted.annotations,
            corpus.validate_annotators(small_planted.annotations),
        )
        ds = corpus.build_datasets(samples)
        d1_ids = {s.triplet_id for s in ds["D1"]}
        assert {s.triplet_id for s in ds["D2"]} <= d1_ids

    def test_no_consistent_warns(self, caplog):
        with caplog.at_level("WARNING"):
            ds = corpus.build_datasets(self._samples(4, 0))
        assert ds["D2"] == [] and "D2 is empty" in caplog.text

    def test_all_consistent_means_equal(self):
        ds = corpus.build_datasets(self._samples(5, 5))
        assert ds["D1"] == ds["D2"]

    def test_rejected_samples_in_no_dataset(self):
        samples = self._samples(3, 3)
        samples.append(
            corpus.TripletSample(
                triplet_id="rej", ref_id="c", option_a_id="a", option_b_id="b",
                votes=("A", "B"), majority=None, consistent=False, admitted=False,
                rejection="tied votes (1 vs 1)",
            )
        )
        ds = corpus.build_datasets(samples)
        assert all(s.triplet_id != "rej" for s in ds["D1"])


@pytest.fixture(scope="module")
def planted_samples():
    from facesim import synth

    c = synth.planted(seed=21, n_triplets=120, dim=8, data_subspace=6, truth_rank=2)
    samples = corpus.aggregate_triplets(
        c.manifest, c.annotations, corpus.validate_annotators(c.annotations)
    )
    return c.table, samples


class TestSplitEval:
    @pytest.mark.parametrize("mode", ["i", "ii", "iii"])
    def test_modes_pass_independent_audit(self, planted_samples, mode):
        table, samples = planted_samples
        partition = corpus.split_eval(samples, table, mode, seed=3)
        assert partition.train and partition.test
        assert corpus.audit_partition(samples, table, partition) == []

    @pytest.mark.parametrize("mode", ["i", "ii", "iii"])
    def test_deterministic_replay(self, planted_samples, mode):
        table, samples = planted_samples
        p1 = corpus.split_eval(samples, table, mode, seed=9)
        p2 = corpus.split_eval(samples, table, mode, seed=9)
        assert p1.to_json() == p2.to_json()

    def test_mode_iii_single_target_infeasible(self):
        rng = np.random.default_rng(0)
        records, manifest, samples = [], {}, []
        for i in range(6):
            ids = []
            for part in "cab":
                ids.append(f"i{i}{part}")
                records.append(
                    make_record(ids[-1], rng.normal(size=4), identity_id=f"s{i}{part}",
                                target_id="only_target")
                )
            manifest[f"t{i}"] = tuple(ids)
            samples.append(
                corpus.TripletSample(
                    triplet_id=f"t{i}", ref_id=ids[0], option_a_id=ids[1],
                    option_b_id=ids[2], votes=("A", "A", "A"), majority="A",
                    consistent=True, admitted=True,
                )
            )
        table = corpus.EmbeddingTable(records)
        with pytest.raises(InfeasibleSplitError, match="single target"):
            corpus.split_eval(samples, table, "iii", seed=0)

    def test_partition_json_roundtrip(self, planted_samples, tmp_path):
        table, samples = planted_samples
        partition = corpus.split_eval(samples, table, "i", seed=1)
        path = tmp_path / "partition.json"
        partition.save(path)
        loaded = corpus.DatasetPartition.load(path)
        assert loaded.to_json() == partition.to_json()
        payload = json.loads(path.read_text())
        assert payload["mode"] == "i" and payload["seed"] == 1

    def test_bad_ratios_rejected(self, planted_samples):
        table, samples = planted_samples
        with pytest.raises(ValidationError):
            corpus.split_eval(samples, table, "i", ratios=(0.5, 0.5, 0.5))

    def test_audit_flags_violations(self, planted_samples):
        table, samples = planted_samples
        partition = corpus.split_eval(samples, table, "i", seed=2)
        # corrupt: move a train triplet into test
        bad = corpus.DatasetPartition(
            mode="i", seed=2, ratios=partition.ratios,
            train=partition.train, val=partition.val,
            test=partition.test + [partition.train[0]],
        )
        assert corpus.audit_partition(samples, table, bad) != []


def test_verify_target_consistency_catches_mismatch():
    rng = np.random.default_rng(1)
    records = [
        make_record("c", rng.normal(size=3), target_id="t1"),
        make_record("a", rng.normal(size=3), target_id="t1"),
        make_record("b", rng.normal(size=3), target_id="t2"),
    ]
    table = corpus.EmbeddingTable(records)
    sample = corpus.TripletSample(
        triplet_id="x", ref_id="c", option_a_id="a", option_b_id="b",
        votes=("A", "A", "A"), majority="A", consistent=True, admitted=True,
    )
    with pytest.raises(IntegrityError, match="x"):
        corpus.verify_target_consistency([sample], table)
