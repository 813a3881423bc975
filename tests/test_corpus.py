import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facesim import corpus, synth
from facesim.errors import (
    FormatError,
    InfeasibleSplitError,
    IntegrityError,
    ValidationError,
)

import annotation_oracle as oracle
from conftest import (
    annotation_table,
    make_annotation,
    make_record,
    make_triplets,
    planted_triplets,
    vectors,
)


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

    def test_empty_table_keeps_its_width(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(path, [], dim=2)
        table = corpus.load_embeddings(path)
        assert len(table) == 0 and table.dim == 2 and table.matrix.shape == (0, 2)
        again = tmp_path / "again.csv"
        corpus.save_embeddings(table, again)
        assert again.read_bytes() == path.read_bytes()
        assert corpus.load_embeddings(again).dim == 2

    def test_first_bad_row_is_named_at_its_line(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings(
            path,
            [
                "s01,idA,swapped,t1,male,young,1,0,0,0",
                "s02,idB,swapped,t1,male,young,1,nan,0,0",
                "s03,idC,swapped,t1,male,young,0,0,0,0",
            ],
        )
        with pytest.raises(
            ValidationError, match=r"emb\.csv:3: record 's02': non-finite vector component"
        ):
            corpus.load_embeddings(path)

    def test_records_are_views_of_one_read_only_matrix(self, tmp_path):
        built = synth.planted(seed=4, n_triplets=20, dim=8, data_subspace=6, truth_rank=2).table
        path = tmp_path / "emb.csv"
        corpus.save_embeddings(built, path)
        for table in (built, corpus.load_embeddings(path)):
            matrix = table.matrix
            assert matrix.shape == (len(table), table.dim) and matrix.dtype == np.float64
            assert matrix.flags.c_contiguous and not matrix.flags.writeable
            for row, rec in enumerate(table):
                assert np.shares_memory(rec.vector, matrix)
                assert np.array_equal(rec.vector, matrix[row])
            ids = [rec.image_id for rec in table][::-3]
            np.testing.assert_array_equal(
                vectors(table, ids), np.array([table[i].vector for i in ids])
            )
        with pytest.raises(IntegrityError, match="nope"):
            vectors(built, ["nope"])

    def test_records_are_built_from_the_columns_on_each_access(self, tmp_path, small_planted):
        path = tmp_path / "emb.csv"
        corpus.save_embeddings(small_planted.table, path)
        table = corpus.load_embeddings(path)
        first = list(table)
        assert len(first) == len(table)
        for name in corpus.EMBEDDING_FIXED_COLUMNS:
            assert getattr(table, name + "s") == tuple(getattr(rec, name) for rec in first)
        looked_up = table[small_planted.table.image_ids[5]]
        for name in corpus.EMBEDDING_FIXED_COLUMNS:
            assert getattr(looked_up, name) == getattr(first[5], name)
        assert np.array_equal(looked_up.vector, first[5].vector)

    def test_records_of_one_row_compare_without_raising(self, small_planted):
        """Records compare by identity: a vector field would make `==` ambiguous."""
        table, (first, second) = small_planted.table, small_planted.table.image_ids[:2]
        record = table[first]
        assert record == record and table[first] != table[first] != table[second]

    @pytest.mark.parametrize("labels, message", [
        ({"role": "bogus"}, "record 'r1': unknown role 'bogus'"),
        ({"gender": "other"}, "record 'r1': unknown gender 'other'"),
        ({"target_id": None}, "swapped record 'r1' is missing target_id"),
    ])
    def test_an_invalid_record_is_refused_where_it_enters_a_table(self, labels, message):
        record = make_record("r0", [1.0, 0.0])
        bad = dataclasses.replace(make_record("r1", [0.0, 1.0]), **labels)
        with pytest.raises(ValidationError) as info:
            corpus.EmbeddingTable.of([record, bad])
        assert (str(info.value), info.value.row) == (message, 1)

    def test_records_of_two_widths_are_refused(self):
        records = [make_record("r0", [1.0, 0.0]), make_record("r1", [1.0, 0.0, 0.0])]
        with pytest.raises(ValidationError) as info:
            corpus.EmbeddingTable.of(records)
        assert str(info.value) == "record vectors must all have one dimension"


LABELS = {"role": ("target", "source", "swapped"), "gender": ("male", "female", "unknown", ""),
          "age_group": ("young", "older", "unknown", "")}


def first_invalid_line(rows):
    """(line, message) of the first invalid row, each row checked in file order as a record
    was built and then indexed: labels, then vector, then duplicate id. None if all valid."""
    seen = set()
    for lineno, (image_id, _, role, target_id, gender, age_group, *cells) in rows:
        vector = [float(c) for c in cells]
        if role not in ("target", "source", "swapped"):
            message = f"record '{image_id}': unknown role '{role}'"
        elif (gender or "unknown") not in ("male", "female", "unknown"):
            message = f"record '{image_id}': unknown gender '{gender}'"
        elif (age_group or "unknown") not in ("young", "older", "unknown"):
            message = f"record '{image_id}': unknown age_group '{age_group}'"
        elif role == "swapped" and not target_id:
            message = f"swapped record '{image_id}' is missing target_id"
        elif not all(math.isfinite(x) for x in vector):
            message = f"record '{image_id}': non-finite vector component"
        elif not any(vector):
            message = f"record '{image_id}': zero vector"
        elif image_id in seen:
            message = f"duplicate image_id '{image_id}'"
        else:
            seen.add(image_id)
            continue
        return lineno, message
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), n=st.integers(1, 25), quoted=st.booleans())
def test_load_names_the_first_invalid_row_as_row_by_row_checks_did(
    tmp_path_factory, data, dim, n, quoted
):
    """Faults at random rows: the load error is the row-by-row oracle's, message and line,
    and the table's own error, built from the same columns and matrix, its message and row."""
    rows = [
        [f"s{i}", f"id{i % 3}", data.draw(st.sampled_from(LABELS["role"])), f"t{i % 2}",
         data.draw(st.sampled_from(LABELS["gender"])),
         data.draw(st.sampled_from(LABELS["age_group"])),
         *(str(data.draw(st.integers(-9, 9).filter(bool))) for _ in range(dim))]
        for i in range(n)
    ]
    # faults land on a few rows, so that one row often holds several
    faulty_rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(0, 5))):
        row = data.draw(st.sampled_from(faulty_rows))
        fault = data.draw(st.sampled_from(
            ["role", "gender", "age_group", "target", "nan", "inf", "zero", "duplicate"]))
        if fault in LABELS:
            rows[row][{"role": 2, "gender": 4, "age_group": 5}[fault]] = "bogus"
        elif fault == "target":
            rows[row][2:4] = ["swapped", ""]
        elif fault in ("nan", "inf"):
            rows[row][6 + data.draw(st.integers(0, dim - 1))] = fault
        elif fault == "zero":
            rows[row][6:] = ["0"] * dim
        elif row > 0:
            rows[row][0] = rows[data.draw(st.integers(0, row - 1))][0]
    header = corpus.EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(dim)]
    buffer = io.StringIO()
    # every field quoted sends the file through the per-cell parser instead of numpy
    csv.writer(buffer, lineterminator="\n",
               quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL).writerows([header, *rows])
    path = tmp_path_factory.mktemp("faults") / "emb.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8")
    expected = first_invalid_line(list(enumerate(rows, start=2)))
    # the same rows as columns and a matrix, which the table checks with no file to name
    *labels, genders, age_groups = zip(*(row[:6] for row in rows))
    columns = (*labels, tuple(g or "unknown" for g in genders),
               tuple(a or "unknown" for a in age_groups))
    matrix = np.array([[float(cell) for cell in row[6:]] for row in rows])
    if expected is None:
        assert len(corpus.load_embeddings(path)) == n
        assert len(corpus.EmbeddingTable(columns, matrix)) == n
        return
    with pytest.raises(ValidationError) as err:
        corpus.load_embeddings(path)
    assert str(err.value) == f"{path}:{expected[0]}: {expected[1]}"
    with pytest.raises(ValidationError) as err:
        corpus.EmbeddingTable(columns, matrix)
    assert (err.value.row, str(err.value)) == (expected[0] - 2, expected[1])


@pytest.mark.parametrize("bad_row, message", [
    ("s37,id37,bogus,,,,1,2", "record 's37': unknown role 'bogus'"),
    ("s37,id37,source,,,,0,0", "record 's37': zero vector"),
], ids=["label", "zero-vector"])
def test_a_bad_row_in_the_last_range_is_named_at_the_per_cell_parsers_line(
    tmp_path, monkeypatch, bad_row, message
):
    """The block parser's row i is line i + 2 in every block: on one to four threads, a
    bad row in the last of several blocks gets the message the per-cell parser's line
    numbers give."""
    rows = [f"s{i},id{i},source,,,,{i + 1},0.5" for i in range(40)]
    rows[37] = bad_row
    path = tmp_path / "emb.csv"
    write_embeddings(path, rows, dim=2)
    with monkeypatch.context() as per_cell, pytest.raises(ValidationError) as err:
        per_cell.setattr(corpus, "_parse_embedding_block", lambda path: None)
        corpus.load_embeddings(path)
    assert str(err.value) == f"{path}:39: {message}"
    monkeypatch.setattr(corpus, "_BLOCK_CELLS", 14)  # blocks of 7 rows: the last is 35-39
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(corpus, "_CPUS", cpus)
        assert corpus._parse_embedding_block(path) is not None
        with pytest.raises(ValidationError) as block:
            corpus.load_embeddings(path)
        assert str(block.value) == str(err.value)


class TestValidateAnnotators:
    def test_all_dummies_correct_is_valid(self):
        anns = [make_annotation("p1", f"d{i}", "A", True, "A") for i in range(5)]
        assert corpus.validate_annotators(annotation_table(anns)) == {"p1"}

    def test_one_wrong_dummy_invalidates(self):
        anns = [make_annotation("p2", f"d{i}", "A", True, "A") for i in range(4)]
        anns.append(make_annotation("p2", "d4", "B", True, "A"))
        assert corpus.validate_annotators(annotation_table(anns)) == set()

    def test_no_dummies_seen_is_invalid(self):
        anns = [make_annotation("p3", "t1", "A")]
        assert corpus.validate_annotators(annotation_table(anns)) == set()

    def test_idempotent(self):
        anns = [
            make_annotation("p1", "d0", "A", True, "A"),
            make_annotation("p2", "d0", "B", True, "A"),
            make_annotation("p1", "t1", "B"),
        ]
        first = corpus.validate_annotators(annotation_table(anns))
        assert corpus.validate_annotators(annotation_table(anns)) == first == {"p1"}


class TestAggregateTriplets:
    MANIFEST = {"t1": ("c1", "a1", "b1")}

    def _aggregate(self, anns, valid):
        return corpus.aggregate_triplets(self.MANIFEST, annotation_table(anns), valid)

    def test_strict_majority(self):
        anns = [
            make_annotation("p1", "t1", "A"),
            make_annotation("p2", "t1", "A"),
            make_annotation("p3", "t1", "B"),
        ]
        (sample,) = self._aggregate(anns, {"p1", "p2", "p3"})
        assert sample.majority == "A" and not sample.consistent and sample.admitted

    def test_unanimous_is_consistent(self):
        anns = [make_annotation(p, "t1", "A") for p in ("p1", "p2", "p3")]
        (sample,) = self._aggregate(anns, {"p1", "p2", "p3"})
        assert sample.consistent and sample.majority == "A"

    def test_too_few_votes_rejected(self):
        anns = [
            make_annotation("p1", "t1", "A"),
            make_annotation("p2", "t1", "B"),
            make_annotation("bad", "t1", "A"),
        ]
        (sample,) = self._aggregate(anns, {"p1", "p2"})
        assert not sample.admitted and "valid votes" in sample.rejection

    def test_tie_rejected(self):
        anns = [make_annotation(p, "t1", c) for p, c in
                [("p1", "A"), ("p2", "A"), ("p3", "B"), ("p4", "B")]]
        (sample,) = self._aggregate(anns, {"p1", "p2", "p3", "p4"})
        assert not sample.admitted and "tied" in sample.rejection

    def test_unknown_triplet_raises(self):
        anns = [make_annotation("p1", "nope", "A")]
        with pytest.raises(IntegrityError, match="nope"):
            self._aggregate(anns, {"p1"})

    def test_dummies_and_invalid_annotators_dropped(self):
        anns = [make_annotation(p, "t1", "A") for p in ("p1", "p2", "p3")]
        anns.append(make_annotation("cheater", "t1", "B"))
        anns.append(make_annotation("p1", "d0", "A", True, "A"))
        (sample,) = self._aggregate(anns, {"p1", "p2", "p3"})
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
def planted():
    return synth.planted(seed=21, n_triplets=120, dim=8, data_subspace=6, truth_rank=2)


@pytest.fixture(scope="module")
def triplets(planted):
    return planted_triplets(planted)


class TestSplitEval:
    @pytest.mark.parametrize("mode", ["i", "ii", "iii"])
    def test_modes_pass_independent_audit(self, triplets, mode):
        partition = corpus.split_eval(triplets, mode, seed=3)
        assert partition.train and partition.test
        assert corpus.audit_partition(triplets, triplets.table, partition) == []

    @pytest.mark.parametrize("mode", ["i", "ii", "iii"])
    def test_deterministic_replay(self, triplets, mode):
        p1 = corpus.split_eval(triplets, mode, seed=9)
        p2 = corpus.split_eval(triplets, mode, seed=9)
        assert p1.to_json() == p2.to_json()

    def test_mode_iii_single_target_infeasible(self):
        rng = np.random.default_rng(0)
        records, manifest = [], {}
        for i in range(6):
            ids = []
            for part in "cab":
                ids.append(f"i{i}{part}")
                records.append(
                    make_record(ids[-1], rng.normal(size=4), identity_id=f"s{i}{part}",
                                target_id="only_target")
                )
            manifest[f"t{i}"] = tuple(ids)
        table = corpus.EmbeddingTable.of(records)
        triplets = make_triplets(table, manifest, dict.fromkeys(manifest, "AAA"))
        with pytest.raises(InfeasibleSplitError, match="single target"):
            corpus.split_eval(triplets, "iii", seed=0)

    def test_partition_json_roundtrip(self, triplets, tmp_path):
        partition = corpus.split_eval(triplets, "i", seed=1)
        path = tmp_path / "partition.json"
        partition.save(path)
        loaded = corpus.DatasetPartition.load(path)
        assert loaded.to_json() == partition.to_json()
        payload = json.loads(path.read_text())
        assert payload["mode"] == "i" and payload["seed"] == 1

    def test_bad_ratios_rejected(self, triplets):
        with pytest.raises(ValidationError):
            corpus.split_eval(triplets, "i", ratios=(0.5, 0.5, 0.5))

    def test_audit_flags_violations(self, triplets):
        partition = corpus.split_eval(triplets, "i", seed=2)
        # corrupt: move a train triplet into test
        bad = corpus.DatasetPartition(
            mode="i", seed=2, ratios=partition.ratios,
            train=partition.train, val=partition.val,
            test=partition.test + [partition.train[0]],
        )
        assert corpus.audit_partition(triplets, triplets.table, bad) != []


def _two_target_triplets():
    """Triplets x1 (target t1, sources s1-s3) and x2 (target t2, sources s4-s6)."""
    rng = np.random.default_rng(3)
    records = [make_record(f"{image}{x}", rng.normal(size=3), identity_id=f"s{3 * x - 3 + k}",
                           target_id=f"t{x}")
               for x in (1, 2) for k, image in enumerate("abc", start=1)]
    manifest = {f"x{x}": (f"a{x}", f"b{x}", f"c{x}") for x in (1, 2)}
    return make_triplets(corpus.EmbeddingTable.of(records), manifest, {"x1": "AAA", "x2": "AAA"})


@pytest.mark.parametrize("mode, violation", [
    ("ii", "test triplet 'x2' has sources unseen in train"),
    ("iii", "test triplet 'x2' target 't2' not in train"),
    ("iv", "unknown mode 'iv'"),
])
def test_audit_names_each_mode_rule_a_partition_breaks(mode, violation):
    triplets = _two_target_triplets()
    partition = corpus.DatasetPartition(mode, 0, (0.5, 0.0, 0.5), ["x1"], [], ["x2"])
    assert corpus.audit_partition(triplets, triplets.table, partition) == [violation]


def test_split_refuses_triplets_that_are_not_swaps_onto_one_target():
    triplets = _two_target_triplets()
    crossed = make_triplets(triplets.table, {"x1": ("a1", "b1", "c2"), "x2": ("a2", "b2", "c2")},
                            {"x1": "AAA", "x2": "AAA"})
    with pytest.raises(IntegrityError) as info:
        corpus.split_eval(crossed, "i")
    assert str(info.value) == ("triplet 'x1' must reference swapped records sharing one"
                               " target_id, got targets ['t1', 't2']")


@pytest.mark.parametrize("seed", [1, 7919])
def test_record_edges_agree_with_the_triplet_table(seed):
    """`build_datasets` and `audit_partition` give the same answer for the records of
    `aggregate_triplets` as for the triplet table of `count_votes`, on noisy votes."""
    c = synth.planted(seed=seed, n_triplets=120, dim=8, data_subspace=6, truth_rank=2,
                      noise_fraction=0.2)
    triplets = planted_triplets(c)
    records = corpus.aggregate_triplets(c.manifest, c.annotations,
                                        corpus.validate_annotators(c.annotations))
    from_table, from_records = corpus.build_datasets(triplets), corpus.build_datasets(records)
    for name in ("D1", "D2"):
        assert list(from_table[name].triplet_ids) == [s.triplet_id for s in from_records[name]]
    assert len(from_table["D2"]) < len(from_table["D1"])
    for mode in ("i", "ii", "iii"):
        partition = corpus.split_eval(triplets, mode, seed=seed)
        moved = dataclasses.replace(partition, train=partition.train + partition.test[:1],
                                    test=partition.test[1:])
        for checked, clean in ((partition, True), (moved, False)):
            violations = corpus.audit_partition(triplets, c.table, checked)
            assert corpus.audit_partition(records, c.table, checked) == violations
            assert (violations == []) == clean, (mode, violations)


def test_verify_target_consistency_catches_mismatch():
    rng = np.random.default_rng(1)
    records = [
        make_record("c", rng.normal(size=3), target_id="t1"),
        make_record("a", rng.normal(size=3), target_id="t1"),
        make_record("b", rng.normal(size=3), target_id="t2"),
    ]
    triplets = make_triplets(corpus.EmbeddingTable.of(records), {"x": ("c", "a", "b")},
                             {"x": "AAA"})
    with pytest.raises(IntegrityError, match="x"):
        corpus.verify_target_consistency(triplets)


# ---------------------------------------------------------------------------
# the columnar annotation path against the record loops of `annotation_oracle`

# annotator ids whose sort order, trailing NULs and non-ASCII letters matter
ANNOTATOR_IDS = st.text(alphabet="ab\x00é", max_size=3)


@st.composite
def annotated_corpora(draw):
    """A manifest and annotation records: annotators who pass or fail screening or saw
    no dummy, duplicate votes, ties, triplets without votes, and at times a vote on a
    triplet the manifest lacks."""
    manifest = {f"t{i}": (f"c{i}", f"a{i}", f"b{i}") for i in range(draw(st.integers(0, 5)))}
    annotators = draw(st.lists(ANNOTATOR_IDS, min_size=1, max_size=5, unique=True))
    annotations = []
    for annotator in annotators:
        for _ in range(draw(st.integers(0, 2))):  # no dummy at all for some
            annotations.append(make_annotation(
                annotator, draw(st.sampled_from(["d0", "d1", "nope", *manifest])),
                draw(st.sampled_from("AB")), True, draw(st.sampled_from("AB")),
            ))
    voted = [*manifest, *(["nope"] if draw(st.integers(0, 9)) == 0 else [])]
    if voted:
        votes = st.tuples(st.sampled_from(annotators), st.sampled_from(voted),
                          st.sampled_from("AB"))
        annotations += [make_annotation(*vote) for vote in draw(st.lists(votes, max_size=30))]
    return manifest, draw(st.permutations(annotations))


@settings(max_examples=300, deadline=None)
@given(drawn=annotated_corpora(), min_votes=st.integers(1, 4), data=st.data())
def test_vote_columns_agree_with_the_record_loop(drawn, min_votes, data):
    manifest, annotations = drawn
    table = annotation_table(annotations)
    screened = oracle.validate_annotators(annotations)
    assert corpus.validate_annotators(table) == screened
    everyone = sorted({a.annotator_id for a in annotations})
    chosen = data.draw(st.sets(st.sampled_from(everyone)) if everyone else st.just(set()))
    for valid in (screened, chosen):
        try:
            expected = oracle.aggregate_triplets(manifest, annotations, valid, min_votes)
        except IntegrityError as exc:
            with pytest.raises(IntegrityError) as err:
                corpus.aggregate_triplets(manifest, table, valid, min_votes)
            assert str(err.value) == str(exc)
            continue
        got = corpus.aggregate_triplets(manifest, table, valid, min_votes)
        fields = ("triplet_id", "ref_id", "option_a_id", "option_b_id", "votes", "majority",
                  "consistent", "admitted", "rejection")
        assert [[getattr(s, f) for f in fields] for s in got] == \
            [[getattr(s, f) for f in fields] for s in expected]
        mask = np.array([a in valid for a in table.annotators], dtype=bool)
        columns = corpus.count_votes(manifest, table, mask, min_votes,
                                     table=corpus.EmbeddingTable.of([]))
        assert columns.n_a.tolist() == [s.votes.count("A") for s in expected]
        assert columns.n_b.tolist() == [s.votes.count("B") for s in expected]
        assert columns.admitted.tolist() == [s.admitted for s in expected]
        assert columns.consistent.tolist() == [s.consistent for s in expected]
        rejections = [s.rejection or "" for s in expected]
        assert columns.funnel()["rejected"] == {
            "too_few_votes": sum(r.startswith("only") for r in rejections),
            "tied_votes": sum(r.startswith("tied") for r in rejections),
        }
        assert [corpus.MAJORITIES[m] for m in columns.majority] == \
            [s.majority for s in expected]


def test_count_votes_takes_its_embedding_table_by_name_only():
    """A call without `table`, or with it in `min_votes`' place, fails at once."""
    annotations = annotation_table([make_annotation("p1", "t1", "A")])
    screened = np.ones(1, bool)
    with pytest.raises(TypeError, match="table"):
        corpus.count_votes({"t1": ("c", "a", "b")}, annotations, screened, 1)
    with pytest.raises(TypeError):
        corpus.count_votes({"t1": ("c", "a", "b")}, annotations, screened, 1,
                           corpus.EmbeddingTable.of([]))


@pytest.fixture(scope="module")
def annotation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("annotations") / "annotations.csv"


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(
    st.sampled_from(["p1", "p2"]), st.sampled_from(["t0", "d0"]),
    st.sampled_from(["A", "B", "C", ""]),
    st.sampled_from(["true", "false", "0", "1", "TRUE", "False", "yes", ""]),
    st.sampled_from(["", "A", "B", "X"]),
), max_size=8))
def test_load_annotations_agrees_with_the_record_loop(annotation_file, rows):
    with open(annotation_file, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([corpus.ANNOTATION_COLUMNS, *rows])
    try:
        expected = oracle.load_annotations(annotation_file)
    except (FormatError, ValidationError) as exc:
        with pytest.raises(type(exc)) as err:
            corpus.load_annotations(annotation_file)
        assert str(err.value) == str(exc)
        return
    table = corpus.load_annotations(annotation_file)
    assert oracle.records(table) == expected
    assert table.annotators == tuple(sorted({a.annotator_id for a in expected}))


def test_target_consistency_agrees_with_the_record_loop(planted):
    table = planted.table
    samples = corpus.aggregate_triplets(
        planted.manifest, planted.annotations, corpus.validate_annotators(planted.annotations)
    )
    admitted = [s for s in samples if s.admitted]
    first_target = table.target_ids[table.row(admitted[0].ref_id)]
    elsewhere = next(s for s in admitted if table.target_ids[table.row(s.ref_id)] != first_target)
    edits = {
        "consistent": {},
        "crossed": {4: {"option_b_id": elsewhere.ref_id}},
        "unknown": {9: {"ref_id": "ghost9"}, 3: {"option_b_id": "ghost3"}},
        "crossed-before-unknown": {2: {"option_a_id": elsewhere.ref_id}, 5: {"ref_id": "ghost"}},
    }
    for name, edit in edits.items():
        broken = [dataclasses.replace(s, **edit.get(i, {})) for i, s in enumerate(admitted)]
        manifest = {s.triplet_id: (s.ref_id, s.option_a_id, s.option_b_id) for s in broken}
        triplets = make_triplets(table, manifest, {s.triplet_id: "".join(s.votes) for s in broken})
        outcomes = []
        for check in (lambda: oracle.verify_target_consistency(broken, table),
                      lambda: corpus.verify_target_consistency(triplets)):
            try:
                check()
                outcomes.append(None)
            except IntegrityError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], name
        assert (outcomes[0] is None) == (name == "consistent")
