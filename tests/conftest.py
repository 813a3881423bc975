import numpy as np
import pytest

from facesim import synth
from facesim.attributes import (
    AttributeGroups,
    classification_report,
    score_groups,
    task_categories,
)
from facesim.corpus import (
    AnnotationTable,
    EmbeddingRecord,
    EmbeddingTable,
    count_votes,
)

from annotation_oracle import RawAnnotation


@pytest.fixture(scope="session")
def small_planted():
    return synth.planted(seed=123, n_triplets=60, dim=8, data_subspace=6, truth_rank=2)


@pytest.fixture(scope="session")
def clustered():
    return synth.clustered_attributes(seed=5, per_cluster=30, n_queries=40, dim=16)


def make_record(image_id, vector, identity_id=None, role="swapped", target_id="t0",
                gender="unknown", age_group="unknown"):
    return EmbeddingRecord(
        image_id=image_id,
        identity_id=identity_id or f"id_{image_id}",
        role=role,
        target_id=target_id if role == "swapped" else None,
        gender=gender,
        age_group=age_group,
        vector=np.asarray(vector, dtype=float),
    )


def make_groups(members):
    """Attribute groups named by the keys of `members`, each holding its records in order,
    as rows of one table of the distinct records (the same image_id is the same record)."""
    distinct = {}
    for group in members.values():
        for record in group:
            assert distinct.setdefault(record.image_id, record) is record, record.image_id
    table = EmbeddingTable.of(list(distinct.values()))
    return AttributeGroups(table, {
        name: np.array([table.row(r.image_id) for r in group], dtype=np.intp)
        for name, group in members.items()
    })


def make_group(name, members):
    """The attribute groups of one group of these records (see `make_groups`)."""
    return make_groups({name: members})


def member_ids(groups, name):
    """Group `name`'s member image ids, in member order."""
    return [groups.table.image_ids[row] for row in groups.rows[name].tolist()]


def member_records(groups, name):
    """Group `name`'s member records, in member order."""
    return tuple(groups.table[image_id] for image_id in member_ids(groups, name))


def classify(model, queries, groups, task, use_t=False):
    """The report of an attribute task, composed as `eval-attributes` composes it: the
    queries scored against the task's groups, then classified by their CI upper bounds."""
    names = task_categories(task)
    scores = score_groups(model, queries, groups, names, use_t=use_t)
    return classification_report(task, queries, names, scores.upper)


def vectors(table, image_ids):
    """The (len(image_ids), d) rows of `table.matrix` holding these images' vectors."""
    return table.matrix[[table.row(i) for i in image_ids]]


def planted_triplets(c):
    """A synthetic corpus's triplet table, counted over its embedding table from the
    votes of the annotators who pass screening."""
    return count_votes(c.manifest, c.annotations, c.annotations.screened(), table=c.table)


def make_triplets(table, manifest, votes):
    """The triplet table `count_votes` makes over `table` for `manifest`, where `votes`
    maps a triplet id to its choices ("AAB"), each cast by its own screened annotator."""
    annotations = annotation_table([
        make_annotation(f"p{i}", triplet_id, choice)
        for triplet_id, choices in votes.items() for i, choice in enumerate(choices)
    ])
    screened = np.ones(len(annotations.annotators), bool)
    return count_votes(manifest, annotations, screened, table=table)


def make_annotation(annotator, triplet, choice, is_dummy=False, dummy_answer=None):
    return RawAnnotation(
        annotator_id=annotator,
        triplet_id=triplet,
        choice=choice,
        is_dummy=is_dummy,
        dummy_answer=dummy_answer,
    )


def annotation_table(records):
    """The annotation table of these records (`make_annotation`), in their order."""
    return AnnotationTable(*(tuple(getattr(r, name) for r in records) for name in (
        "annotator_id", "triplet_id", "choice", "is_dummy", "dummy_answer")))
