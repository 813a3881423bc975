import numpy as np
import pytest

from facesim import synth
from facesim.attributes import AttributeGroup
from facesim.corpus import EmbeddingRecord, EmbeddingTable, RawAnnotation


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
    return {
        name: AttributeGroup(name, table, np.array([table.row(r.image_id) for r in group],
                                                   dtype=np.intp))
        for name, group in members.items()
    }


def make_group(name, members):
    """One attribute group of these records (see `make_groups`)."""
    return make_groups({name: members})[name]


def vectors(table, image_ids):
    """The (len(image_ids), d) rows of `table.matrix` holding these images' vectors."""
    return table.matrix[[table.row(i) for i in image_ids]]


def role_ids(sample):
    """A sample's reference, chosen and other image ids."""
    a, b = sample.option_a_id, sample.option_b_id
    return (sample.ref_id, a, b) if sample.majority == "A" else (sample.ref_id, b, a)


def make_annotation(annotator, triplet, choice, is_dummy=False, dummy_answer=None):
    return RawAnnotation(
        annotator_id=annotator,
        triplet_id=triplet,
        choice=choice,
        is_dummy=is_dummy,
        dummy_answer=dummy_answer,
    )
