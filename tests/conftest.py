import numpy as np
import pytest

from facesim import synth
from facesim.corpus import EMBEDDING_FIXED_COLUMNS, EmbeddingRecord, EmbeddingTable, RawAnnotation


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


def table_of(records):
    """The table of these records' labels and stacked vectors."""
    columns = tuple(
        tuple(getattr(rec, name) for rec in records) for name in EMBEDDING_FIXED_COLUMNS
    )
    return EmbeddingTable(columns, np.array([rec.vector for rec in records], dtype=float))


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
