"""Pair-based similarity evaluation over annotated triplets.

Each consistently annotated triplet yields a similar pair (reference, chosen)
and a dissimilar pair (reference, other). A prediction is correct when the
similar pair scores strictly higher; exact ties count as incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .corpus import EmbeddingTable, TripletSample, write_csv
from .errors import EvaluationError
from .metric import ProjectionModel, rowwise_cosine


@dataclass(frozen=True)
class PairRecord:
    triplet_id: str
    sim_pair_score: float
    dissim_pair_score: float
    correct: bool


def eval_triplets(
    model: ProjectionModel,
    samples: Sequence[TripletSample],
    table: EmbeddingTable,
) -> Tuple[float, List[PairRecord]]:
    """Accuracy and per-triplet pair scores over consistent samples."""
    retained = sorted(
        (s for s in samples if s.admitted and s.consistent),
        key=lambda s: s.triplet_id,
    )
    if not retained:
        raise EvaluationError("no consistent samples to evaluate")

    def projected(ids):
        return model.project_block(table.vectors(ids), ids)

    ref = projected([s.ref_id for s in retained])
    sim = rowwise_cosine(ref, projected([s.chosen_id() for s in retained])).tolist()
    dissim = rowwise_cosine(ref, projected([s.other_id() for s in retained])).tolist()
    records = [
        PairRecord(triplet_id=s.triplet_id, sim_pair_score=a, dissim_pair_score=b, correct=a > b)
        for s, a, b in zip(retained, sim, dissim)
    ]
    accuracy = sum(r.correct for r in records) / len(records)
    return accuracy, records


def export_scatter(records: Sequence[PairRecord], path) -> None:
    """CSV of (similar, dissimilar) score pairs; x > y rows are the correct ones."""
    if not records:
        raise EvaluationError("no pair records to export")
    rows = (
        [r.triplet_id, r.sim_pair_score, r.dissim_pair_score, "true" if r.correct else "false"]
        for r in records
    )
    write_csv(path, ["triplet_id", "sim_pair_score", "dissim_pair_score", "correct"], rows)
