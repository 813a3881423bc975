"""Pair-based similarity evaluation over annotated triplets.

Each consistently annotated triplet yields a similar pair (reference, chosen)
and a dissimilar pair (reference, other). A prediction is correct when the
similar pair scores strictly higher; exact ties count as incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .corpus import TripletTable, write_csv
from .errors import EvaluationError
from .metric import ProjectionModel, check_dimension, scale_rows, scaled_cosine


@dataclass(frozen=True)
class PairRecord:
    triplet_id: str
    sim_pair_score: float
    dissim_pair_score: float
    correct: bool


def eval_triplets(
    model: ProjectionModel, triplets: TripletTable
) -> Tuple[float, List[PairRecord]]:
    """Accuracy and per-triplet pair scores over consistent triplets, in `triplet_id` order.

    `triplets` keeps its consistent triplets and their (3, n, d) vectors once
    gathered, so scoring it again, as each epoch's validation does, gathers
    nothing. The 3n rows are projected one by one (`project_block`), so a
    triplet's scores do not depend on the other triplets.
    """
    check_dimension(model, triplets.table)
    retained, stack = triplets.evaluated
    if not len(retained):
        raise EvaluationError("no consistent samples to evaluate")
    ids = [image_id for role in retained.role_ids() for image_id in role]
    ref, chosen, other = model.project_block(stack.reshape(-1, model.dim), ids).reshape(stack.shape)
    scaled_ref = scale_rows(ref)
    sim, dissim = (scaled_cosine(ref, scaled_ref, rows, scale_rows(rows)).tolist()
                   for rows in (chosen, other))
    records = [
        PairRecord(triplet_id=t, sim_pair_score=a, dissim_pair_score=b, correct=a > b)
        for t, a, b in zip(retained.triplet_ids, sim, dissim)
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
