"""Pair-based similarity evaluation over annotated triplets.

Each consistently annotated triplet yields a similar pair (reference, chosen)
and a dissimilar pair (reference, other). A prediction is correct when the
similar pair scores strictly higher; exact ties count as incorrect.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .corpus import TripletTable, write_table
from .errors import EvaluationError
from .metric import ProjectionModel, check_dimension, scale_rows, scaled_cosine


def eval_triplets(
    model: ProjectionModel, triplets: TripletTable
) -> Tuple[float, Tuple[Sequence[str], np.ndarray, np.ndarray]]:
    """Accuracy and `(triplet_ids, sim, dissim)` over consistent triplets, in `triplet_id` order.

    `sim` and `dissim` are float arrays of each triplet's (reference, chosen)
    and (reference, other) similarity; a triplet is correct when `sim > dissim`.
    `triplets` keeps its consistent triplets, their image ids and their
    (3, n, d) vectors once gathered, so scoring it again, as each epoch's
    validation does, gathers nothing. The 3n rows are projected one by one
    (`project_block`), so a triplet's scores do not depend on the other
    triplets.
    """
    check_dimension(model, triplets.table)
    retained, ids, stack = triplets.evaluated
    if not len(retained):
        raise EvaluationError("no consistent samples to evaluate")
    ref, chosen, other = model.project_block(stack.reshape(-1, model.dim), ids).reshape(stack.shape)
    scaled_ref = scale_rows(ref)
    sim, dissim = (scaled_cosine(ref, scaled_ref, rows, scale_rows(rows))
                   for rows in (chosen, other))
    accuracy = np.count_nonzero(sim > dissim) / len(sim)
    return accuracy, (retained.triplet_ids, sim, dissim)


def export_scatter(pairs: Tuple[Sequence[str], np.ndarray, np.ndarray], path) -> None:
    """CSV of the (similar, dissimilar) score pairs `eval_triplets` gives; x > y rows are
    the correct ones."""
    triplet_ids, sim, dissim = pairs
    if not len(triplet_ids):
        raise EvaluationError("no pair scores to export")
    correct = list(map(("false", "true").__getitem__, (sim > dissim).tolist()))
    write_table(path, ["triplet_id", "sim_pair_score", "dissim_pair_score", "correct"],
                [triplet_ids, np.stack([sim, dissim], axis=1), correct])
