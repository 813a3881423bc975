"""Face-swap source selection: pick the attribute group closest to the query,
then recommend its least-similar members."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .attributes import (
    ALL_GROUPS,
    INTERSECTION_GROUPS,
    AttributeGroups,
    Scores,
    closest,
    score_groups,
)
from .corpus import EmbeddingRecord, EmbeddingTable
from .errors import ValidationError
from .metric import ProjectionModel


@dataclass(frozen=True)
class RankedCandidate:
    image_id: str
    similarity: float
    rank: int  # 1 = most similar


@dataclass(frozen=True)
class Recommendation:
    query_id: str
    selected_group: str
    candidates: Tuple[RankedCandidate, ...]  # ascending similarity
    k: int

    def to_json(self) -> dict:
        return {
            "query_id": self.query_id,
            "selected_group": self.selected_group,
            "k": self.k,
            "candidates": [
                {"image_id": c.image_id, "similarity": c.similarity, "rank": c.rank}
                for c in self.candidates
            ],
        }


def _mode_groups(group_mode: str) -> Sequence[str]:
    """The names of the groups a query is classified among."""
    if group_mode == "intersection":
        return INTERSECTION_GROUPS
    if group_mode == "all":
        return ALL_GROUPS
    raise ValidationError(f"unknown group mode '{group_mode}'")


def _ranking(
    name: str, query_id: str, identity_id: str, sims: np.ndarray, scores: Scores,
    rows: np.ndarray, id_rank: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The image ids and similarities of the group's eligible members, by descending similarity.

    `sims` is the query's row of `scores.sims`, `rows` the group's gallery
    positions, and `id_rank` each gallery row's place in image_id order.
    The query's own image and any candidate sharing its identity are excluded
    from candidacy. Ties order by image_id."""
    image_ids = scores.image_ids[rows]
    eligible = (image_ids != query_id) & (scores.identity_ids[rows] != identity_id)
    if not eligible.any():
        raise ValidationError(
            f"group '{name}' has no candidates distinct from query '{query_id}'"
        )
    sims = sims[rows][eligible]
    # -0.0 and 0.0 tie, and ties order by image_id
    order = np.lexsort((id_rank[rows][eligible], -sims))
    return image_ids[eligible][order], sims[order]


def recommend_batch(
    model: ProjectionModel,
    queries: EmbeddingTable,
    groups: AttributeGroups,
    k: int = 5,
    group_mode: str = "intersection",
) -> List[Tuple[Recommendation, Tuple[np.ndarray, np.ndarray]]]:
    """Each query's `recommend` result and the full ranking of its selected group.

    The selected group is the `closest` by CI upper bound: "intersection"
    classifies among the four age x gender groups (tightest attribute
    consistency); "all" competes all eight groups. One `score_groups` row per
    query serves both the group choice and the ranking of the chosen group,
    two arrays of image ids and similarities, most similar (rank 1) first.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    names = _mode_groups(group_mode)
    scores = score_groups(model, queries, groups, names)
    id_rank = np.argsort(np.argsort(scores.image_ids))  # the ids are distinct
    results = []
    for query_id, identity_id, sims, g in zip(queries.image_ids, queries.identity_ids,
                                              scores.sims, closest(names, scores.upper).tolist()):
        image_ids, similarities = ranking = _ranking(
            names[g], query_id, identity_id, sims, scores, scores.members[g], id_rank
        )
        last = len(image_ids)
        recommendation = Recommendation(
            query_id=query_id,
            selected_group=names[g],
            candidates=tuple(RankedCandidate(image_ids[r - 1], float(similarities[r - 1]), r)
                             for r in range(last, max(last - k, 0), -1)),
            k=k,
        )
        results.append((recommendation, ranking))
    return results


def recommend(
    model: ProjectionModel,
    query: EmbeddingRecord,
    groups: AttributeGroups,
    k: int = 5,
    group_mode: str = "intersection",
) -> Recommendation:
    """The k least-similar members of the query's closest attribute group."""
    queries = EmbeddingTable.of([query])
    return recommend_batch(model, queries, groups, k=k, group_mode=group_mode)[0][0]
