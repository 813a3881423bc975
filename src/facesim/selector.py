"""Face-swap source selection: pick the attribute group closest to the query,
then recommend its least-similar members."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .attributes import (
    ALL_GROUPS,
    INTERSECTION_GROUPS,
    AttributeGroup,
    classify_projected,
    classify_query,
    project_group,
)
from .corpus import EmbeddingRecord
from .errors import ValidationError
from .metric import ProjectionModel, project_records, rowwise_cosine


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


def _mode_groups(groups: Dict[str, AttributeGroup], group_mode: str) -> List[AttributeGroup]:
    if group_mode == "intersection":
        names = INTERSECTION_GROUPS
    elif group_mode == "all":
        names = ALL_GROUPS
    else:
        raise ValidationError(f"unknown group mode '{group_mode}'")
    return [groups[n] for n in names]


def select_group(
    model: ProjectionModel,
    query: EmbeddingRecord,
    groups: Dict[str, AttributeGroup],
    group_mode: str = "intersection",
) -> str:
    """Closest attribute group by CI-upper-bound distance.

    "intersection" classifies among the four age x gender groups (tightest
    attribute consistency); "all" competes all eight groups.
    """
    return classify_query(model, query, _mode_groups(groups, group_mode))


def _rank(
    query: EmbeddingRecord, q_row: np.ndarray, group: AttributeGroup, rows: np.ndarray
) -> List[RankedCandidate]:
    """`rank_candidates` from the projected rows of the query and of the group."""
    eligible = [
        i
        for i, m in enumerate(group.members)
        if m.image_id != query.image_id and m.identity_id != query.identity_id
    ]
    if not eligible:
        raise ValidationError(
            f"group '{group.name}' has no candidates distinct from query"
            f" '{query.image_id}'"
        )
    sims = rowwise_cosine(q_row[None], rows[eligible]).tolist()
    scored = sorted(
        zip(sims, (group.members[i].image_id for i in eligible)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [
        RankedCandidate(image_id=image_id, similarity=sim, rank=i)
        for i, (sim, image_id) in enumerate(scored, start=1)
    ]


def rank_candidates(
    model: ProjectionModel,
    query: EmbeddingRecord,
    group: AttributeGroup,
) -> List[RankedCandidate]:
    """All eligible group members sorted by descending similarity to the query.

    The query's own image and any candidate sharing its identity are excluded
    from candidacy. Ties order by image_id.
    """
    return _rank(query, project_records(model, [query])[0], group, project_group(model, group))


def recommend_batch(
    model: ProjectionModel,
    queries: Sequence[EmbeddingRecord],
    groups: Dict[str, AttributeGroup],
    k: int = 5,
    group_mode: str = "intersection",
) -> List[Tuple[Recommendation, List[RankedCandidate]]]:
    """Each query's `recommend` result and the full ranking of its selected group.

    Every candidate group and every query is projected once.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    candidates = _mode_groups(groups, group_mode)
    rows = {g.name: project_group(model, g) for g in candidates}
    results = []
    for query, q_row in zip(queries, project_records(model, queries)):
        selected = classify_projected(query, q_row, candidates, list(rows.values()))
        ranking = _rank(query, q_row, groups[selected], rows[selected])
        recommendation = Recommendation(
            query_id=query.image_id,
            selected_group=selected,
            candidates=tuple(ranking[::-1][:k]),
            k=k,
        )
        results.append((recommendation, ranking))
    return results


def recommend(
    model: ProjectionModel,
    query: EmbeddingRecord,
    groups: Dict[str, AttributeGroup],
    k: int = 5,
    group_mode: str = "intersection",
) -> Recommendation:
    """The k least-similar members of the query's closest attribute group."""
    return recommend_batch(model, [query], groups, k=k, group_mode=group_mode)[0][0]
