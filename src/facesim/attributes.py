"""Attribute-group construction, CI-upper-bound group distance, and the
argmin-distance classifier with its precision/recall/accuracy/AUC report."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import EmbeddingRecord
from .errors import EvaluationError, IntegrityError, ValidationError
from .metric import ProjectionModel, project_records, scale_rows, scaled_cosine

INTERSECTION_GROUPS = ("older_female", "older_male", "young_female", "young_male")
UNION_GROUPS = ("female", "male", "older", "young")
ALL_GROUPS = INTERSECTION_GROUPS + UNION_GROUPS
TASK_CATEGORIES = {
    "gender": ("female", "male"),
    "age": ("older", "young"),
    "four-way": INTERSECTION_GROUPS,
}

Z_95 = 1.96


def group_label(age_group: str, gender: str) -> str:
    if age_group not in ("young", "older") or gender not in ("male", "female"):
        raise ValidationError(f"cannot derive group from ({age_group}, {gender})")
    return f"{age_group}_{gender}"


@dataclass(frozen=True)
class AttributeGroup:
    name: str
    members: Tuple[EmbeddingRecord, ...]

    @property
    def member_ids(self) -> List[str]:
        return [m.image_id for m in self.members]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GroupDistanceResult:
    group: str
    n: int
    mean_d: float
    sd_d: float
    upper: float  # 95% CI upper bound on the mean distance


@dataclass
class ClassificationReport:
    task: str
    categories: List[str]
    confusion: Dict[Tuple[str, str], int]
    precision: Dict[str, float]
    recall: Dict[str, float]
    category_accuracy: Dict[str, float]
    auc_per_category: Dict[str, float]
    accuracy: float

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "categories": self.categories,
            "accuracy": round(self.accuracy, 3),
            "per_category": {
                c: {
                    "precision": round(self.precision[c], 3),
                    "recall": round(self.recall[c], 3),
                    "accuracy": round(self.category_accuracy[c], 3),
                    "auc": round(self.auc_per_category[c], 3),
                }
                for c in self.categories
            },
            "confusion": {f"{t}->{p}": n for (t, p), n in sorted(self.confusion.items())},
        }


def build_groups(
    records: Sequence[EmbeddingRecord],
    per_intersection: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, AttributeGroup]:
    """The four age/gender intersection groups plus their four unions.

    Records with unknown labels are skipped. When `per_intersection` is given,
    that many members are sampled per intersection group with the seeded RNG;
    union groups are always the concatenation of their two intersections.
    """
    pools: Dict[str, List[EmbeddingRecord]] = {name: [] for name in INTERSECTION_GROUPS}
    for rec in records:
        if rec.gender == "unknown" or rec.age_group == "unknown":
            continue
        pools[group_label(rec.age_group, rec.gender)].append(rec)

    rng = random.Random(seed)
    groups: Dict[str, AttributeGroup] = {}
    for name in INTERSECTION_GROUPS:
        members = sorted(pools[name], key=lambda r: r.image_id)
        if per_intersection is not None:
            if len(members) < per_intersection:
                raise ValidationError(
                    f"group '{name}' has {len(members)} candidates,"
                    f" {per_intersection} requested"
                )
            members = rng.sample(members, per_intersection)
            members.sort(key=lambda r: r.image_id)
        if not members:
            raise ValidationError(f"attribute group '{name}' is empty")
        groups[name] = AttributeGroup(name=name, members=tuple(members))

    unions = {
        "male": ("young_male", "older_male"),
        "female": ("young_female", "older_female"),
        "young": ("young_male", "young_female"),
        "older": ("older_male", "older_female"),
    }
    for name in UNION_GROUPS:
        a, b = unions[name]
        groups[name] = AttributeGroup(
            name=name, members=groups[a].members + groups[b].members
        )
    return groups


@dataclass(frozen=True)
class Gallery:
    """The distinct members of some attribute groups, projected and scaled once.

    Row i holds one member record. A record in several groups (an intersection
    and its unions, as `build_groups` shares them) is one row, found by object
    identity, and rows follow first appearance. `members[j]` indexes the rows
    of the j-th group, in member order.
    """

    projected: np.ndarray
    scaled: Tuple[np.ndarray, np.ndarray]  # `scale_rows(projected)`
    image_ids: np.ndarray  # object arrays, one entry per row
    identity_ids: np.ndarray
    members: List[np.ndarray]


def _gallery(model: ProjectionModel, groups: Sequence[AttributeGroup]) -> Gallery:
    members = list(itertools.chain.from_iterable(g.members for g in groups))
    # a dict keeps each key where it first appeared, so rows follow first appearance
    records = dict(zip(map(id, members), members))
    row_of = dict(zip(records, itertools.count()))
    projected = project_records(model, list(records.values()))
    return Gallery(
        projected=projected,
        scaled=scale_rows(projected),
        image_ids=np.array([r.image_id for r in records.values()], dtype=object),
        identity_ids=np.array([r.identity_id for r in records.values()], dtype=object),
        members=[
            np.fromiter(map(row_of.__getitem__, map(id, g.members)), np.intp, len(g))
            for g in groups
        ],
    )


def similarity_table(
    model: ProjectionModel,
    queries: Sequence[EmbeddingRecord],
    groups: Sequence[AttributeGroup],
) -> Tuple[Gallery, np.ndarray]:
    """The groups' `Gallery`, and the cosine similarity of each query to each of its rows.

    `sims[q][gallery.members[g]]` are query q's similarities to group g's
    members. The gallery is projected first, then the queries, each once.
    Cosines are row-local, so an entry does not depend on the other queries,
    groups or rows in the call.
    """
    for group in groups:
        if len(group) == 0:
            raise ValidationError(f"attribute group '{group.name}' is empty")
    gallery = _gallery(model, groups)
    query_rows = project_records(model, queries)
    sims = np.empty((len(queries), len(gallery.image_ids)))
    # one query at a time keeps the temporaries to one (n, d) block
    for i in range(len(queries)):
        q = query_rows[i : i + 1]
        sims[i] = scaled_cosine(q, scale_rows(q), gallery.projected, gallery.scaled)
    return gallery, sims


def _group_result(
    name: str,
    query: EmbeddingRecord,
    sims: np.ndarray,
    gallery: Gallery,
    rows: np.ndarray,
    use_t: bool,
) -> GroupDistanceResult:
    """`group_distance` from the query's gallery similarities; `rows` are the group's."""
    # a query never measures its own candidate entry
    keep = gallery.image_ids[rows] != query.image_id
    if not keep.any():
        raise ValidationError(
            f"group '{name}' holds only the query image '{query.image_id}'"
        )
    return summarize_distances(name, (1.0 - sims[rows][keep]).tolist(), use_t=use_t)


def group_distance(
    model: ProjectionModel,
    query: EmbeddingRecord,
    group: AttributeGroup,
    use_t: bool = False,
) -> GroupDistanceResult:
    """Mean member distance plus a 95% CI upper bound on that mean.

    Sample SD uses the n-1 denominator; a singleton group degenerates to
    sd = 0 and upper = the single distance. `use_t` swaps the z critical
    value for Student-t, for small groups.
    """
    return group_distances(model, [query], [group], use_t=use_t)[0][0]


def group_distances(
    model: ProjectionModel,
    queries: Sequence[EmbeddingRecord],
    groups: Sequence[AttributeGroup],
    use_t: bool = False,
) -> List[List[GroupDistanceResult]]:
    """`group_distance` of each query to each group, from one `similarity_table`."""
    gallery, table = similarity_table(model, queries, groups)
    return [
        [
            _group_result(g.name, query, sims, gallery, rows, use_t)
            for g, rows in zip(groups, gallery.members)
        ]
        for query, sims in zip(queries, table)
    ]


def summarize_distances(
    name: str, ds: Sequence[float], use_t: bool = False
) -> GroupDistanceResult:
    """Mean, sample SD, and the 95% CI upper bound of a distance sample."""
    n = len(ds)
    if n == 0:
        raise ValidationError("cannot summarize an empty distance sample")
    # a zero-spread sample summarizes to its common value exactly
    mean = ds[0] if all(d == ds[0] for d in ds) else sum(ds) / n
    if n >= 2 and any(d != ds[0] for d in ds):
        sd = math.sqrt(sum((d - mean) ** 2 for d in ds) / (n - 1))
        if use_t:
            from scipy import stats

            crit = float(stats.t.ppf(0.975, n - 1))
        else:
            crit = Z_95
        upper = mean + crit * sd / math.sqrt(n)
    else:
        sd = 0.0
        upper = mean
    return GroupDistanceResult(group=name, n=n, mean_d=mean, sd_d=sd, upper=upper)


def classify_query(
    model: ProjectionModel,
    query: EmbeddingRecord,
    groups: Sequence[AttributeGroup],
    use_t: bool = False,
) -> str:
    """Name of the group with minimal CI-upper-bound distance.

    Ties break lexicographically by group name.
    """
    if len(groups) < 2:
        raise ValidationError("classification needs at least two candidate groups")
    return _closest(group_distances(model, [query], groups, use_t=use_t)[0])


def _closest(results: Sequence[GroupDistanceResult]) -> str:
    """Group with minimal CI upper bound; ties break lexicographically by name."""
    return min((r.upper, r.group) for r in results)[1]


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg), ties credited 0.5."""
    if len(scores) != len(labels):
        raise ValidationError("scores and labels must have equal length")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], np.sort(scores[~labels])
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError("AUC is undefined without both classes")
    # twice the Mann-Whitney U: each negative below a positive counts 2, each tie 1
    twice_u = np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum()
    return float(twice_u) / 2 / (pos.size * neg.size)


def _true_category(record: EmbeddingRecord, task: str) -> str:
    if task == "gender":
        if record.gender == "unknown":
            raise IntegrityError(f"query '{record.image_id}' has no gender label")
        return record.gender
    if task == "age":
        if record.age_group == "unknown":
            raise IntegrityError(f"query '{record.image_id}' has no age label")
        return record.age_group
    if task == "four-way":
        return group_label(record.age_group, record.gender)
    raise ValidationError(f"unknown task '{task}'")


def task_categories(task: str) -> List[str]:
    """The groups an attribute task classifies among."""
    if task not in TASK_CATEGORIES:
        raise ValidationError(f"unknown task '{task}'")
    return list(TASK_CATEGORIES[task])


def evaluate_classification(
    model: ProjectionModel,
    queries: Sequence[EmbeddingRecord],
    groups: Dict[str, AttributeGroup],
    task: str,
    use_t: bool = False,
) -> ClassificationReport:
    """Confusion-matrix metrics plus one-vs-rest AUC for an attribute task.

    task "gender": male vs female; "age": young vs older; "four-way": the
    intersection groups. The AUC score for a category is the negated
    CI-upper-bound distance to that category's group.
    """
    candidates = [groups[c] for c in task_categories(task)]
    table = group_distances(model, queries, candidates, use_t=use_t)
    return classification_report(task, queries, table)


def classification_report(
    task: str,
    queries: Sequence[EmbeddingRecord],
    table: Sequence[Sequence[GroupDistanceResult]],
) -> ClassificationReport:
    """The `evaluate_classification` report from the queries' `group_distances` table.

    Groups in the table outside the task's categories are ignored.
    """
    categories = task_categories(task)
    if not queries:
        raise EvaluationError("no query records")

    truths: List[str] = []
    for query in queries:
        truth = _true_category(query, task)
        if truth not in categories:
            raise IntegrityError(
                f"query '{query.image_id}' label '{truth}' outside task categories"
            )
        truths.append(truth)

    confusion: Dict[Tuple[str, str], int] = {}
    neg_distance: Dict[str, List[float]] = {c: [] for c in categories}
    for truth, results in zip(truths, table):
        results = [r for r in results if r.group in neg_distance]
        for r in results:
            neg_distance[r.group].append(-r.upper)
        predicted = _closest(results)
        confusion[(truth, predicted)] = confusion.get((truth, predicted), 0) + 1

    n = len(queries)
    precision, recall, cat_acc, aucs = {}, {}, {}, {}
    correct = 0
    for c in categories:
        tp = confusion.get((c, c), 0)
        fp = sum(v for (t, p), v in confusion.items() if p == c and t != c)
        fn = sum(v for (t, p), v in confusion.items() if t == c and p != c)
        tn = n - tp - fp - fn
        precision[c] = tp / (tp + fp) if tp + fp else 0.0
        recall[c] = tp / (tp + fn) if tp + fn else 0.0
        cat_acc[c] = (tp + tn) / n
        aucs[c] = auc(neg_distance[c], [t == c for t in truths])
        correct += tp
    return ClassificationReport(
        task=task,
        categories=categories,
        confusion=confusion,
        precision=precision,
        recall=recall,
        category_accuracy=cat_acc,
        auc_per_category=aucs,
        accuracy=correct / n,
    )
