"""Attribute-group construction, CI-upper-bound group distance, and the
argmin-distance classifier with its precision/recall/accuracy/AUC report."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import EmbeddingRecord
from .errors import EvaluationError, IntegrityError, ValidationError
from .metric import ProjectionModel, distance, project

INTERSECTION_GROUPS = ("older_female", "older_male", "young_female", "young_male")
UNION_GROUPS = ("female", "male", "older", "young")
ALL_GROUPS = INTERSECTION_GROUPS + UNION_GROUPS

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
    if len(group) == 0:
        raise ValidationError(f"attribute group '{group.name}' is empty")
    q = project(model, query.vector)
    ds = []
    for member in group.members:
        if member.image_id == query.image_id:
            continue  # a query never measures its own candidate entry
        ds.append(distance(q, project(model, member.vector)))
    if not ds:
        raise ValidationError(
            f"group '{group.name}' holds only the query image '{query.image_id}'"
        )
    return summarize_distances(group.name, ds, use_t=use_t)


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
    return _closest([group_distance(model, query, g, use_t=use_t) for g in groups])


def _closest(results: Sequence[GroupDistanceResult]) -> str:
    """Group with minimal CI upper bound; ties break lexicographically by name."""
    return min((r.upper, r.group) for r in results)[1]


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg), ties credited 0.5."""
    if len(scores) != len(labels):
        raise ValidationError("scores and labels must have equal length")
    n_pos = sum(1 for l in labels if l)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC is undefined without both classes")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        avg_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1
    rank_sum_pos = sum(r for r, l in zip(ranks, labels) if l)
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2
    return u / (n_pos * n_neg)


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
    if task == "gender":
        categories = ["female", "male"]
    elif task == "age":
        categories = ["older", "young"]
    elif task == "four-way":
        categories = list(INTERSECTION_GROUPS)
    else:
        raise ValidationError(f"unknown task '{task}'")
    if not queries:
        raise EvaluationError("no query records")
    candidate_groups = [groups[c] for c in categories]

    confusion: Dict[Tuple[str, str], int] = {}
    neg_distance: Dict[str, List[float]] = {c: [] for c in categories}
    truths: List[str] = []
    for query in queries:
        truth = _true_category(query, task)
        if truth not in categories:
            raise IntegrityError(
                f"query '{query.image_id}' label '{truth}' outside task categories"
            )
        truths.append(truth)
        results = [group_distance(model, query, g, use_t=use_t) for g in candidate_groups]
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
