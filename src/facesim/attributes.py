"""Attribute-group construction, CI-upper-bound group distance, and the
argmin-distance classifier with its precision/recall/accuracy/AUC report."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .corpus import EmbeddingRecord, EmbeddingTable
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


@dataclass(frozen=True, eq=False)
class AttributeGroup:
    """An attribute group: rows of one candidates `EmbeddingTable`, in member order."""

    name: str
    table: EmbeddingTable
    rows: np.ndarray

    @property
    def members(self) -> Tuple[EmbeddingRecord, ...]:
        """The member records, built from the table (see `EmbeddingTable`)."""
        records = list(self.table)
        return tuple(records[row] for row in self.rows.tolist())

    @property
    def member_ids(self) -> List[str]:
        return [self.table.image_ids[row] for row in self.rows.tolist()]

    def __len__(self) -> int:
        return len(self.rows)


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
    candidates: EmbeddingTable | Sequence[EmbeddingRecord],
    per_intersection: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, AttributeGroup]:
    """The four age/gender intersection groups plus their four unions, as rows of one table.

    `candidates` is an `EmbeddingTable` or a sequence of records. Rows with
    unknown labels are skipped. When `per_intersection` is given, that many
    members are sampled per intersection group with the seeded RNG; union
    groups are always the concatenation of their two intersections.
    """
    if per_intersection is not None and per_intersection < 1:
        raise ValidationError(f"per-group sample size must be >= 1, got {per_intersection}")
    table = candidates if isinstance(candidates, EmbeddingTable) else EmbeddingTable.of(candidates)
    pools: Dict[str, List[int]] = {name: [] for name in INTERSECTION_GROUPS}
    for row, (gender, age_group) in enumerate(zip(table.genders, table.age_groups)):
        if gender != "unknown" and age_group != "unknown":
            pools[group_label(age_group, gender)].append(row)

    rng = random.Random(seed)
    by_id = table.image_ids.__getitem__
    groups: Dict[str, AttributeGroup] = {}
    for name in INTERSECTION_GROUPS:
        members = sorted(pools[name], key=by_id)
        if per_intersection is not None:
            if len(members) < per_intersection:
                raise ValidationError(
                    f"group '{name}' has {len(members)} candidates,"
                    f" {per_intersection} requested"
                )
            members = sorted(rng.sample(members, per_intersection), key=by_id)
        if not members:
            raise ValidationError(f"attribute group '{name}' is empty")
        groups[name] = AttributeGroup(name, table, np.array(members, dtype=np.intp))

    unions = {
        "male": ("young_male", "older_male"),
        "female": ("young_female", "older_female"),
        "young": ("young_male", "young_female"),
        "older": ("older_male", "older_female"),
    }
    for name in UNION_GROUPS:
        a, b = unions[name]
        groups[name] = AttributeGroup(
            name, table, np.concatenate([groups[a].rows, groups[b].rows])
        )
    return groups


@dataclass(frozen=True)
class Gallery:
    """The distinct table rows of some attribute groups, projected and scaled once.

    Row i holds one row of the groups' table, and rows follow first
    appearance in the groups' member order. `members[j]` indexes the rows
    of the j-th group, in member order.
    """

    projected: np.ndarray
    scaled: Tuple[np.ndarray, np.ndarray]  # `scale_rows(projected)`
    image_ids: np.ndarray  # object arrays, one entry per row
    identity_ids: np.ndarray
    members: List[np.ndarray]


def _gallery(model: ProjectionModel, groups: Sequence[AttributeGroup]) -> Gallery:
    table = groups[0].table if groups else None
    if not groups or any(group.table is not table for group in groups):
        raise ValidationError("scoring needs attribute groups, all rows of one table")
    if table.dim != model.dim:
        raise ValidationError(f"records do not all have the model dimension {model.dim}")
    every = np.concatenate([group.rows for group in groups])
    distinct, first = np.unique(every, return_index=True)
    rows = distinct[np.argsort(first)]
    position = np.empty(len(table), dtype=np.intp)
    position[rows] = np.arange(len(rows))
    image_ids = np.array(table.image_ids, dtype=object)[rows]
    projected = model.project_block(table.matrix[rows], image_ids)
    return Gallery(
        projected=projected,
        scaled=scale_rows(projected),
        image_ids=image_ids,
        identity_ids=np.array(table.identity_ids, dtype=object)[rows],
        members=[position[group.rows] for group in groups],
    )


def similarity_table(
    model: ProjectionModel,
    queries: Sequence[EmbeddingRecord],
    groups: Sequence[AttributeGroup],
) -> Tuple[Gallery, np.ndarray]:
    """The groups' `Gallery`, and the cosine similarity of each query to each of its rows.

    `sims[q][gallery.members[g]]` are query q's similarities to group g's
    members, which must all be rows of one table. The gallery is projected
    first, then the queries, each once.
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


def group_distances(
    model: ProjectionModel,
    queries: Sequence[EmbeddingRecord],
    groups: Sequence[AttributeGroup],
    use_t: bool = False,
) -> List[List[GroupDistanceResult]]:
    """Each query's distance to each group, from one `similarity_table`.

    A distance is the mean member distance plus a 95% CI upper bound on that
    mean. The query's own entry is left out of its groups. Sample SD uses the
    n-1 denominator; a singleton group degenerates to sd = 0 and upper = the
    single distance. `use_t` swaps the z critical value for Student-t, for
    small groups.
    """
    if not groups:
        return [[] for _ in queries]
    gallery, table = similarity_table(model, queries, groups)
    names = [g.name for g in groups]
    stats = _group_stats(queries, gallery, table, use_t)
    _require_other_members(names, queries, stats.n)
    # one row of results per query
    return [
        [GroupDistanceResult(*result) for result in zip(names, *row)]
        for row in zip(*(column.tolist() for column in stats))
    ]


class GroupStats(NamedTuple):
    """Size, mean, SD and CI upper bound of each (query, group) pair's distances, `(Q, G)`."""

    n: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    upper: np.ndarray


def _group_stats(
    queries: Sequence[EmbeddingRecord], gallery: Gallery, sims: np.ndarray, use_t: bool
) -> GroupStats:
    """`GroupStats` of each query's kept distances to each gallery group.

    Bit-identical to the scalar oracle of the tests: sums run left to right (`cumsum`, as
    Python's `sum` does; `np.sum` sums pairwise), a zero-spread sample gives its
    common value, and fewer than two kept distances give sd 0 and upper = mean.
    A pair whose group holds only the query image gets n = 0 and meaningless
    statistics (see `_require_other_members`).
    """
    # a query never measures its own candidate entry
    own = gallery.image_ids == np.array([q.image_id for q in queries], dtype=object)[:, None]
    every_query = np.arange(len(queries))
    n = np.zeros((len(queries), len(gallery.members)), dtype=np.intp)
    spread = np.zeros(n.shape, dtype=bool)  # implies n >= 2
    mean, squares = np.zeros(n.shape), np.zeros(n.shape)
    for g, rows in enumerate(gallery.members):
        keep, ds = ~own[:, rows], 1.0 - sims[:, rows]
        first = ds[every_query, keep.argmax(axis=1)]
        spread[:, g] = (keep & (ds != first[:, None])).any(axis=1)
        n[:, g] = keep.sum(axis=1)
        total = np.cumsum(np.where(keep, ds, 0.0), axis=1)[:, -1]
        mean[:, g] = np.where(spread[:, g], total / np.maximum(n[:, g], 1), first)
        dev = np.where(keep, ds - mean[:, g, None], 0.0)
        squares[:, g] = np.cumsum(dev * dev, axis=1)[:, -1]
    sd = np.where(spread, np.sqrt(squares / np.maximum(n - 1, 1)), 0.0)
    crit = Z_95
    if use_t and spread.any():
        from scipy import stats

        crit = np.full(n.shape, Z_95)
        crit[spread] = stats.t.ppf(0.975, n[spread] - 1)
    upper = np.where(spread, mean + crit * sd / np.sqrt(np.maximum(n, 1)), mean)
    return GroupStats(n=n, mean=mean, sd=sd, upper=upper)


def _require_other_members(
    names: Sequence[str], queries: Sequence[EmbeddingRecord], n: np.ndarray
) -> None:
    """Raise for the first (query, group) pair, query-major, left with no distance."""
    empty = np.argwhere(n == 0)
    if empty.size:
        q, g = empty[0]
        raise ValidationError(
            f"group '{names[g]}' holds only the query image '{queries[q].image_id}'"
        )


def closest(names: Sequence[str], upper: np.ndarray) -> np.ndarray:
    """Column of each row's least CI upper bound; ties go to the lexicographically first name.

    `upper` is `(Q, G)`, column g holding group `names[g]`.
    """
    by_name = np.argsort(names)  # argmin keeps the first of equal minima
    return by_name[upper[:, by_name].argmin(axis=1)]


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

    Each query is classified into the `closest` of the task's groups, and a
    category's AUC scores each query by its negated upper bound to that
    group. Every row lists the same groups in the same order, as
    `group_distances` gives them; groups outside the task's categories are ignored.
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

    column = {r.group: j for j, r in enumerate(table[0])}
    if not column.keys() >= set(categories):
        raise ValidationError(f"the distance table lacks a group of task '{task}'")
    upper = np.array([[row[column[c]].upper for c in categories] for row in table])
    predicted = [categories[j] for j in closest(categories, upper).tolist()]
    confusion = dict(Counter(zip(truths, predicted)))

    n = len(queries)
    precision, recall, cat_acc, aucs = {}, {}, {}, {}
    correct = 0
    for j, c in enumerate(categories):
        tp = confusion.get((c, c), 0)
        fp = sum(v for (t, p), v in confusion.items() if p == c and t != c)
        fn = sum(v for (t, p), v in confusion.items() if t == c and p != c)
        tn = n - tp - fp - fn
        precision[c] = tp / (tp + fp) if tp + fp else 0.0
        recall[c] = tp / (tp + fn) if tp + fn else 0.0
        cat_acc[c] = (tp + tn) / n
        aucs[c] = auc(-upper[:, j], [t == c for t in truths])
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
