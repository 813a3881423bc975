"""Attribute-group construction, CI-upper-bound group distance, and the
argmin-distance classifier with its precision/recall/accuracy/AUC report."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .corpus import EmbeddingRecord, EmbeddingTable, check_seed
from .errors import EvaluationError, IntegrityError, ValidationError
from .metric import ProjectionModel, check_dimension, scale_rows, scaled_cosine

INTERSECTION_GROUPS = ("older_female", "older_male", "young_female", "young_male")
UNION_GROUPS = ("female", "male", "older", "young")
ALL_GROUPS = INTERSECTION_GROUPS + UNION_GROUPS
TASK_CATEGORIES = {
    "gender": ("female", "male"),
    "age": ("older", "young"),
    "four-way": INTERSECTION_GROUPS,
}

Z_95 = 1.96


def _t_975(df: int) -> float:
    """The Student-t 0.975 quantile for integer df >= 1: where P(|T| < t), a finite sum in
    theta = atan(t / sqrt(df)) (Abramowitz and Stegun 26.7.3-26.7.4), reaches 0.95, bisected."""
    below = np.arange(2 + df % 2, df - 1, 2)
    ratios = (below - 1.0) / below  # term k over term k - 1, less its cos(theta)**2

    def two_sided(t: float) -> float:
        cos2, sin = df / (df + t * t), t / math.sqrt(df + t * t)
        series = sin * (1.0 + np.cumprod(ratios * cos2).sum())
        if df % 2 == 0:
            return series
        return (math.atan(t / math.sqrt(df)) + (df > 1) * math.sqrt(cos2) * series) * 2 / math.pi

    lo, hi = 0.0, 13.0
    for _ in range(64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if two_sided(mid) < 0.95 else (lo, mid)
    return (lo + hi) / 2


def group_label(age_group: str, gender: str) -> str:
    if age_group not in ("young", "older") or gender not in ("male", "female"):
        raise ValidationError(f"cannot derive group from ({age_group}, {gender})")
    return f"{age_group}_{gender}"


class AttributeGroups(NamedTuple):
    """Attribute groups over one candidates `EmbeddingTable`: `rows[name]` holds the
    table rows of group `name`'s members, in member order."""

    table: EmbeddingTable
    rows: Dict[str, np.ndarray]


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
) -> AttributeGroups:
    """The four age/gender intersection groups plus their four unions, as rows of one table.

    `candidates` is an `EmbeddingTable` or a sequence of records. Rows with
    unknown labels are skipped. When `per_intersection` is given, that many
    members are sampled per intersection group with the seeded RNG; union
    groups are always the concatenation of their two intersections.
    """
    if per_intersection is not None and per_intersection < 1:
        raise ValidationError(f"per-group sample size must be >= 1, got {per_intersection}")
    check_seed(seed)
    table = candidates if isinstance(candidates, EmbeddingTable) else EmbeddingTable.of(candidates)
    pools: Dict[str, List[int]] = {name: [] for name in INTERSECTION_GROUPS}
    for row, (gender, age_group) in enumerate(zip(table.genders, table.age_groups)):
        if gender != "unknown" and age_group != "unknown":
            pools[group_label(age_group, gender)].append(row)

    rng = np.random.default_rng(seed)
    by_id = table.image_ids.__getitem__
    rows: Dict[str, np.ndarray] = {}
    for name in INTERSECTION_GROUPS:
        members = sorted(pools[name], key=by_id)
        if per_intersection is not None:
            if len(members) < per_intersection:
                raise ValidationError(
                    f"group '{name}' has {len(members)} candidates,"
                    f" {per_intersection} requested"
                )
            members = sorted(rng.choice(members, per_intersection, replace=False), key=by_id)
        if not members:
            raise ValidationError(f"attribute group '{name}' is empty")
        rows[name] = np.array(members, dtype=np.intp)

    unions = {
        "male": ("young_male", "older_male"),
        "female": ("young_female", "older_female"),
        "young": ("young_male", "young_female"),
        "older": ("older_male", "older_female"),
    }
    for name in UNION_GROUPS:
        a, b = unions[name]
        rows[name] = np.concatenate([rows[a], rows[b]])
    return AttributeGroups(table, rows)


class Scores(NamedTuple):
    """Queries scored against attribute groups (see `score_groups`).

    The gallery is the scored groups' distinct table rows, in table order:
    `image_ids` and `identity_ids` (object arrays) label its rows,
    `members[g]` holds the gallery positions of group `names[g]`'s members in
    member order, and `sims[q, i]` is query q's cosine similarity to gallery
    row i. `n`, `mean`, `sd` and `upper` are `(Q, G)`: the size, mean, SD and
    95% CI upper bound of each (query, group) pair's distances.
    """

    image_ids: np.ndarray
    identity_ids: np.ndarray
    members: List[np.ndarray]
    sims: np.ndarray
    n: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    upper: np.ndarray


def score_groups(
    model: ProjectionModel,
    queries: EmbeddingTable,
    groups: AttributeGroups,
    names: Sequence[str],
    use_t: bool = False,
) -> Scores:
    """Each query's similarity to each member and its distance to each of the named groups.

    At least one group is named, each in `groups` and none of them empty, and
    the model must map vectors of both tables' width. The distinct rows of the
    named groups are projected first, then the queries, each once. Cosines are
    row-local, so an entry does not depend on the other queries, groups or rows
    in the call.

    A distance is the mean member distance plus a 95% CI upper bound on that
    mean; a query never measures its own image. The statistics are
    bit-identical to the scalar oracle of the tests: sums run left to right
    (`cumsum`, as Python's `sum` does; `np.sum` sums pairwise), sample SD uses
    the n-1 denominator, a zero-spread sample gives its common value, and
    fewer than two kept distances give sd 0 and upper = mean. `use_t` swaps
    the z critical value for Student-t, for small groups. The first
    (query, group) pair, query-major, whose group holds only the query image
    raises `ValidationError`.
    """
    if not names:
        raise ValidationError("scoring needs attribute groups, none named")
    for name in names:
        if name not in groups.rows:
            raise ValidationError(f"unknown attribute group '{name}'")
        if not len(groups.rows[name]):
            raise ValidationError(f"attribute group '{name}' is empty")
    table, group_rows = groups.table, [groups.rows[name] for name in names]
    check_dimension(model, table)
    check_dimension(model, queries)

    # a mask, not `np.unique`, which imports `numpy.ma`
    in_gallery = np.zeros(len(table), dtype=bool)
    in_gallery[np.concatenate(group_rows)] = True
    rows = np.flatnonzero(in_gallery)
    position = np.cumsum(in_gallery) - 1  # each table row's place in the gallery
    image_ids = np.array(table.image_ids, dtype=object)[rows]
    gallery = model.project_block(table.matrix[rows], image_ids)
    scaled = scale_rows(gallery)
    projected = model.project_block(queries.matrix, queries.image_ids)
    sims = np.empty((len(queries), len(rows)))
    # one query at a time keeps the temporaries to one (n, d) block
    for i in range(len(queries)):
        q = projected[i : i + 1]
        sims[i] = scaled_cosine(q, scale_rows(q), gallery, scaled)
    members = [position[member_rows] for member_rows in group_rows]

    own = image_ids == np.array(queries.image_ids, dtype=object)[:, None]
    every_query = np.arange(len(queries))
    n = np.zeros((len(queries), len(names)), dtype=np.intp)
    spread = np.zeros(n.shape, dtype=bool)  # implies n >= 2
    mean, squares = np.zeros(n.shape), np.zeros(n.shape)
    for g, member in enumerate(members):
        keep, ds = ~own[:, member], 1.0 - sims[:, member]
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
        crit = np.full(n.shape, Z_95)
        dfs = (n[spread] - 1).tolist()
        quantile = {df: _t_975(df) for df in set(dfs)}
        crit[spread] = [quantile[df] for df in dfs]
    upper = np.where(spread, mean + crit * sd / np.sqrt(np.maximum(n, 1)), mean)

    empty = np.argwhere(n == 0)
    if empty.size:
        q, g = empty[0]
        raise ValidationError(
            f"group '{names[g]}' holds only the query image '{queries.image_ids[q]}'"
        )
    return Scores(image_ids, np.array(table.identity_ids, dtype=object)[rows], members, sims,
                  n, mean, sd, upper)


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


def _true_categories(queries: EmbeddingTable, task: str) -> List[str]:
    """Each query's category in a known task, from its label columns."""
    if task == "four-way":
        return list(map(group_label, queries.age_groups, queries.genders))
    labels = queries.genders if task == "gender" else queries.age_groups
    if "unknown" in labels:
        image_id = queries.image_ids[labels.index("unknown")]
        raise IntegrityError(f"query '{image_id}' has no {task} label")
    return list(labels)


def task_categories(task: str) -> List[str]:
    """The groups an attribute task classifies among."""
    if task not in TASK_CATEGORIES:
        raise ValidationError(f"unknown task '{task}'")
    return list(TASK_CATEGORIES[task])


def classification_report(
    task: str, queries: EmbeddingTable, names: Sequence[str], upper: np.ndarray
) -> ClassificationReport:
    """Confusion-matrix metrics and one-vs-rest AUC for a task, from the queries' CI upper bounds.

    `upper` is `(Q, G)`, column g holding group `names[g]`, as `score_groups`
    gives it; groups outside the task's categories are ignored. Each query is
    classified into the `closest` of the task's groups, and a category's AUC
    scores each query by its negated upper bound to that group.
    """
    categories = task_categories(task)
    if not len(queries):
        raise EvaluationError("no query records")
    truths = _true_categories(queries, task)
    column = {name: j for j, name in enumerate(names)}
    if not column.keys() >= set(categories):
        raise ValidationError(f"the distance table lacks a group of task '{task}'")
    upper = upper[:, [column[c] for c in categories]]
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
