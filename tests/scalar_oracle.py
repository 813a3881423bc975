"""The one-vector, one-pair and one-candidate definitions that facesim's block paths are
tested against: projection, cosine distance and similarity, the triplet hinge, the
Student-t quantile, a group's distance summary, and a group's ranking for one query,
built of one object per candidate."""

import math
from typing import List, NamedTuple, Sequence

import numpy as np

from facesim.attributes import Z_95, Scores, _t_975
from facesim.errors import DegenerateVectorError, ValidationError
from facesim.metric import ProjectionModel, scale_rows, scaled_cosine
from facesim.selector import RankedCandidate


class GroupDistance(NamedTuple):
    """One group's distance summary for one query."""

    group: str
    n: int
    mean_d: float
    sd_d: float
    upper: float  # 95% CI upper bound on the mean distance


def project(model: ProjectionModel, v: np.ndarray) -> np.ndarray:
    """Apply the projection; output may be any finite vector including zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != model.dim:
        raise ValidationError(
            f"vector has dimension {v.shape}, model expects ({model.dim},)"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError("input vector contains non-finite entries")
    return model.weight @ v


def project_rows(model: ProjectionModel, records) -> np.ndarray:
    """The records' vectors projected as one block, row i for records[i] (`project_block`)."""
    block = np.array([r.vector for r in records], dtype=np.float64)
    return model.project_block(block, [r.image_id for r in records])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding.

    Each vector is scaled by its largest absolute component first, so tiny
    and huge components neither underflow nor overflow.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not (u.any() and v.any()):
        raise DegenerateVectorError("cosine similarity is undefined for zero-norm vectors")
    if np.array_equal(u, v):
        return 1.0  # exact self-similarity regardless of rounding
    u = u / np.max(np.abs(u))
    v = v / np.max(np.abs(v))
    value = float(np.dot(u, v)) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return min(1.0, max(-1.0, value))


def triplet_loss(x: np.ndarray, x_plus: np.ndarray, x_minus: np.ndarray, margin: float) -> float:
    """max(0, cos(x, x-) - cos(x, x+) + margin), over projected vectors."""
    return max(0.0, cosine(x, x_minus) - cosine(x, x_plus) + margin)


def rowwise_cosine(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`scaled_cosine` of rows scaled here."""
    return scaled_cosine(u, scale_rows(u), v, scale_rows(v))


def distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine(u, v); lies in [0, 2]."""
    return 1.0 - cosine(u, v)


def similarity_score(model: ProjectionModel, a, b) -> float:
    """Cosine similarity of two embedding records under the projection.

    Computed like every block path (`project_rows`, then `rowwise_cosine`),
    so it agrees with them bit for bit.
    """
    rows = project_rows(model, [a, b])
    return float(rowwise_cosine(rows[:1], rows[1:])[0])


def t_975(df: np.ndarray) -> np.ndarray:
    """The Student-t 0.975 quantile of each df, as scipy computes it."""
    from scipy import stats

    return stats.t.ppf(0.975, df)


def summarize_distances(
    name: str, ds: Sequence[float], use_t: bool = False
) -> GroupDistance:
    """Mean, sample SD, and the 95% CI upper bound of a distance sample."""
    n = len(ds)
    if n == 0:
        raise ValidationError("cannot summarize an empty distance sample")
    # a zero-spread sample summarizes to its common value exactly
    mean = ds[0] if all(d == ds[0] for d in ds) else sum(ds) / n
    if n >= 2 and any(d != ds[0] for d in ds):
        # a correctly rounded square; `** 2` goes through libm `pow`
        sd = math.sqrt(sum((d - mean) * (d - mean) for d in ds) / (n - 1))
        crit = _t_975(n - 1) if use_t else Z_95
        upper = mean + crit * sd / math.sqrt(n)
    else:
        sd = 0.0
        upper = mean
    return GroupDistance(group=name, n=n, mean_d=mean, sd_d=sd, upper=upper)


def rank(
    name: str, query, sims: np.ndarray, scores: Scores, rows: np.ndarray
) -> List[RankedCandidate]:
    """The group's eligible members by descending similarity to the query.

    `sims` is the query's row of `scores.sims`, and `rows` are the group's
    gallery positions. The query's own image and any candidate sharing its
    identity are excluded from candidacy. Ties order by image_id.
    """
    image_ids = scores.image_ids[rows]
    eligible = (image_ids != query.image_id) & (scores.identity_ids[rows] != query.identity_id)
    if not eligible.any():
        raise ValidationError(
            f"group '{name}' has no candidates distinct from query '{query.image_id}'"
        )
    sims, image_ids = sims[rows][eligible], image_ids[eligible]
    # -0.0 and 0.0 tie, and ties order by image_id
    order = np.lexsort((image_ids, -sims))
    return [
        RankedCandidate(image_id=image_id, similarity=sim, rank=i)
        for i, (sim, image_id) in enumerate(
            zip(sims[order].tolist(), image_ids[order].tolist()), start=1
        )
    ]
