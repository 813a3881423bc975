"""Vector similarity primitives and the learnable linear projection.

The projection model is a dense square matrix applied on top of frozen base
embeddings. A freshly initialized model is the identity matrix, so similarity
under the untrained model equals base-embedding cosine similarity exactly.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .corpus import read_json, write_json
from .errors import DegenerateVectorError, FormatError, ValidationError

MODEL_FORMAT_VERSION = "facesim-projection-1"


class ProjectionModel:
    """Immutable d x d linear map over base embeddings."""

    def __init__(self, weight: np.ndarray):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise ValidationError(f"projection weight must be square, got shape {weight.shape}")
        if not np.all(np.isfinite(weight)):
            raise ValidationError("projection weight contains non-finite entries")
        self._weight = weight.copy()
        self._weight.setflags(write=False)

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @property
    def dim(self) -> int:
        return self._weight.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "ProjectionModel":
        return cls(np.eye(dim))

    def project_block(self, block: np.ndarray, ids: Sequence[str]) -> np.ndarray:
        """Project an (n, d) block of rows, row i holding the vector of record ids[i].

        Each row gets its own (1, d) @ (d, d) product, so a record's projected
        row is bit-identical whatever block, subset or order it comes in; one
        (n, d) @ (d, d) product would round some rows differently.
        """
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise ValidationError(f"block has shape {block.shape}, model expects (n, {self.dim})")
        projected = np.matmul(block[:, None, :], self._weight.T)[:, 0, :]
        zero = np.flatnonzero(~projected.any(axis=1))
        if zero.size:
            raise DegenerateVectorError(f"projection of record '{ids[zero[0]]}' has zero norm")
        return projected

    def save(self, path) -> None:
        payload = {
            "version": MODEL_FORMAT_VERSION,
            "dim": self.dim,
            "weight": self._weight.reshape(-1).tolist(),
        }
        write_json(path, payload)

    @classmethod
    def load(cls, path) -> "ProjectionModel":
        payload = read_json(path, "model", ("version", "dim", "weight"))
        dim = payload["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise FormatError(
                f"model file {path}: dim must be a positive integer, got {dim!r}"
            )
        try:
            weight = np.asarray(payload["weight"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(
                f"model file {path}: weight must be a list of numbers ({exc})"
            ) from exc
        if weight.size != dim * dim:
            raise FormatError(
                f"model file {path} declares dim={dim} but carries {weight.size} weights"
            )
        if payload["version"] != MODEL_FORMAT_VERSION:
            raise FormatError(
                f"model file {path} has unknown format version {payload['version']!r},"
                f" expected {MODEL_FORMAT_VERSION!r}"
            )
        return cls(weight.reshape(dim, dim))

    def __eq__(self, other):
        return isinstance(other, ProjectionModel) and np.array_equal(self._weight, other._weight)


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


def project_records(model: ProjectionModel, records: Sequence) -> np.ndarray:
    """Projected rows of embedding records, row i for records[i] (see `project_block`)."""
    try:
        block = np.array([r.vector for r in records], dtype=np.float64)
        block = block.reshape(len(records), model.dim)
    except ValueError:
        raise ValidationError(f"records do not all have the model dimension {model.dim}") from None
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


def scale_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows divided by their largest absolute component, and the norms of the scaled rows.

    Scaling first, like `cosine`, keeps tiny and huge components from
    underflowing or overflowing. Each row is scaled and reduced on its own.
    """
    scaled = rows / np.abs(rows).max(axis=1, keepdims=True)
    return scaled, np.linalg.norm(scaled, axis=1)


def scaled_cosine(
    u: np.ndarray,
    scaled_u: Tuple[np.ndarray, np.ndarray],
    v: np.ndarray,
    scaled_v: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """`rowwise_cosine(u, v)` given `scale_rows(u)` and `scale_rows(v)`.

    Rows scaled once can be scored against many others without scaling them again.
    """
    (su, nu), (sv, nv) = scaled_u, scaled_v
    value = np.clip(np.sum(su * sv, axis=1) / (nu * nv), -1.0, 1.0)
    value[(u == v).all(axis=1)] = 1.0
    return value


def rowwise_cosine(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of each row of u with the same row of v, for rows that are not all zero.

    Either side may be a single row, broadcast against every row of the other.
    Rows are scaled by their largest absolute component first (`scale_rows`),
    and each row is reduced on its own, so a row's value never depends on the
    other rows of the block. Clamped into [-1, 1]; equal rows score exactly 1.0.
    """
    return scaled_cosine(u, scale_rows(u), v, scale_rows(v))


def distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine(u, v); lies in [0, 2]."""
    return 1.0 - cosine(u, v)


def similarity_score(model: ProjectionModel, a, b) -> float:
    """Cosine similarity of two embedding records under the projection.

    Computed like every block path (`project_records`, then `rowwise_cosine`),
    so it agrees with them bit for bit.
    """
    rows = project_records(model, [a, b])
    return float(rowwise_cosine(rows[:1], rows[1:])[0])
