"""Vector similarity primitives and the learnable linear projection.

The projection model is a dense square matrix applied on top of frozen base
embeddings. A freshly initialized model is the identity matrix, so similarity
under the untrained model equals base-embedding cosine similarity exactly.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .errors import DegenerateVectorError, FormatError, ValidationError

MODEL_FORMAT_VERSION = "facesim-projection-1"


class ProjectionModel:
    """Immutable d x d linear map over base embeddings."""

    def __init__(self, weight: np.ndarray, version: str = MODEL_FORMAT_VERSION):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise ValidationError(f"projection weight must be square, got shape {weight.shape}")
        if not np.all(np.isfinite(weight)):
            raise ValidationError("projection weight contains non-finite entries")
        self._weight = weight.copy()
        self._weight.setflags(write=False)
        self.version = version

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @property
    def dim(self) -> int:
        return self._weight.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "ProjectionModel":
        return cls(np.eye(dim))

    def with_weight(self, weight: np.ndarray) -> "ProjectionModel":
        return ProjectionModel(weight, version=self.version)

    def project_block(self, block: np.ndarray, ids: Sequence[str]) -> np.ndarray:
        """Project an (n, d) block of rows, row i holding the vector of record ids[i]."""
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise ValidationError(f"block has shape {block.shape}, model expects (n, {self.dim})")
        projected = block @ self._weight.T
        zero = np.flatnonzero(np.linalg.norm(projected, axis=1) == 0.0)
        if zero.size:
            raise DegenerateVectorError(f"projection of record '{ids[zero[0]]}' has zero norm")
        return projected

    def save(self, path) -> None:
        payload = {
            "version": self.version,
            "dim": self.dim,
            "weight": [float(x) for x in self._weight.reshape(-1)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ProjectionModel":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"model file {path} is not valid JSON: {exc}") from exc
        for key in ("version", "dim", "weight"):
            if key not in payload:
                raise FormatError(f"model file {path} is missing field '{key}'")
        dim = payload["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise FormatError(
                f"model file {path}: dim must be a positive integer, got {dim!r}"
            )
        try:
            weight = np.asarray(payload["weight"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise FormatError(
                f"model file {path}: weight must be a list of numbers ({exc})"
            ) from exc
        if weight.size != dim * dim:
            raise FormatError(
                f"model file {path} declares dim={dim} but carries {weight.size} weights"
            )
        return cls(weight.reshape(dim, dim), version=payload["version"])

    def __eq__(self, other):
        return (
            isinstance(other, ProjectionModel)
            and self.version == other.version
            and np.array_equal(self._weight, other._weight)
        )


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


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine similarity is undefined for zero-norm vectors")
    if np.array_equal(u, v):
        return 1.0  # exact self-similarity regardless of rounding
    value = float(np.dot(u, v)) / (nu * nv)
    return min(1.0, max(-1.0, value))


def rowwise_cosine(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of each row of u with the same row of v, for rows of nonzero norm.

    Clamped into [-1, 1]; equal rows score exactly 1.0.
    """
    value = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    value = np.clip(value, -1.0, 1.0)
    value[(u == v).all(axis=1)] = 1.0
    return value


def distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine(u, v); lies in [0, 2]."""
    return 1.0 - cosine(u, v)


def similarity_score(model: ProjectionModel, a, b) -> float:
    """Cosine similarity of two embedding records under the projection."""
    pa = project(model, a.vector)
    pb = project(model, b.vector)
    if float(np.linalg.norm(pa)) == 0.0:
        raise DegenerateVectorError(f"projection of record '{a.image_id}' has zero norm")
    if float(np.linalg.norm(pb)) == 0.0:
        raise DegenerateVectorError(f"projection of record '{b.image_id}' has zero norm")
    return cosine(pa, pb)
