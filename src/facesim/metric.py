"""Vector similarity primitives and the learnable linear projection.

The projection model is a dense square matrix applied on top of frozen base
embeddings. A freshly initialized model is the identity matrix, so similarity
under the untrained model equals base-embedding cosine similarity exactly.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .corpus import EmbeddingTable, read_json, write_json
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
            "weight": self._weight,  # written as one flat row-major list
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
        weights = payload["weight"]
        # JSON numbers only: numpy would also take strings such as "1" and booleans
        if not isinstance(weights, list) or not set(map(type, weights)) <= {int, float}:
            raise FormatError(f"model file {path}: weight must be a list of numbers")
        try:
            weight = np.asarray(weights, dtype=np.float64)
        except OverflowError as exc:
            raise FormatError(
                f"model file {path}: weight must be a list of numbers ({exc})"
            ) from exc
        if not np.isfinite(weight).all():  # Python's `json` reads NaN and Infinity
            raise FormatError(f"model file {path}: weight contains non-finite entries")
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


def check_dimension(model: ProjectionModel, table: EmbeddingTable) -> None:
    """The model maps vectors of the table's width, as every command that projects a table needs."""
    if model.dim != table.dim:
        raise ValidationError(
            f"model dimension {model.dim} does not match embedding dimension {table.dim}"
        )


def scale_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows divided by their largest absolute component, and the norms of the scaled rows.

    Scaling first keeps tiny and huge components from underflowing or
    overflowing. Each row is scaled and reduced on its own.
    """
    scaled = rows / np.abs(rows).max(axis=1, keepdims=True)
    return scaled, np.linalg.norm(scaled, axis=1)


def scaled_cosine(
    u: np.ndarray,
    scaled_u: Tuple[np.ndarray, np.ndarray],
    v: np.ndarray,
    scaled_v: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Cosine of each row of u with the same row of v, given `scale_rows(u)` and `scale_rows(v)`.

    Either side may be a single row, broadcast against every row of the other,
    and rows scaled once can be scored against many others without scaling
    them again. Each row is reduced on its own, so a row's value never depends
    on the other rows of the block. Clamped into [-1, 1]; equal rows score
    exactly 1.0. No row may be all zero.
    """
    (su, nu), (sv, nv) = scaled_u, scaled_v
    value = np.clip(np.sum(su * sv, axis=1) / (nu * nv), -1.0, 1.0)
    # equal rows have equal norms (`scale_rows` is row-local): compare only those
    same = np.flatnonzero(nu == nv)
    u, v = np.broadcast_arrays(u, v)
    value[same[(u[same] == v[same]).all(axis=1)]] = 1.0
    return value
