"""Triplet-loss training of the projection model.

Mini-batch SGD with momentum and coupled weight decay. The loss hinges on the
gap between the reference/minority cosine and the reference/majority cosine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from . import evaluator
from .corpus import EmbeddingTable, TripletSample, write_csv
from .errors import DegenerateVectorError, DivergenceError, ValidationError
from .metric import ProjectionModel, cosine


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    margin: float = 0.1
    epochs: int = 50
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValidationError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.margin < 0:
            raise ValidationError("margin must be >= 0")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")


@dataclass
class TrainHistory:
    mean_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    active_fraction: List[float] = field(default_factory=list)

    def save_csv(self, path) -> None:
        write_csv(
            path,
            ["epoch", "mean_loss", "val_accuracy", "active_fraction"],
            zip(itertools.count(1), self.mean_loss, self.val_accuracy, self.active_fraction),
        )


def triplet_loss(x: np.ndarray, x_plus: np.ndarray, x_minus: np.ndarray, margin: float) -> float:
    """max(0, cos(x, x-) - cos(x, x+) + margin)."""
    return max(0.0, cosine(x, x_minus) - cosine(x, x_plus) + margin)


def batch_loss_and_gradient(
    weight: np.ndarray, ref: np.ndarray, pos: np.ndarray, neg: np.ndarray, margin: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-triplet hinge of stacked (B, d) rows, B >= 1, and its batch-mean gradient.

    d cos(Wa, Wb)/dW = ga aᵀ + gb bᵀ with ga = Wb/(|Wa||Wb|) - cos(Wa, Wb) Wa/|Wa|², gb alike.
    """
    u, v, w = ref @ weight.T, pos @ weight.T, neg @ weight.T
    nu, nv, nw = (np.linalg.norm(x, axis=1, keepdims=True) for x in (u, v, w))
    if not (nu.all() and nv.all() and nw.all()):
        raise DegenerateVectorError("projected vector has zero norm")
    cos_pos = np.sum(u * v, axis=1, keepdims=True) / (nu * nv)
    cos_neg = np.sum(u * w, axis=1, keepdims=True) / (nu * nw)
    hinge = cos_neg - cos_pos + margin
    inactive = hinge <= 0.0  # a NaN hinge stays active, so divergence reaches the caller
    hinge[inactive] = 0.0
    active = ~inactive
    g_ref = active * (w / (nu * nw) - v / (nu * nv) - (cos_neg - cos_pos) / (nu * nu) * u)
    g_pos = active * (cos_pos / (nv * nv) * v - u / (nu * nv))
    g_neg = active * (u / (nu * nw) - cos_neg / (nw * nw) * w)
    return hinge[:, 0], (g_ref.T @ ref + g_pos.T @ pos + g_neg.T @ neg) / len(ref)


def _stack(samples: Sequence[TripletSample], table: EmbeddingTable) -> Tuple[np.ndarray, ...]:
    """Reference, chosen and other vectors of the samples as three (n, d) arrays."""
    ids = zip(*((s.ref_id, s.chosen_id(), s.other_id()) for s in samples))
    return tuple(table.vectors(role) for role in ids)


def gradient_check(
    model: ProjectionModel,
    ref: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    margin: float,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central finite-difference gradients."""
    if step <= 0:
        raise ValidationError("step must be > 0")
    weight = model.weight
    _, analytic = batch_loss_and_gradient(weight, ref[None], pos[None], neg[None], margin)

    def loss_at(w):
        return triplet_loss(w @ ref, w @ pos, w @ neg, margin)

    max_err = 0.0
    d = weight.shape[0]
    for i in range(d):
        for j in range(d):
            w_plus = weight.copy()
            w_plus[i, j] += step
            w_minus = weight.copy()
            w_minus[i, j] -= step
            numeric = (loss_at(w_plus) - loss_at(w_minus)) / (2 * step)
            denom = max(abs(numeric), abs(analytic[i, j]), 1e-8)
            max_err = max(max_err, abs(numeric - analytic[i, j]) / denom)
    return max_err


def train(
    model: ProjectionModel,
    train_samples: Sequence[TripletSample],
    val_samples: Sequence[TripletSample],
    table: EmbeddingTable,
    config: TrainConfig,
) -> Tuple[ProjectionModel, TrainHistory]:
    """Shuffled mini-batch SGD with momentum; deterministic given the seed."""
    if not train_samples:
        raise ValidationError("training set is empty")
    if model.dim != table.dim:
        raise ValidationError(
            f"model dimension {model.dim} does not match embedding dimension {table.dim}"
        )
    ref, pos, neg = _stack(train_samples, table)
    consistent_val = [s for s in val_samples if s.admitted and s.consistent]
    order = list(range(len(train_samples)))
    rng = random.Random(config.seed)
    weight = model.weight.copy()
    velocity = np.zeros_like(weight)
    history = TrainHistory()

    for epoch in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        epoch_loss = 0.0
        active = 0
        with np.errstate(all="ignore"):  # overflow surfaces as non-finite values, checked below
            for batch, start in enumerate(range(0, len(order), config.batch_size), start=1):
                rows = order[start : start + config.batch_size]
                losses, grad = batch_loss_and_gradient(
                    weight, ref[rows], pos[rows], neg[rows], config.margin
                )
                velocity = config.momentum * velocity - config.learning_rate * (
                    grad + config.weight_decay * weight
                )
                weight = weight + velocity
                if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(weight))):
                    raise DivergenceError(
                        f"non-finite loss or weights at epoch {epoch + 1}, batch {batch}",
                        epoch=epoch + 1,
                        batch=batch,
                    )
                epoch_loss += float(losses.sum())
                active += int(np.count_nonzero(losses))
        history.mean_loss.append(epoch_loss / len(order))
        history.active_fraction.append(active / len(order))
        if consistent_val:
            acc, _ = evaluator.eval_triplets(ProjectionModel(weight), consistent_val, table)
            history.val_accuracy.append(acc)
        else:
            history.val_accuracy.append(float("nan"))

    final = model if config.epochs == 0 else ProjectionModel(weight)
    return final, history
