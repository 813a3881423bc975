"""Triplet-loss training of the projection model.

Mini-batch SGD with momentum and coupled weight decay. The loss hinges on the
gap between the reference/minority cosine and the reference/majority cosine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import evaluator
from .corpus import TripletTable, check_seed, write_table
from .errors import DegenerateVectorError, DivergenceError, ValidationError
from .metric import ProjectionModel, check_dimension


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
        # every range test fails on NaN, which fails every comparison
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not 0 <= self.momentum < 1:
            raise ValidationError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ValidationError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        check_margin(self.margin)
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        check_seed(self.seed)


def check_margin(margin: float) -> None:
    """A hinge margin is finite and >= 0, in training and in gradient checks."""
    if not 0 <= margin < math.inf:
        raise ValidationError(f"margin must be finite and >= 0, got {margin}")


def check_step(step: float) -> None:
    """A finite-difference step is finite and > 0."""
    if not 0 < step < math.inf:
        raise ValidationError(f"step must be finite and > 0, got {step}")


@dataclass
class TrainHistory:
    mean_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    active_fraction: List[float] = field(default_factory=list)

    def save_csv(self, path) -> None:
        write_table(path, ["epoch", "mean_loss", "val_accuracy", "active_fraction"],
                    [range(1, len(self.mean_loss) + 1),
                     np.column_stack([self.mean_loss, self.val_accuracy, self.active_fraction])])


def batch_loss_and_gradient(
    weight: np.ndarray, x: np.ndarray, margin: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-triplet hinge of (3, B, d) ref, pos and neg rows, B >= 1, and its batch-mean gradient.

    d cos(Wa, Wb)/dW = ga aᵀ + gb bᵀ with ga = Wb/(|Wa||Wb|) - cos(Wa, Wb) Wa/|Wa|², gb alike.
    The three roles are one block, so each step over them is one call; every
    element is computed by the same operations, in the same order, as role by
    role, so the results are bit-identical to a role-by-role kernel.
    """
    p = x @ weight.T  # u, v, w
    n = np.sqrt(np.sum(p * p, axis=2, keepdims=True))  # |u|, |v|, |w|
    if not n.all():
        raise DegenerateVectorError("projected vector has zero norm")
    u, nu = p[0], n[0]
    n_pair = nu * n[1:]  # |u||v|, |u||w|
    cos = np.sum(u * p[1:], axis=2, keepdims=True) / n_pair
    cos_pos, cos_neg = cos
    hinge = cos_neg - cos_pos + margin
    inactive = hinge <= 0.0  # a NaN hinge stays active, so divergence reaches the caller
    hinge[inactive] = 0.0
    other = p[1:] / n_pair  # v/(|u||v|), w/(|u||w|)
    own = u / n_pair  # u/(|u||v|), u/(|u||w|)
    along = cos / (n[1:] * n[1:]) * p[1:]  # cos_pos v/|v|², cos_neg w/|w|²
    g = np.empty_like(p)  # the gradient factors of ref, pos and neg rows
    np.subtract(other[1] - other[0], (cos_neg - cos_pos) / (nu * nu) * u, out=g[0])
    np.subtract(along[0], own[0], out=g[1])
    np.subtract(own[1], along[1], out=g[2])
    g *= (~inactive).astype(np.float64)  # as a float mask: a bool one multiplies slower
    return hinge[:, 0], np.add.reduce(np.matmul(g.transpose(0, 2, 1), x)) / x.shape[1]


def triplet_hinge(
    weight: np.ndarray, ref: np.ndarray, pos: np.ndarray, neg: np.ndarray, margin: float
) -> float:
    """The `batch_loss_and_gradient` hinge of one triplet of (d,) vectors under `weight`."""
    return float(batch_loss_and_gradient(weight, np.stack([ref, pos, neg])[:, None], margin)[0][0])


def gradient_check(
    model: ProjectionModel,
    ref: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    margin: float,
    step: float = 1e-5,
) -> float:
    """Max relative error between the analytic gradient of `batch_loss_and_gradient` and
    the central finite differences of its own hinge, over one triplet."""
    check_margin(margin)
    check_step(step)
    weight = model.weight
    _, analytic = batch_loss_and_gradient(weight, np.stack([ref, pos, neg])[:, None], margin)
    max_err = 0.0
    d = weight.shape[0]
    for i in range(d):
        for j in range(d):
            w_plus = weight.copy()
            w_plus[i, j] += step
            w_minus = weight.copy()
            w_minus[i, j] -= step
            numeric = (triplet_hinge(w_plus, ref, pos, neg, margin)
                       - triplet_hinge(w_minus, ref, pos, neg, margin)) / (2 * step)
            denom = max(abs(numeric), abs(analytic[i, j]), 1e-8)
            max_err = max(max_err, abs(numeric - analytic[i, j]) / denom)
    return max_err


def train(
    model: ProjectionModel,
    train: TripletTable,
    val: TripletTable,
    config: TrainConfig,
) -> Tuple[ProjectionModel, TrainHistory]:
    """Shuffled mini-batch SGD with momentum; deterministic given the seed.

    The consistent validation triplets are gathered at the first validation
    and kept for the later epochs.
    """
    if not len(train):
        raise ValidationError("training set is empty")
    check_dimension(model, train.table)
    stack = train.gather()
    validate = bool((val.admitted & val.consistent).any())
    n = stack.shape[1]
    rng = np.random.default_rng(config.seed)
    weight = model.weight.copy()
    velocity = np.zeros_like(weight)
    step = np.empty_like(weight)
    history = TrainHistory()
    last_finite = None  # (gradient, hinges) of the last batch that left the weights finite

    for epoch in range(config.epochs):
        perm = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_loss = 0.0
        active = 0
        with np.errstate(all="ignore"):  # overflow surfaces as non-finite values, checked below
            for batch, start in enumerate(range(0, n, config.batch_size), start=1):
                block = stack[:, perm[start : start + config.batch_size]]
                losses, grad = batch_loss_and_gradient(weight, block, config.margin)
                # velocity = momentum * velocity - lr * (grad + decay * weight), in place
                np.multiply(weight, config.weight_decay, out=step)
                step += grad
                step *= config.learning_rate
                velocity *= config.momentum
                velocity -= step
                weight += velocity
                if not (np.isfinite(losses).all() and np.isfinite(weight).all()):
                    norm, hinge = ("none", "none") if last_finite is None else (
                        f"{np.linalg.norm(last_finite[0]):.6g}", f"{last_finite[1].mean():.6g}")
                    raise DivergenceError(
                        f"non-finite loss or weights at epoch {epoch + 1}, batch {batch};"
                        f" last finite gradient norm {norm}, mean hinge {hinge}",
                        epoch=epoch + 1,
                        batch=batch,
                    )
                last_finite = grad, losses
                epoch_loss += float(losses.sum())
                active += int(np.count_nonzero(losses))
        history.mean_loss.append(epoch_loss / n)
        history.active_fraction.append(active / n)
        if validate:
            acc, _ = evaluator.eval_triplets(ProjectionModel(weight), val)
            history.val_accuracy.append(acc)
        else:
            history.val_accuracy.append(float("nan"))

    final = model if config.epochs == 0 else ProjectionModel(weight)
    return final, history
