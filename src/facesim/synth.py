"""Seeded synthetic corpora for audits and end-to-end tests.

"planted" labels triplets by cosine similarity under a hidden ground-truth
matrix, so a trained model can be checked against a known metric. The
"clustered-attributes" preset emits Gaussian clusters labeled with the four
age x gender intersection attributes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .corpus import (
    AnnotationTable,
    EmbeddingTable,
    save_annotations,
    save_embeddings,
    save_manifest,
)
from .errors import ValidationError
from .metric import ProjectionModel

ANNOTATORS = ("p1", "p2", "p3")
LABEL_GAP = 0.25  # least hidden-cosine gap between a planted triplet's two options
PRIVATE_POOL = 8  # source identities owned by each planted target
SHARED_POOL = 24  # source identities every planted target draws from
CLUSTER_SPREAD = 0.12  # per-component SD of a clustered-attributes sample around its mean


@dataclass
class PlantedCorpus:
    table: EmbeddingTable
    manifest: Dict[str, Tuple[str, str, str]]
    annotations: AnnotationTable
    truth: ProjectionModel

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        save_embeddings(self.table, os.path.join(out_dir, "embeddings.csv"))
        save_manifest(self.manifest, os.path.join(out_dir, "manifest.csv"))
        save_annotations(self.annotations, os.path.join(out_dir, "annotations.csv"))
        self.truth.save(os.path.join(out_dir, "truth_model.json"))


@dataclass
class ClusteredCorpus:
    candidates: EmbeddingTable
    queries: EmbeddingTable

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        save_embeddings(self.candidates, os.path.join(out_dir, "candidates.csv"))
        save_embeddings(self.queries, os.path.join(out_dir, "queries.csv"))


def planted(
    seed: int,
    n_triplets: int = 600,
    dim: int = 32,
    data_subspace: int = 12,
    truth_rank: int = 2,
    n_targets: int = 8,
    noise_fraction: float = 0.0,
) -> PlantedCorpus:
    """Triplets over random vectors, labeled by a hidden low-rank metric.

    Base vectors live in a random `data_subspace`-dimensional subspace and the
    hidden metric is a rank-`truth_rank` map inside it, so the planted ordering
    is recoverable from a few hundred triplets while agreeing with the base
    cosine ordering only weakly. Triplets whose two options are closer than
    `LABEL_GAP` under the hidden metric are resampled, keeping labels
    unambiguous.

    Each target owns a private source pool and also draws from one shared pool,
    which keeps all three source/target evaluation split modes satisfiable.
    A `noise_fraction` of triplets gets a flipped 2-1 (inconsistent) vote.
    """
    if n_triplets < 1 or dim < 2 or not 1 <= truth_rank <= data_subspace <= dim:
        raise ValidationError("invalid planted-corpus sizes")
    if not 0.0 <= noise_fraction <= 1.0:
        raise ValidationError("noise_fraction must be in [0, 1]")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    basis, _ = np.linalg.qr(rng.normal(size=(dim, data_subspace)))
    truth = np.zeros((dim, dim))
    truth[:truth_rank, :] = rng.normal(size=(truth_rank, data_subspace)) @ basis.T

    targets = [f"t{i:03d}" for i in range(n_targets)]
    shared = [f"shared{i:03d}" for i in range(SHARED_POOL)]
    private = {t: [f"{t}_src{i:02d}" for i in range(PRIVATE_POOL)] for t in targets}

    labels: List[Tuple[str, ...]] = []  # the six labels of each row of the table
    matrix = np.empty((3 * n_triplets, dim))  # the vectors of each triplet, three rows
    manifest: Dict[str, Tuple[str, str, str]] = {}
    votes_cast: List[Tuple[str, str, str]] = []  # (annotator, triplet, choice) of each vote

    def hidden_cos(u, v):
        # rows past truth_rank are zero and add nothing to the dot product or the norms
        tu = truth[:truth_rank] @ u
        tv = truth[:truth_rank] @ v
        return float(tu @ tv / (np.linalg.norm(tu) * np.linalg.norm(tv)))

    noisy = set(rng.choice(n_triplets, size=round(noise_fraction * n_triplets), replace=False))
    for i in range(n_triplets):
        target = targets[i % n_targets]
        pool = private[target] if (i // n_targets) % 2 == 0 else shared
        sources = [pool[j] for j in rng.choice(len(pool), size=3, replace=False)]
        while True:
            vectors = [basis @ rng.normal(size=data_subspace) for _ in range(3)]
            sim_a = hidden_cos(vectors[0], vectors[1])
            sim_b = hidden_cos(vectors[0], vectors[2])
            if abs(sim_a - sim_b) >= LABEL_GAP:
                break
        image_ids = []
        for part, source in zip(("c", "a", "b"), sources):
            image_ids.append(f"img{i:05d}{part}")
            labels.append((image_ids[-1], source, "swapped", target, "unknown", "unknown"))
        matrix[3 * i:3 * i + 3] = vectors
        label = "A" if sim_a >= sim_b else "B"
        triplet_id = f"tri{i:05d}"
        manifest[triplet_id] = tuple(image_ids)
        if i in noisy:
            flipped = "B" if label == "A" else "A"
            votes = [flipped, flipped, label]
        else:
            votes = [label, label, label]
        votes_cast.extend((annotator, triplet_id, vote)
                          for annotator, vote in zip(ANNOTATORS, votes))

    # dummy screening samples, answered correctly by every annotator
    dummies = [(annotator, f"dummy{d:02d}", "A") for d in range(3) for annotator in ANNOTATORS]
    annotator_ids, triplet_ids, choices = zip(*votes_cast, *dummies)
    annotations = AnnotationTable(
        annotator_ids, triplet_ids, choices,
        is_dummy=(False,) * len(votes_cast) + (True,) * len(dummies),
        dummy_answers=(None,) * len(votes_cast) + ("A",) * len(dummies),
    )
    return PlantedCorpus(
        table=EmbeddingTable(tuple(zip(*labels)), matrix),
        manifest=manifest,
        annotations=annotations,
        truth=ProjectionModel(truth),
    )


_CLUSTER_LABELS = (
    ("young", "male"),
    ("young", "female"),
    ("older", "male"),
    ("older", "female"),
)


def clustered_attributes(
    seed: int,
    per_cluster: int = 100,
    n_queries: int = 200,
    dim: int = 32,
) -> ClusteredCorpus:
    """Four well-separated Gaussian clusters, one per intersection attribute."""
    if per_cluster < 1 or n_queries < 4 or dim < 4:
        raise ValidationError("invalid clustered-attributes sizes")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 4)))
    means = basis.T  # 4 orthonormal mean directions

    def table(role, rows):
        """The table of (image_id, identity_id, cluster) rows, each vector drawn around
        its cluster's mean, in row order."""
        image_ids, identity_ids, clusters = zip(*rows)
        ages, genders = zip(*(_CLUSTER_LABELS[c] for c in clusters))
        n = len(rows)
        columns = (image_ids, identity_ids, (role,) * n, (None,) * n, genders, ages)
        matrix = np.array([means[c] + CLUSTER_SPREAD * rng.normal(size=dim) for c in clusters])
        return EmbeddingTable(columns, matrix)

    candidates = table("source", [
        (f"cand_{age}_{gender}_{j:04d}", f"cid_{c}_{j:04d}", c)
        for c, (age, gender) in enumerate(_CLUSTER_LABELS) for j in range(per_cluster)
    ])
    queries = table("target", [
        (f"query_{q:04d}", f"qid_{q:04d}", q % 4) for q in range(n_queries)
    ])
    return ClusteredCorpus(candidates=candidates, queries=queries)
