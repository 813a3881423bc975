"""The record-by-record annotation path: the oracle of the columnar tables in `corpus`.

These are the loops `corpus` ran before annotations and triplets became
columns (`AnnotationTable`, `TripletTable`). The tests check the column path
against them field for field. The annotation record and its two rules are
restated here, not taken from `corpus`, so that the oracle checks them too.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from facesim.corpus import (
    ANNOTATION_COLUMNS,
    MIN_VALID_VOTES,
    AnnotationTable,
    EmbeddingTable,
    TripletSample,
    read_csv,
)
from facesim.errors import FormatError, IntegrityError, ValidationError


@dataclass(frozen=True)
class RawAnnotation:
    """One annotation row: the choice is A or B, and a dummy row has an answer A or B."""

    annotator_id: str
    triplet_id: str
    choice: str
    is_dummy: bool
    dummy_answer: Optional[str] = None

    def __post_init__(self):
        if self.choice not in ("A", "B"):
            raise ValidationError(f"annotation by '{self.annotator_id}' on '{self.triplet_id}':"
                                  f" choice must be A or B, got '{self.choice}'")
        if self.is_dummy and self.dummy_answer not in ("A", "B"):
            raise ValidationError(
                f"dummy annotation on '{self.triplet_id}' is missing its dummy_answer"
            )


def records(table: AnnotationTable) -> List[RawAnnotation]:
    """The rows of an annotation table as records, in row order."""
    return [RawAnnotation(*row) for row in zip(
        table.annotator_ids, table.triplet_ids, table.choices, table.is_dummy.tolist(),
        table.dummy_answers)]


def load_annotations(path) -> List[RawAnnotation]:
    header, linenos, rows = read_csv(path)
    if header != ANNOTATION_COLUMNS:
        raise FormatError(f"{path}: header must be {','.join(ANNOTATION_COLUMNS)}")
    annotations = []
    for lineno, row in zip(linenos, rows):
        annotator_id, triplet_id, choice, is_dummy, dummy_answer = row
        if is_dummy.lower() not in ("true", "false", "0", "1"):
            raise FormatError(f"{path}:{lineno}: is_dummy must be boolean, got '{is_dummy}'")
        try:
            annotations.append(
                RawAnnotation(
                    annotator_id=annotator_id,
                    triplet_id=triplet_id,
                    choice=choice,
                    is_dummy=is_dummy.lower() in ("true", "1"),
                    dummy_answer=dummy_answer or None,
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return annotations


def validate_annotators(annotations: Sequence[RawAnnotation]) -> Set[str]:
    dummy_seen: Dict[str, bool] = {}
    dummy_ok: Dict[str, bool] = {}
    for ann in annotations:
        dummy_seen.setdefault(ann.annotator_id, False)
        dummy_ok.setdefault(ann.annotator_id, True)
        if ann.is_dummy:
            dummy_seen[ann.annotator_id] = True
            if ann.choice != ann.dummy_answer:
                dummy_ok[ann.annotator_id] = False
    return {a for a in dummy_seen if dummy_seen[a] and dummy_ok[a]}


def aggregate_triplets(
    manifest: Dict[str, Tuple[str, str, str]],
    annotations: Sequence[RawAnnotation],
    valid_annotators: Set[str],
    min_votes: int = MIN_VALID_VOTES,
) -> List[TripletSample]:
    votes_by_triplet: Dict[str, List[Tuple[str, str]]] = {t: [] for t in manifest}
    for ann in annotations:
        if ann.is_dummy:
            continue
        if ann.triplet_id not in manifest:
            raise IntegrityError(
                f"annotation by '{ann.annotator_id}' references unknown"
                f" triplet_id '{ann.triplet_id}'"
            )
        if ann.annotator_id in valid_annotators:
            votes_by_triplet[ann.triplet_id].append((ann.annotator_id, ann.choice))

    samples = []
    for triplet_id, (ref_id, a_id, b_id) in manifest.items():
        pairs = sorted(votes_by_triplet[triplet_id])
        votes = tuple(choice for _, choice in pairs)
        n_a = votes.count("A")
        n_b = votes.count("B")
        majority = "A" if n_a > n_b else "B" if n_b > n_a else None
        consistent = len(votes) > 0 and (n_a == 0 or n_b == 0)
        rejection: Optional[str] = None
        if len(votes) < min_votes:
            rejection = f"only {len(votes)} valid votes (need {min_votes})"
        elif majority is None:
            rejection = f"tied votes ({n_a} vs {n_b})"
        samples.append(
            TripletSample(
                triplet_id=triplet_id,
                ref_id=ref_id,
                option_a_id=a_id,
                option_b_id=b_id,
                votes=votes,
                majority=majority,
                consistent=consistent and rejection is None,
                admitted=rejection is None,
                rejection=rejection,
            )
        )
    return samples


def verify_target_consistency(samples: Sequence[TripletSample], table: EmbeddingTable) -> None:
    for sample in samples:
        rows = [table.row(sample.ref_id), table.row(sample.option_a_id),
                table.row(sample.option_b_id)]
        targets = {table.target_ids[row] for row in rows}
        if any(table.roles[row] != "swapped" for row in rows) or len(targets) != 1:
            raise IntegrityError(
                f"triplet '{sample.triplet_id}' must reference swapped records"
                f" sharing one target_id, got targets {sorted(str(t) for t in targets)}"
            )
