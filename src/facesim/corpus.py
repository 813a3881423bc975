"""Ingestion and curation of embedding tables and triplet annotations.

Covers the CSV and JSON file formats, dummy-sample annotator screening,
majority-vote aggregation, the all-data / consistent-only training sets, and
the source/target-aware evaluation splits with an independent audit.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import (
    FormatError,
    InfeasibleSplitError,
    IntegrityError,
    ValidationError,
)

log = logging.getLogger(__name__)

ROLES = ("target", "source", "swapped")
GENDERS = ("male", "female", "unknown")
AGE_GROUPS = ("young", "older", "unknown")
CHOICES = ("A", "B")

EMBEDDING_FIXED_COLUMNS = ["image_id", "identity_id", "role", "target_id", "gender", "age_group"]
ANNOTATION_COLUMNS = ["annotator_id", "triplet_id", "choice", "is_dummy", "dummy_answer"]
MANIFEST_COLUMNS = ["triplet_id", "ref_id", "option_a_id", "option_b_id"]

DEFAULT_SPLIT_RATIOS = (0.7, 0.1, 0.2)
MIN_VALID_VOTES = 3


@dataclass(frozen=True)
class EmbeddingRecord:
    image_id: str
    identity_id: str
    role: str
    target_id: Optional[str]
    gender: str
    age_group: str
    vector: np.ndarray

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValidationError(f"record '{self.image_id}': unknown role '{self.role}'")
        if self.gender not in GENDERS:
            raise ValidationError(f"record '{self.image_id}': unknown gender '{self.gender}'")
        if self.age_group not in AGE_GROUPS:
            raise ValidationError(
                f"record '{self.image_id}': unknown age_group '{self.age_group}'"
            )
        if self.role == "swapped" and not self.target_id:
            raise ValidationError(f"swapped record '{self.image_id}' is missing target_id")


class EmbeddingTable:
    """Duplicate-free embedding records over one read-only (n, d) float64 `matrix`.

    Row i of `matrix` holds the vector of the i-th record, and a record that
    joins a table has its `vector` rebound to a view of its row, so the table
    keeps one copy of the vectors. Finite, non-zero rows are checked once over
    the whole matrix.
    """

    def __init__(self, records: Iterable[EmbeddingRecord]):
        records = list(records)
        vectors = [np.asarray(rec.vector, dtype=np.float64) for rec in records]
        dim = vectors[0].shape[0] if vectors else None
        for rec, vec in zip(records, vectors):
            if vec.shape != (dim,):
                raise FormatError(
                    f"record '{rec.image_id}' has dimension {vec.shape[0]},"
                    f" table dimension is {dim}"
                )
        self._index(records, np.array(vectors) if vectors else np.empty((0, 0)))

    @classmethod
    def _of_rows(cls, records: Iterable[EmbeddingRecord], matrix: np.ndarray) -> "EmbeddingTable":
        """The table of `matrix`, whose row i is the vector of the i-th record yielded."""
        table = cls.__new__(cls)
        table._index(records, matrix)
        return table

    @property
    def dim(self) -> Optional[int]:
        """The vector width; None for a table built from no records."""
        return self.matrix.shape[1] or None

    def _index(self, records: Iterable[EmbeddingRecord], matrix: np.ndarray) -> None:
        """Index the records, in order, naming the first invalid or duplicate one."""
        matrix.setflags(write=False)
        finite = np.isfinite(matrix).all(axis=1)
        bad = np.flatnonzero(~(finite & matrix.any(axis=1)))
        first_bad = int(bad[0]) if bad.size else -1
        self.matrix = matrix
        self._rows: Dict[str, int] = {}
        self._records: List[EmbeddingRecord] = []
        for row, rec in enumerate(records):
            if row == first_bad:
                what = "non-finite vector component" if not finite[row] else "zero vector"
                raise ValidationError(f"record '{rec.image_id}': {what}")
            if rec.image_id in self._rows:
                raise ValidationError(f"duplicate image_id '{rec.image_id}'")
            object.__setattr__(rec, "vector", matrix[row])
            self._rows[rec.image_id] = row
            self._records.append(rec)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EmbeddingRecord]:
        return iter(self._records)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._rows

    def _row(self, image_id: str) -> int:
        try:
            return self._rows[image_id]
        except KeyError:
            raise IntegrityError(f"unknown image_id '{image_id}'") from None

    def __getitem__(self, image_id: str) -> EmbeddingRecord:
        return self._records[self._row(image_id)]

    def vectors(self, image_ids: Sequence[str]) -> np.ndarray:
        """The (len(image_ids), d) rows of `matrix` holding these records' vectors."""
        return self.matrix[[self._row(i) for i in image_ids]]


@dataclass(frozen=True)
class RawAnnotation:
    annotator_id: str
    triplet_id: str
    choice: str
    is_dummy: bool
    dummy_answer: Optional[str] = None

    def __post_init__(self):
        if self.choice not in CHOICES:
            raise ValidationError(
                f"annotation by '{self.annotator_id}' on '{self.triplet_id}':"
                f" choice must be A or B, got '{self.choice}'"
            )
        if self.is_dummy and self.dummy_answer not in CHOICES:
            raise ValidationError(
                f"dummy annotation on '{self.triplet_id}' is missing its dummy_answer"
            )


@dataclass(frozen=True)
class TripletSample:
    triplet_id: str
    ref_id: str
    option_a_id: str
    option_b_id: str
    votes: Tuple[str, ...]
    majority: Optional[str]
    consistent: bool
    admitted: bool
    rejection: Optional[str] = None

    def chosen_id(self) -> str:
        if self.majority is None:
            raise ValidationError(f"triplet '{self.triplet_id}' has no majority")
        return self.option_a_id if self.majority == "A" else self.option_b_id

    def other_id(self) -> str:
        if self.majority is None:
            raise ValidationError(f"triplet '{self.triplet_id}' has no majority")
        return self.option_b_id if self.majority == "A" else self.option_a_id


@dataclass
class DatasetPartition:
    mode: str
    seed: int
    ratios: Tuple[float, float, float]
    train: List[str] = field(default_factory=list)
    val: List[str] = field(default_factory=list)
    test: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "ratios": list(self.ratios),
            "train": list(self.train),
            "val": list(self.val),
            "test": list(self.test),
        }

    def save(self, path) -> None:
        write_json(path, self.to_json(), indent=2)

    @classmethod
    def load(cls, path) -> "DatasetPartition":
        payload = read_json(path, "partition", ("mode", "seed", "ratios", "train", "val", "test"))
        for key in ("train", "val", "test"):
            ids = payload[key]
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise FormatError(
                    f"partition file {path}: '{key}' must be a list of triplet ids"
                )
        if not isinstance(payload["ratios"], list):
            raise FormatError(f"partition file {path}: 'ratios' must be a list")
        return cls(
            mode=payload["mode"],
            seed=payload["seed"],
            ratios=tuple(payload["ratios"]),
            train=list(payload["train"]),
            val=list(payload["val"]),
            test=list(payload["test"]),
        )


# ---------------------------------------------------------------------------
# File formats: every file facesim reads or writes goes through these four helpers


def read_csv(path) -> Tuple[List[str], List[Tuple[int, List[str]]]]:
    """Header and (line number, fields) rows of a UTF-8 CSV file, blank lines skipped.

    A row whose width differs from the header's, malformed CSV and non-UTF-8
    bytes raise `FormatError` naming the path, and the line where it is exact.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields,"
                        f" got {len(row)}"
                    )
                rows.append((reader.line_num, row))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return header, rows


# rows a CSV write holds as text at once
_CSV_BLOCK_ROWS = 512


def _csv_blocks(rows: Iterable[Sequence]) -> Iterator[List[str]]:
    """The rows as CSV lines ending in "\\n", in blocks of up to `_CSV_BLOCK_ROWS`.

    `csv` quotes a field holding a character of its line terminator and no
    other line break, so rows are written with a CR LF end, which quotes a field
    holding either one, and that end is then swapped for LF.
    """
    lines: List[str] = []
    # the writer makes one `write` call per row
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    rows = iter(rows)
    while True:
        writer.writerows(itertools.islice(rows, _CSV_BLOCK_ROWS))
        if not lines:
            return
        yield [line[:-2] + "\n" for line in lines]
        lines.clear()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Floats are written in shortest round-trip form; fields are quoted only when needed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for block in _csv_blocks(itertools.chain([header], rows)):
            fh.writelines(block)


def read_json(path, kind: str, fields: Sequence[str]) -> dict:
    """The JSON object in a `kind` file ("model", "partition"), holding every one of `fields`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{kind} file {path} is not valid UTF-8 ({exc.reason})") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FormatError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(
            f"{kind} file {path} must hold a JSON object, got {type(payload).__name__}"
        )
    for key in fields:
        if key not in payload:
            raise FormatError(f"{kind} file {path} is missing field '{key}'")
    return payload


def write_json(path, payload: dict, indent: Optional[int] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=indent) + "\n")


def _embedding_dim(path, header: List[str]) -> int:
    """The vector width d that an embedding CSV's header declares."""
    if header[: len(EMBEDDING_FIXED_COLUMNS)] != EMBEDDING_FIXED_COLUMNS:
        raise FormatError(
            f"{path}: header must start with {','.join(EMBEDDING_FIXED_COLUMNS)}"
        )
    vector_cols = header[len(EMBEDDING_FIXED_COLUMNS):]
    dim = len(vector_cols)
    if dim == 0 or vector_cols != [f"v{i}" for i in range(dim)]:
        raise FormatError(f"{path}: vector columns must be v0..v{{d-1}}, got {vector_cols}")
    return dim


# An embedding CSV parsed: the line number and the six fixed fields of each
# row, and the (rows, d) matrix of their vectors.
ParsedEmbeddings = Tuple[List[int], List[List[str]], np.ndarray]


def _parse_embeddings_per_cell(path) -> ParsedEmbeddings:
    """The general parser: `read_csv`, then Python's `float` for each vector cell."""
    header, rows = read_csv(path)
    dim = _embedding_dim(path, header)
    fixed_count = len(EMBEDDING_FIXED_COLUMNS)
    matrix = np.empty((len(rows), dim), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        try:
            matrix[i] = [float(x) for x in row[fixed_count:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad vector component ({exc})") from exc
    return [lineno for lineno, _ in rows], [row[:fixed_count] for _, row in rows], matrix


# A quote needs the csv module. numpy strips the other four characters around
# a number as whitespace, while Python's `float` rejects them.
_NOT_FOR_BLOCK = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_embedding_block(path) -> Optional[ParsedEmbeddings]:
    """The vector block parsed by one `np.loadtxt`, or None where `float` must decide.

    Each row is split into its six fixed fields and its vector text, and numpy
    parses the vector text of all rows at once, to the values Python's `float`
    gives. A file this cannot take as it is gives None: one that is not UTF-8,
    has a bad header or a quote, a row of fewer than seven fields, a field over
    `csv.field_size_limit()`, a cell numpy does not parse, or a row whose width
    is not the header's.
    """
    fixed_count = len(EMBEDDING_FIXED_COLUMNS)
    limit = csv.field_size_limit()
    linenos: List[int] = []
    fields: List[List[str]] = []

    def vector_texts(fh) -> Iterator[str]:
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue  # a blank line, as `read_csv` skips it
            parts = line.split(",", fixed_count)
            if len(parts) <= fixed_count or any(c in line for c in _NOT_FOR_BLOCK):
                raise ValueError("not a plain row")
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise ValueError("field over the csv field size limit")
            text = parts.pop()
            if not text:
                raise ValueError("no vector text")  # numpy would skip the row
            linenos.append(lineno)
            fields.append(parts)
            yield text

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = fh.readline().rstrip("\r\n")
            if any(c in header for c in _NOT_FOR_BLOCK):
                return None
            dim = _embedding_dim(path, header.split(","))
            texts = vector_texts(fh)
            first = next(texts, None)  # numpy warns on a block of no rows
            matrix = np.empty((0, dim)) if first is None else np.loadtxt(
                itertools.chain([first], texts), delimiter=",", comments=None,
                dtype=np.float64, ndmin=2,
            )
    except (FormatError, ValueError):  # ValueError includes UnicodeDecodeError
        return None
    if matrix.shape != (len(linenos), dim):
        return None
    return linenos, fields, matrix


def load_embeddings(path) -> EmbeddingTable:
    """Parse an embedding CSV into a validated table.

    The vector block goes through numpy in one call; a file it cannot take as
    it is goes through the per-cell parser, which names the line of any error.
    """
    parsed = _parse_embedding_block(path)
    linenos, fields, matrix = parsed if parsed is not None else _parse_embeddings_per_cell(path)
    lineno = 0

    def records():
        nonlocal lineno
        for lineno, (image_id, identity_id, role, target_id, gender, age_group), vector in zip(
            linenos, fields, matrix
        ):
            yield EmbeddingRecord(
                image_id=image_id,
                identity_id=identity_id,
                role=role,
                target_id=target_id or None,
                gender=gender or "unknown",
                age_group=age_group or "unknown",
                vector=vector,
            )

    try:
        return EmbeddingTable._of_rows(records(), matrix)
    except ValidationError as exc:  # an invalid or duplicate record, on the line last read
        raise ValidationError(f"{path}:{lineno}: {exc}") from exc


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Like `write_csv`: the fixed columns quoted by `csv`, each vector cell in `repr` form."""
    header = EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(table.dim or 0)]
    fixed = (
        [rec.image_id, rec.identity_id, rec.role, rec.target_id or "", rec.gender, rec.age_group]
        for rec in table
    )
    lines = itertools.chain.from_iterable(_csv_blocks(itertools.chain([header], fixed)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(next(lines))
        fh.writelines(
            f"{line[:-1]},{','.join(map(repr, row.tolist()))}\n"
            for line, row in zip(lines, table.matrix)
        )


def load_annotations(path) -> List[RawAnnotation]:
    header, rows = read_csv(path)
    if header != ANNOTATION_COLUMNS:
        raise FormatError(f"{path}: header must be {','.join(ANNOTATION_COLUMNS)}")
    annotations = []
    for lineno, row in rows:
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


def save_annotations(annotations: Sequence[RawAnnotation], path) -> None:
    rows = (
        [ann.annotator_id, ann.triplet_id, ann.choice, "true" if ann.is_dummy else "false",
         ann.dummy_answer or ""]
        for ann in annotations
    )
    write_csv(path, ANNOTATION_COLUMNS, rows)


def load_manifest(path) -> Dict[str, Tuple[str, str, str]]:
    """Triplet manifest: triplet_id -> (ref_id, option_a_id, option_b_id)."""
    header, rows = read_csv(path)
    if header != MANIFEST_COLUMNS:
        raise FormatError(f"{path}: header must be {','.join(MANIFEST_COLUMNS)}")
    manifest: Dict[str, Tuple[str, str, str]] = {}
    for lineno, row in rows:
        triplet_id, ref_id, a_id, b_id = row
        if triplet_id in manifest:
            raise ValidationError(f"{path}:{lineno}: duplicate triplet_id '{triplet_id}'")
        manifest[triplet_id] = (ref_id, a_id, b_id)
    return manifest


def save_manifest(manifest: Dict[str, Tuple[str, str, str]], path) -> None:
    write_csv(path, MANIFEST_COLUMNS, ([t, *ids] for t, ids in manifest.items()))


# ---------------------------------------------------------------------------
# Annotator screening and vote aggregation


def validate_annotators(annotations: Sequence[RawAnnotation]) -> Set[str]:
    """Annotators whose every dummy answer is correct.

    Annotators who saw no dummy samples are not admitted: reliability must be
    demonstrated, not assumed.
    """
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
    """Fold raw annotations into per-triplet vote summaries.

    Dummy annotations and votes from invalid annotators are dropped. Triplets
    with fewer than `min_votes` surviving votes, or with tied votes, are kept
    in the output with a rejection marker but belong to no dataset.
    """
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
        rejection = None
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
    """Check that each triplet's three images are swaps onto one target."""
    for sample in samples:
        records = [table[sample.ref_id], table[sample.option_a_id], table[sample.option_b_id]]
        targets = {rec.target_id for rec in records}
        if any(rec.role != "swapped" for rec in records) or len(targets) != 1:
            raise IntegrityError(
                f"triplet '{sample.triplet_id}' must reference swapped records"
                f" sharing one target_id, got targets {sorted(str(t) for t in targets)}"
            )


def build_datasets(samples: Sequence[TripletSample]) -> Dict[str, List[TripletSample]]:
    """D1 = all admitted samples; D2 = admitted samples with unanimous votes."""
    d1 = [s for s in samples if s.admitted]
    d2 = [s for s in d1 if s.consistent]
    if not d2:
        log.warning("no consistent samples: D2 is empty")
    return {"D1": d1, "D2": d2}


# ---------------------------------------------------------------------------
# Evaluation splits


def _triplet_keys(sample: TripletSample, table: EmbeddingTable) -> Tuple[str, Set[str]]:
    records = [table[sample.ref_id], table[sample.option_a_id], table[sample.option_b_id]]
    target = records[0].target_id or records[0].image_id
    sources = {rec.identity_id for rec in records}
    return target, sources


def split_eval(
    samples: Sequence[TripletSample],
    table: EmbeddingTable,
    mode: str,
    ratios: Tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> DatasetPartition:
    """Deterministic train/val/test split honoring a source/target knowledge mode.

    mode "i":   test shares no source identity and no target with train.
    mode "ii":  test shares no target with train; every test source is in train.
    mode "iii": test shares no source with train; every test target is in train.
    """
    if mode not in ("i", "ii", "iii"):
        raise ValidationError(f"unknown split mode '{mode}'")
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ValidationError(f"ratios must be three non-negatives summing to 1, got {ratios}")
    admitted = [s for s in samples if s.admitted]
    if not admitted:
        raise InfeasibleSplitError("no admitted samples to split")

    keys = {s.triplet_id: _triplet_keys(s, table) for s in admitted}
    rng = random.Random(seed)

    if mode in ("i", "ii"):
        splits = _split_by_target(admitted, keys, mode, ratios, rng)
    else:
        splits = _split_mode_iii(admitted, keys, ratios, rng)
    train, val, test = (sorted(s.triplet_id for s in split) for split in splits)
    partition = DatasetPartition(mode, seed, tuple(ratios), train, val, test)

    violations = audit_partition(admitted, table, partition)
    if violations:
        raise InfeasibleSplitError(
            "split construction failed its own audit: " + "; ".join(violations)
        )
    return partition


def _split_by_target(admitted, keys, mode, ratios, rng) -> Tuple[List[TripletSample], ...]:
    by_target: Dict[str, List[TripletSample]] = {}
    for s in admitted:
        by_target.setdefault(keys[s.triplet_id][0], []).append(s)
    targets = sorted(by_target)
    rng.shuffle(targets)

    total = len(admitted)
    test_quota = max(1, round(ratios[2] * total))
    val_quota = round(ratios[1] * total)
    test_t, val_t, train_t = [], [], []
    assigned = 0
    for t in targets:
        n = len(by_target[t])
        if assigned < test_quota:
            test_t.append(t)
        elif assigned < test_quota + val_quota:
            val_t.append(t)
        else:
            train_t.append(t)
        assigned += n
    if not train_t:
        raise InfeasibleSplitError(
            f"mode [{mode}]: not enough distinct targets to populate a train split"
        )

    train = [s for t in train_t for s in by_target[t]]
    val = [s for t in val_t for s in by_target[t]]
    test_pool = [s for t in test_t for s in by_target[t]]
    train_sources = set().union(*(keys[s.triplet_id][1] for s in train))

    if mode == "i":
        test = [s for s in test_pool if not (keys[s.triplet_id][1] & train_sources)]
        if not test:
            raise InfeasibleSplitError(
                "mode [i]: every candidate test triplet shares a source identity with train"
            )
    else:
        test = [s for s in test_pool if keys[s.triplet_id][1] <= train_sources]
        if not test:
            raise InfeasibleSplitError(
                "mode [ii]: no candidate test triplet has all its source identities in train"
            )
    return train, val, test


def _split_mode_iii(admitted, keys, ratios, rng) -> Tuple[List[TripletSample], ...]:
    targets = {keys[s.triplet_id][0] for s in admitted}
    if len(targets) < 2:
        raise InfeasibleSplitError(
            "mode [iii]: corpus has a single target; the sole target cannot be both"
            " held out and present in training"
        )
    pool = list(admitted)
    quota = max(1, round(ratios[2] * len(admitted)))
    n_sources = len(set().union(*(keys[s.triplet_id][1] for s in admitted)))
    source_budget = max(3, round(ratios[2] * n_sources))

    best = None
    for _ in range(20):
        rng.shuffle(pool)
        held_out: Set[str] = set()
        test_candidates = []
        for s in pool:
            if len(test_candidates) >= quota:
                break
            grown = held_out | keys[s.triplet_id][1]
            if len(grown) > source_budget and test_candidates:
                continue
            test_candidates.append(s)
            held_out = grown
        test_ids = {s.triplet_id for s in test_candidates}
        train = [
            s
            for s in pool
            if s.triplet_id not in test_ids and not (keys[s.triplet_id][1] & held_out)
        ]
        train_targets = {keys[s.triplet_id][0] for s in train}
        test = [s for s in test_candidates if keys[s.triplet_id][0] in train_targets]
        if train and test:
            best = (train, test)
            break
    if best is None:
        raise InfeasibleSplitError(
            "mode [iii]: no source hold-out yields test triplets whose targets"
            " also appear in training"
        )
    train, test = best

    # carve the validation set out of train, keeping every test target covered
    val_quota = round(ratios[1] * len(admitted))
    needed = {keys[s.triplet_id][0] for s in test}
    covered: Dict[str, int] = {}
    for s in train:
        t = keys[s.triplet_id][0]
        if t in needed:
            covered[t] = covered.get(t, 0) + 1
    val = []
    remaining = []
    for s in train:
        t = keys[s.triplet_id][0]
        movable = t not in needed or covered.get(t, 0) > 1
        if len(val) < val_quota and movable:
            val.append(s)
            if t in needed:
                covered[t] -= 1
        else:
            remaining.append(s)
    return remaining, val, test


def audit_partition(
    samples: Sequence[TripletSample],
    table: EmbeddingTable,
    partition: DatasetPartition,
) -> List[str]:
    """Independent set-intersection audit of a partition's mode constraints.

    Deliberately recomputes everything from raw records; shares no logic with
    the splitter. Returns a list of violation descriptions (empty = pass).
    """
    by_id = {s.triplet_id: s for s in samples}

    def bucket_sets(ids):
        targets: Set[str] = set()
        sources: Set[str] = set()
        per_sample = []
        for tid in ids:
            sample = by_id[tid]
            recs = [table[sample.ref_id], table[sample.option_a_id], table[sample.option_b_id]]
            t = recs[0].target_id or recs[0].image_id
            srcs = {r.identity_id for r in recs}
            targets.add(t)
            sources |= srcs
            per_sample.append((tid, t, srcs))
        return targets, sources, per_sample

    violations = []
    splits = (set(partition.train), set(partition.val), set(partition.test))
    for a, b, name in (
        (splits[0], splits[1], "train/val"),
        (splits[0], splits[2], "train/test"),
        (splits[1], splits[2], "val/test"),
    ):
        if a & b:
            violations.append(f"{name} overlap: {sorted(a & b)[:5]}")

    train_targets, train_sources, _ = bucket_sets(partition.train)
    test_targets, test_sources, test_detail = bucket_sets(partition.test)

    if partition.mode == "i":
        if train_targets & test_targets:
            violations.append(f"shared targets: {sorted(train_targets & test_targets)[:5]}")
        if train_sources & test_sources:
            violations.append(f"shared sources: {sorted(train_sources & test_sources)[:5]}")
    elif partition.mode == "ii":
        if train_targets & test_targets:
            violations.append(f"shared targets: {sorted(train_targets & test_targets)[:5]}")
        for tid, _, srcs in test_detail:
            if not srcs <= train_sources:
                violations.append(f"test triplet '{tid}' has sources unseen in train")
    elif partition.mode == "iii":
        if train_sources & test_sources:
            violations.append(f"shared sources: {sorted(train_sources & test_sources)[:5]}")
        for tid, t, _ in test_detail:
            if t not in train_targets:
                violations.append(f"test triplet '{tid}' target '{t}' not in train")
    else:
        violations.append(f"unknown mode '{partition.mode}'")
    return violations
