"""Ingestion and curation of embedding tables and triplet annotations.

Covers the CSV and JSON file formats, dummy-sample annotator screening,
majority-vote aggregation, the all-data / consistent-only training sets, and
the source/target-aware evaluation splits with an independent audit.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import os
import stat
from collections import deque
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


def check_seed(seed: int) -> None:
    """A seed is >= 0; every seeded draw comes from `np.random.default_rng(seed)`."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def _label_error(
    image_id: str, role: str, target_id: Optional[str], gender: str, age_group: str
) -> Optional[str]:
    """Why a record's labels are invalid, or None: the one home of the label rules."""
    if role not in ROLES:
        return f"record '{image_id}': unknown role '{role}'"
    if gender not in GENDERS:
        return f"record '{image_id}': unknown gender '{gender}'"
    if age_group not in AGE_GROUPS:
        return f"record '{image_id}': unknown age_group '{age_group}'"
    if role == "swapped" and not target_id:
        return f"swapped record '{image_id}' is missing target_id"
    return None


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """One row of an `EmbeddingTable`, unchecked: a table checks its rows (`EmbeddingTable.of`)."""

    image_id: str
    identity_id: str
    role: str
    target_id: Optional[str]
    gender: str
    age_group: str
    vector: np.ndarray


# The six label columns of a table, in `EMBEDDING_FIXED_COLUMNS` order
Columns = Tuple[Tuple[Optional[str], ...], ...]


def _first_invalid_row(columns: Columns, matrix: np.ndarray) -> Optional[Tuple[int, str]]:
    """The first row that is invalid, and why; None when every row is valid.

    A row is invalid for its labels, then for a non-finite or zero vector, then
    for an `image_id` an earlier row holds. The whole table is checked with a
    few set and array operations, and only a table that fails is walked row by
    row to name the first bad row.
    """
    image_ids, _, roles, target_ids, genders, age_groups = columns
    finite = np.isfinite(matrix).all(axis=1)
    bad_vector = ~(finite & matrix.any(axis=1))
    kinds = set(zip(roles, map(bool, target_ids), genders, age_groups))
    if (
        not bad_vector.any()
        and len(set(image_ids)) == len(image_ids)
        and not any(_label_error("", *kind) for kind in kinds)
    ):
        return None  # the usual case, decided without a walk over the rows
    seen: Set[str] = set()
    for row, labels in enumerate(zip(image_ids, roles, target_ids, genders, age_groups)):
        image_id = labels[0]
        error = _label_error(*labels)
        if error is None and bad_vector[row]:
            what = "non-finite vector component" if not finite[row] else "zero vector"
            error = f"record '{image_id}': {what}"
        if error is None and image_id in seen:
            error = f"duplicate image_id '{image_id}'"
        if error is not None:
            return row, error
        seen.add(image_id)
    return None


class EmbeddingTable:
    """Duplicate-free embedding rows: a read-only (n, d) float64 `matrix` and label columns.

    Row i of `matrix` holds the i-th vector, and row i of the six `columns`,
    in `EMBEDDING_FIXED_COLUMNS` order, its labels: `image_ids`,
    `identity_ids`, `roles`, `target_ids` (None where there is none),
    `genders` and `age_groups`, as `EmbeddingRecord` names them. Labels, finite
    non-zero rows and unique ids are checked once over the whole table; the
    first invalid row raises `ValidationError`, its `row` set. Records are
    built on each iteration or lookup, each `vector` a read-only view of its
    row, and not kept; `load_embeddings` and `synth` build none.
    """

    def __init__(self, columns: Columns, matrix: np.ndarray):
        invalid = _first_invalid_row(columns, matrix)
        if invalid is not None:
            error = ValidationError(invalid[1])
            error.row = invalid[0]
            raise error
        matrix.setflags(write=False)
        self.matrix = matrix
        (self.image_ids, self.identity_ids, self.roles, self.target_ids, self.genders,
         self.age_groups) = columns
        self._rows: Dict[str, int] = dict(zip(self.image_ids, itertools.count()))

    @classmethod
    def of(cls, records: Sequence[EmbeddingRecord]) -> "EmbeddingTable":
        """One table of the records' labels and stacked vectors."""
        columns = tuple(tuple(getattr(record, name) for record in records)
                        for name in EMBEDDING_FIXED_COLUMNS)
        try:
            matrix = np.array([record.vector for record in records], dtype=np.float64)
            matrix = matrix.reshape(len(records), -1 if records else 0)
        except ValueError:
            raise ValidationError("record vectors must all have one dimension") from None
        return cls(columns, matrix)

    @property
    def dim(self) -> int:
        """The vector width."""
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self._rows)

    def _record(self, row: int) -> EmbeddingRecord:
        """A new record of this row: its six labels, and its vector a view of the row."""
        return EmbeddingRecord(self.image_ids[row], self.identity_ids[row], self.roles[row],
                               self.target_ids[row], self.genders[row], self.age_groups[row],
                               self.matrix[row])

    def __iter__(self) -> Iterator[EmbeddingRecord]:
        return map(self._record, range(len(self)))

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._rows

    def row(self, image_id: str) -> int:
        """The row of `matrix` and of the columns that holds this image."""
        try:
            return self._rows[image_id]
        except KeyError:
            raise IntegrityError(f"unknown image_id '{image_id}'") from None

    def __getitem__(self, image_id: str) -> EmbeddingRecord:
        return self._record(self.row(image_id))

    def take(self, rows: Sequence[int]) -> "EmbeddingTable":
        """A table of these rows, in this order."""
        columns = (self.image_ids, self.identity_ids, self.roles, self.target_ids, self.genders,
                   self.age_groups)
        return EmbeddingTable(tuple(tuple(map(c.__getitem__, rows)) for c in columns),
                              self.matrix[rows])


def _annotation_error(
    annotator_id: str, triplet_id: str, choice: str, is_dummy: bool, dummy_answer: Optional[str]
) -> Optional[str]:
    """Why an annotation is invalid, or None: the one home of the annotation rules."""
    if choice not in CHOICES:
        return (f"annotation by '{annotator_id}' on '{triplet_id}':"
                f" choice must be A or B, got '{choice}'")
    if is_dummy and dummy_answer not in CHOICES:
        return f"dummy annotation on '{triplet_id}' is missing its dummy_answer"
    return None


class AnnotationTable:
    """Annotation rows as columns: `annotator_ids`, `triplet_ids`, `choices` and
    `dummy_answers` (None where there is none) as tuples, `is_dummy` and `is_a`
    (the row chose A) as bool arrays.

    Every row is checked once, by `_annotation_error`; the first invalid
    row raises `ValidationError`, its `row` set. `annotators` holds the
    distinct annotator ids, sorted, and `annotator_codes` each row's index into
    it, found with a dict: numpy string arrays drop trailing NULs.
    """

    def __init__(self, annotator_ids: Sequence[str], triplet_ids: Sequence[str],
                 choices: Sequence[str], is_dummy: Sequence[bool],
                 dummy_answers: Sequence[Optional[str]]):
        columns = (annotator_ids, triplet_ids, choices, is_dummy, dummy_answers)
        # two set checks decide the usual table; only a failing one is walked
        if not (set(choices) <= set(CHOICES)
                and set(itertools.compress(dummy_answers, is_dummy)) <= set(CHOICES)):
            row, message = next((row, message) for row, fields in enumerate(zip(*columns))
                                if (message := _annotation_error(*fields)))
            error = ValidationError(message)
            error.row = row
            raise error
        self.annotator_ids, self.triplet_ids, self.choices = annotator_ids, triplet_ids, choices
        self.dummy_answers = dummy_answers
        self.is_dummy = np.array(is_dummy, dtype=bool)
        self.is_a = np.fromiter(map("A".__eq__, choices), bool, len(choices))
        self.annotators = tuple(sorted(set(annotator_ids)))
        index = dict(zip(self.annotators, itertools.count()))
        self.annotator_codes = np.fromiter(map(index.__getitem__, annotator_ids), np.intp,
                                           len(annotator_ids))

    def screened(self) -> np.ndarray:
        """Per annotator, whether they answered dummy samples and every one correctly.

        Annotators who saw no dummy samples are not admitted: reliability must be
        demonstrated, not assumed.
        """
        dummy = self.is_dummy.tolist()
        wrong = np.array([choice != answer for choice, answer in zip(
            itertools.compress(self.choices, dummy), itertools.compress(self.dummy_answers, dummy))],
            dtype=bool)
        codes, k = self.annotator_codes[self.is_dummy], len(self.annotators)
        return (np.bincount(codes, minlength=k) > 0) & (np.bincount(codes[wrong], minlength=k) == 0)


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
# File formats: every file facesim reads or writes goes through these helpers


def read_csv(path) -> Tuple[List[str], List[int], List[List[str]]]:
    """Header, line numbers and rows of fields of a UTF-8 CSV file, blank lines skipped.

    A row whose width differs from the header's, malformed CSV and non-UTF-8
    bytes raise `FormatError` naming the path, and the line where it is exact.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            linenos, rows = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields,"
                        f" got {len(row)}"
                    )
                linenos.append(reader.line_num)
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return header, linenos, rows


def _csv_lines(rows: Iterable[Sequence]) -> List[str]:
    """The rows as CSV lines ending in "\\n".

    `csv` quotes a field holding a character of its line terminator and no
    other line break, so rows are written with a CR LF end, which quotes a field
    holding either one, and that end is then swapped for LF.
    """
    lines: List[str] = []
    # the writer makes one `write` call per row
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return [line[:-2] + "\n" for line in lines]


def _quoted(column: Sequence) -> Iterator[str]:
    """Each field of a column as `csv` writes it within a row of several fields.

    Each distinct value is quoted once, beside an empty field: `csv` writes a
    lone empty field as `""`. Only the texts that differ from their value are kept."""
    distinct = list(dict.fromkeys(column))
    lines = _csv_lines([value, ""] for value in distinct)
    text = {value: line[:-2] for value, line in zip(distinct, lines) if line[:-2] != value}
    return map(text.get, column, column)


def write_table(path, header: Sequence[str], columns: Sequence) -> None:
    """A CSV file: `header`, then one row per entry, the entry of each column in turn;
    columns of unequal length raise ValueError before the file is opened. A column is a
    sequence of labels, strings, ints or None (empty), quoted by `csv` (`_quoted`), or a
    2-D float64 array, one field per array column, in `repr`'s text (`_repr_rows`).
    Floats go in arrays only: `_quoted` dedupes by value, which merges `-0.0` with `0.0`."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"{path}: columns of unequal length")
    fields = [_repr_rows(path, column, b",") if isinstance(column, np.ndarray)
              else _quoted(column) for column in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_lines([header]))
        # a lone empty field as `csv` writes it; `strict` runs `_repr_rows` on to its log
        fh.writelines((",".join(row) or '""') + "\n" for row in zip(*fields, strict=True))


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
    """`payload` as one JSON object. Written without `indent`, a 2-D float64 array
    in it is one flat row-major list of its floats, formatted by `_repr_rows`,
    in the same text as `json.dumps` gives for `array.reshape(-1).tolist()`.
    The array's rows are written as they are formatted, so no text of the
    whole array is held."""
    with open(path, "w", encoding="utf-8") as fh:
        if indent is not None:
            fh.write(json.dumps(payload, indent=indent) + "\n")
            return
        fh.write("{")
        for n, (key, value) in enumerate(payload.items()):
            fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            if isinstance(value, np.ndarray):
                rows = _repr_rows(path, value, b", ")
                fh.write("[")
                fh.writelines(itertools.chain(itertools.islice(rows, 1),
                                              (", " + row for row in rows)))
                fh.write("]")
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")


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


# An embedding CSV parsed: the line number of each row (the block parser takes no
# blank line), the six fixed fields as columns, as the file holds them, and the
# (rows, d) matrix of the vectors.
ParsedEmbeddings = Tuple[Sequence[int], Columns, np.ndarray]


def _parse_embeddings_per_cell(path) -> ParsedEmbeddings:
    """The general parser: `read_csv`, then Python's `float` for each vector cell."""
    header, linenos, rows = read_csv(path)
    dim = _embedding_dim(path, header)
    fixed_count = len(EMBEDDING_FIXED_COLUMNS)
    matrix = np.empty((len(rows), dim), dtype=np.float64)
    for i, (lineno, row) in enumerate(zip(linenos, rows)):
        try:
            matrix[i] = [float(x) for x in row[fixed_count:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad vector component ({exc})") from exc
    columns = tuple(zip(*(row[:fixed_count] for row in rows))) or ((),) * fixed_count
    return linenos, columns, matrix


# A vector block holds at most this many cells, so the text and the numbers of
# a few blocks are all that a load holds beside the matrix
_BLOCK_CELLS = 1 << 12

# The bytes of decimal numbers: a vector text holds only these and commas.
# Others (whitespace, `_`, hex, `inf`, `nan`) are left to the per-cell parser.
_NUMBER_BYTES = b"0123456789.eE+-"

# `np.fromstring` reads `longdouble` with the C library's correctly rounded
# `strtold`. Where that is x87 extended precision (a 64-bit significand) a block
# is read so and rounded to float64, and `_round_to_float64` finds the cells
# where that second rounding can differ from `float`. Elsewhere the per-cell
# parser is faster than any block read.
_X87 = np.finfo(np.longdouble).nmant == 63

_SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal

# Vector blocks are parsed by the calling thread and one more thread per other
# CPU this process may run on; `fromstring` releases the GIL
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# A file is read this many bytes at a time: less than glibc's first mmap
# threshold, so freeing a read does not raise it and keep more memory resident
_READ_BYTES = 1 << 16


def _round_to_float64(values: np.ndarray, texts: List[bytes], dim: int) -> np.ndarray:
    """The float64 array of `values`, read from the cells of `texts`, bit-equal to `float`.

    Rounding a decimal to 64 bits and then to 53 gives the double nearest to it,
    as `float` does, unless the first rounding lands on a midpoint between two
    adjacent doubles (Clinger, "How to Read Floating Point Numbers Accurately",
    PLDI 1990), where the 64-bit significand ends in the bits 10000000000.
    Subnormal doubles are spaced more widely, so their midpoints lie elsewhere.
    Those cells, and zeros from underflow, are read again with `float`: fewer
    than one in a thousand of `repr` text. Overflow needs no check of its own:
    past the threshold both reads give inf, and the threshold is a midpoint.
    """
    with np.errstate(over="ignore"):  # to inf, as `float` reads it
        rounded = values.astype(np.float64)
    # x87 holds the 64-bit significand in the first 8 bytes of each value
    significand = np.ndarray(values.shape, np.uint64, values, strides=(values.itemsize,))
    again = ((significand & 0x7FF) == 0x400) | (
        ~(np.abs(rounded) > _SMALLEST_NORMAL) & (values != 0)
    )
    for cell in np.flatnonzero(again).tolist():
        row, col = divmod(cell, dim)
        rounded[cell] = float(texts[row].split(b",", col + 1)[col])
    return rounded


def _vector_block(texts: List[bytes], dim: int) -> np.ndarray:
    """The (len(texts), dim) float64 matrix of vector texts, as `float` reads each cell.

    Raises ValueError, saying why, for a block this does not take as it is.
    """
    # `fromstring` skips whitespace before a separator, so "\n" may mark where
    # each row ends, and one pass checks every row's bytes and commas
    block = b"\n,".join(texts)
    shape = block.translate(None, _NUMBER_BYTES)
    if shape != b"\n,".join([b"," * (dim - 1)] * len(texts)):
        raise ValueError("a byte other than 0-9 . e E + - ," if shape.translate(None, b",\n")
                         else "a row whose width is not the header's")
    try:
        values = np.fromstring(block, dtype=np.longdouble, sep=",")
    except ValueError:
        values = None
    if values is None or values.size != len(texts) * dim:
        raise ValueError("text numpy does not parse")
    return _round_to_float64(values, texts, dim).reshape(len(texts), dim)


# A float block is formatted in pieces of about this many cells
_FORMAT_CELLS = 1 << 13

# 10**p is exact in float64 for p <= 22, and fits int64 for p <= 18
_POW10 = 10.0 ** np.arange(23)
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# fl(10**j) for j = -4..16; those of j < 0 lie above 10**j, so for every
# double x, x >= fl(10**j) exactly when x >= 10**j
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 17)])
# Doubles whose `repr` is positional, "0.0001" to "9999999999999998.0"
_POSITIONAL = (1e-4, 1e16)
_SPLITTER = 134217729.0  # 2**27 + 1
_EXPONENT = np.uint64(0x7FF << 52)
_MANTISSA = np.uint64((1 << 52) - 1)


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`a` as high + low, each with at most 26 significant bits (Dekker, 1971)."""
    t = a * _SPLITTER
    high = t - (t - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@functools.cache
def _digit_words() -> Tuple[np.ndarray, np.ndarray]:
    """The 4-digit groups "0000".."9999", and a lone digit after three NULs, each
    as one 32-bit word. Built on first use, as are the cell layouts, so that
    importing costs nothing."""
    n = np.arange(10000)
    groups = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    leads = np.zeros((10, 4), np.int64)
    leads[:, 3] = n[:10] + ord("0")
    return tuple(_read_only(table.astype(np.uint8).view(np.uint32).ravel())
                 for table in (groups, leads))


# The layout row of a cell written by `repr`, which is empty
_BY_REPR = 2 * 20 * 18


@functools.cache
def _cell_layouts() -> Tuple[np.ndarray, np.ndarray]:
    """The digit masks and the fixed characters of each positional cell layout.

    A cell is 44 bytes, as 11 words. Bytes 0-19 are the sign, two NULs and
    the 17 digits (bytes 3-19), of which the integer part is kept; bytes 20-39
    are three leading fraction zeros and the 17 digits again (bytes 23-39), of
    which the fraction is kept. A "0" before the point goes in the first digit's
    place, the point in the last one's, and the "0" of an integer's ".0" in
    the first fraction digit's. Bytes 40-43 are the separator. Row
    (negative * 20 + e + 4) * 18 + k is the layout of the k-digit text whose
    first digit stands for 10**e; row `_BY_REPR` is empty.
    """
    e = np.arange(-4, 16)[:, None, None]
    k = np.arange(18)[:, None]
    byte = np.arange(44)
    integer = np.maximum(e + 1, 0)  # how many digits lie before the point
    digit = (((3 <= byte) & (byte < 3 + integer))
             | ((23 + integer <= byte) & (byte < 23 + k)))
    zero = (((e < 0) & ((byte == 3) | ((20 <= byte) & (byte < 19 - e))))
            | ((k <= e + 1) & (byte == 23)))
    chars = np.where(zero, ord("0"), np.where(byte == 19, ord("."), 0))
    chars = np.stack([chars, np.where(byte == 0, ord("-"), chars)])
    masks = np.broadcast_to(np.where(digit, 0xFF, 0), chars.shape)
    empty = np.zeros((1, 44), np.int64)
    return tuple(_read_only(np.concatenate([table.reshape(-1, 44), empty])
                            .astype(np.uint8).view(np.uint32)) for table in (masks, chars))


def _shortest_digits(y: np.ndarray):
    """The digits of `repr` for each y in [1e-4, 1e16): as (e, k, digits,
    by_repr), the k-digit text whose first digit stands for 10**e, its digits
    as a 17-digit integer, and where `repr` must write the cell instead.

    Each y is scaled by 10**(16 - e), for e = floor(log10 y), as an exact
    float64 two-product (Dekker), into a 17-digit integer and its remainder.
    Its shortest `repr` digits (Steele and White, "How to Print Floating-Point
    Numbers Accurately", PLDI 1990) are the fewest digits k for which a k-digit
    decimal reads back as y: the one below or above y lies closer than half
    the gap to the next double on its side. Round-tripping is monotone in k,
    so k is found by a binary search, in int64 and exact float64 arithmetic
    only. Among two k-digit decimals that both read back, the nearer is the
    one `repr` gives. Where a decimal lies exactly on half a gap, or two lie
    equally near, or the digits carry to 10**k, `repr` writes the cell.
    """
    e = np.clip(np.floor(np.log10(y)), -4, 15).astype(np.int64)  # off by at most one
    e += (y >= _DECADES[e + 5]).astype(np.int64) - (y < _DECADES[e + 4])
    p = 16 - e
    scale, scale_high, scale_low = _POW10[p], _POW10_HIGH[p], _POW10_LOW[p]
    y_high, y_low = _split(y)
    product = y * scale
    remainder = ((y_high * scale_high - product) + y_high * scale_low
                 + y_low * scale_high) + y_low * scale_low
    # y * 10**p = whole + fraction exactly; rounding leaves it in [1e16, 1e17)
    by_repr = (product < 1e16) | (product >= 1e17) | ((product == 1e16) & (remainder < 0))
    floor = np.floor(remainder)
    whole = product.astype(np.int64) + floor.astype(np.int64)
    fraction = remainder - floor
    # half the gaps to the next doubles above and below, scaled alike; below a
    # power of two the gap is half as wide
    bits = y.view(np.uint64)
    above = ((bits & _EXPONENT) - np.uint64(53 << 52)).view(np.float64) * scale
    below = np.where(bits & _MANTISSA, above, above * 0.5)

    def distances(k, cells=slice(None)):
        """The k-digit unit, and the distances from these cells' values up from the
        k-digit decimal below and down to the one above, in scaled units."""
        unit = _POW10_INT[17 - k]
        rest = whole[cells] - whole[cells] // unit * unit
        return unit, rest, rest + fraction[cells], (unit - rest) - fraction[cells]

    def fits(k, cells=slice(None)):
        """Whether a k-digit decimal reads back as each of these cells' value."""
        _, _, down, up = distances(k, cells)
        fit = (down < below[cells]) | (up < above[cells])
        # a decimal on half a gap reads back as y only if y is even
        by_repr[cells] |= ~fit & ((down == below[cells]) | (up == above[cells]))
        return fit

    # 17 digits always read back, and most cells need 16 or 17: 16 and 15 are
    # tried on every cell, and a binary search over 1-15 finds the rest
    k = np.full(y.size, 17, np.int64)
    for fewer in (16, 15):
        k[fits(fewer) & (k == fewer + 1)] = fewer
    search = np.flatnonzero(k == 15)
    low, high = np.ones(search.size, np.int64), k[search]
    for _ in range(4):
        mid = (low + high) >> 1
        fit = fits(mid, search)
        high = np.where(fit, mid, high)
        low = np.where(fit, low, mid + 1)
    k[search] = high
    unit, rest, down, up = distances(k)
    fits_down, fits_up = down < below, up < above
    round_up = fits_up & (~fits_down | (up < down))
    by_repr |= (~(fits_down | fits_up) | (fits_down & fits_up & (up == down))
                | ((down == below) & (down <= up)) | ((up == above) & (up <= down)))
    digits = whole - rest + np.where(round_up, unit, 0)
    by_repr |= digits >= 10 ** 17
    return e, k, digits, by_repr


def _repr_block(block: np.ndarray, sep: bytes) -> Tuple[str, int, int]:
    """The cells of a 2-D float64 block as `repr` writes each one, `sep` (one or two
    bytes) after each cell but the last of a row, and "\\n" after that one.

    Also the numbers of cells written by `repr` outside [1e-4, 1e16), and within
    it on an exact tie, half a gap or a carry to 10**k. The digits come from
    `_shortest_digits`; `0.0` and `-0.0` are laid out as the one digit 0 before
    the point. Each cell's digits and fixed characters are laid out in 44
    bytes (see `_cell_layouts`), its unused bytes NUL, which are deleted at
    the end.
    """
    rows, dim = block.shape
    x = block.reshape(-1)
    ax = np.abs(x)
    positional = (ax >= _POSITIONAL[0]) & (ax < _POSITIONAL[1])
    zero = ax == 0
    outside = ~(positional | zero)
    # zeros and cells outside start as 0.0 is laid out, and only the others
    # are searched, so a table of mostly zeros costs little
    e, k, digits = np.zeros(x.size, np.int64), np.ones(x.size, np.int64), np.zeros(x.size, np.int64)
    by_repr = outside.copy()
    searched = np.flatnonzero(positional)
    e[searched], k[searched], digits[searched], by_repr[searched] = _shortest_digits(ax[searched])
    code = (np.signbit(x) * 20 + e + 4) * 18 + k
    code[by_repr] = _BY_REPR
    digits[by_repr] = 0  # a carry to 10**17 would index past the lead digits

    # the 17 digits as 5 words, twice: a lead digit after three NULs, then 4
    # groups of 4
    masks, chars = _cell_layouts()
    digit_groups, leads = _digit_words()
    words = np.empty((x.size, 11), np.uint32)
    top = digits // 10 ** 8
    lead = top // 10 ** 8
    groups = [leads[lead]]
    for part in (top - lead * 10 ** 8, digits - top * 10 ** 8):
        upper = part // 10 ** 4
        groups += [digit_groups[upper], digit_groups[part - upper * 10 ** 4]]
    for column, group in enumerate(groups):
        words[:, column] = words[:, column + 5] = group
    cells = np.take(masks, code, axis=0)
    cells &= words
    cells |= np.take(chars, code, axis=0)
    ends = np.frombuffer(sep.ljust(4, b"\0") + b"\n\0\0\0", np.uint32)
    cells[:, 10] = ends[0]
    cells.reshape(rows, dim, 11)[:, -1, 10] = ends[1]
    fallback = np.flatnonzero(by_repr)
    if fallback.size:  # the longest `repr` of a float is 24 bytes
        texts = np.array([repr(v).encode() for v in x[fallback].tolist()], dtype="S40")
        cells.view(np.uint8)[fallback, :40] = texts.view(np.uint8).reshape(-1, 40)
    text = cells.tobytes().translate(None, b"\0").decode()
    n_outside = int(np.count_nonzero(outside))
    return text, n_outside, fallback.size - n_outside


def _repr_rows(path, matrix: np.ndarray, sep: bytes) -> Iterator[str]:
    """The rows of a 2-D float64 matrix as `_repr_block` writes them, without "\\n",
    formatted a piece of about `_FORMAT_CELLS` cells at a time. When the rows
    are done, how many cells `repr` wrote, and why, is logged at debug level."""
    step = max(1, _FORMAT_CELLS // max(matrix.shape[1], 1))
    outside = other = 0
    for start in range(0, len(matrix), step):
        text, piece_outside, piece_other = _repr_block(matrix[start:start + step], sep)
        outside, other = outside + piece_outside, other + piece_other
        yield from text.split("\n")[:-1]
    if outside or other:
        log.debug("%s: writing %d of %d cells with repr: %d with |x| outside [1e-4, 1e16),"
                  " %d on an exact tie, half a gap or a carry", path, outside + other,
                  matrix.size, outside, other)


def _without_crs(lines: List[bytes]) -> List[bytes]:
    """`lines` less the CR of each CR LF line end, or ValueError for any other CR."""
    lines = [line[:-1] if line.endswith(b"\r") else line for line in lines]
    if any(b"\r" in line for line in lines):
        raise ValueError("a carriage return that does not end a line, which csv reads as one")
    return lines


def _count_lines(fh) -> int:
    """The b"\\n" bytes in the rest of `fh`, or ValueError if it ends with another byte.

    numpy counts them several times faster than `bytes.count`.
    """
    lines = 0
    last = b"\n"  # the file's last byte, or the header's line end
    while data := fh.read(_READ_BYTES):
        lines += int(np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n")))
        last = data[-1:]
    if last != b"\n":
        raise ValueError("a last line with no line end")
    return lines


def _read_lines(fh) -> Iterator[List[bytes]]:
    """The whole lines of the rest of `fh`, without line ends, a list per read.

    Raises ValueError for a quote or a carriage return that does not end a line.
    """
    pending: List[bytes] = []  # reads since the last line end, so a long line is joined once
    while data := fh.read(_READ_BYTES):
        if b'"' in data:
            raise ValueError("a quote, which needs the csv module")
        pending.append(data)
        if b"\n" in data:
            data = b"".join(pending)
            # `find` runs `memchr`, many times faster than `split` on long lines
            lines, start, find = [], 0, data.find
            while (end := find(b"\n", start)) >= 0:
                lines.append(data[start:end])
                start = end + 1
            pending = [data[start:]]
            yield _without_crs(lines) if b"\r" in data else lines


def _vector_texts(fh, dim: int, fields: List[bytes]) -> Iterator[List[bytes]]:
    """The vector texts of the rest of `fh`'s lines, one row per line, in blocks of
    up to `_BLOCK_CELLS` cells, each row's six fixed fields (as bytes, up to the
    sixth comma) appended to `fields` first. Raises ValueError, saying why, for
    a line this does not take as a row as it is, a blank one among them."""
    fixed_count = len(EMBEDDING_FIXED_COLUMNS)
    limit = csv.field_size_limit()  # in characters, so a field of more bytes defers
    per_block = max(1, _BLOCK_CELLS // dim)
    texts: List[bytes] = []
    for lines in _read_lines(fh):
        for line in lines:
            if not line:
                raise ValueError("a blank line, which csv skips")
            parts = line.split(b",", fixed_count)
            if len(parts) <= fixed_count:
                raise ValueError(f"a row of fewer than {fixed_count + 1} fields")
            if len(line) > limit and max(map(len, line.split(b","))) > limit:
                raise ValueError("a field over the csv field size limit")
            text = parts[fixed_count]
            if not text:
                raise ValueError("a row with no vector text")
            if text.endswith(b","):  # `fromstring` reads 0 there, or nothing at a block's end
                raise ValueError("a row whose last vector cell is empty")
            fields.append(line[:len(line) - len(text) - 1])
            texts.append(text)
            if len(texts) == per_block:
                yield texts
                texts = []
    if texts:
        yield texts


def _parse_embedding_block(path) -> Optional[ParsedEmbeddings]:
    """The vector block parsed by numpy, or None where `float` must decide.

    It takes one row per line, with LF or CR LF ends and one after the last
    row. A regular file is opened once: a first pass counts its lines, so the
    matrix is allocated once with a row per line (row i is line i + 2), and a
    second pass splits each row into its six fixed fields and its vector text.
    The vector texts of rows holding up to `_BLOCK_CELLS` cells are parsed at
    once, to the values Python's `float` gives, into their rows of the matrix:
    by a pool of `_CPUS - 1` threads while fewer than two blocks a thread wait
    there, else, and for the last block, by the calling thread, so a file of
    one block starts no thread. The result does not depend on the number of
    threads. A file replaced at the path after it is opened is read as the one
    opened. A file this cannot take as it is gives None, and the reason is
    logged at debug level, the first failing block's before a later line's:
    any file where `longdouble` is not x87, one that is not a regular file (so
    it is read once, by the per-cell parser), is not UTF-8, has a bad header,
    a blank line, a last line with no line end, a quote, a carriage return
    that does not end a line, a row of fewer than seven fields, a field over
    `csv.field_size_limit()`, no vector text, a byte that is not in a decimal
    number or a comma, a row whose width is not the header's or whose last
    vector cell is empty, text numpy does not parse, or one whose lines
    changed in number while it was read. Any other error is raised.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at the top: ~7 ms to import

    try:
        if not _X87:
            raise ValueError("longdouble is not x87 extended precision")
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValueError("not a regular file, so it is read only once")
        with open(path, "rb") as fh:
            header = _without_crs([fh.readline().removesuffix(b"\n")])[0]
            if b'"' in header:
                raise ValueError("a quote, which needs the csv module")
            dim = _embedding_dim(path, header.decode().split(","))
            start = fh.tell()
            matrix = np.empty((_count_lines(fh), dim))
            fh.seek(start)
            fields: List[bytes] = []

            def parse(row: int, texts: List[bytes]) -> None:
                matrix[row:row + len(texts)] = _vector_block(texts, dim)

            with ThreadPoolExecutor(max(1, _CPUS - 1)) as pool:
                parsing = deque()  # the pool's blocks, in file order
                try:
                    for texts in _vector_texts(fh, dim, fields):
                        if len(fields) > len(matrix):
                            raise ValueError("the file changed while it was read")
                        while parsing and parsing[0].done():
                            parsing[0].result()  # kept until it succeeds, for `finally`
                            parsing.popleft()
                        row = len(fields) - len(texts)
                        if len(parsing) < 2 * (_CPUS - 1) and len(fields) < len(matrix):
                            parsing.append(pool.submit(parse, row, texts))
                        else:  # the pool has two blocks a thread, or this is the last
                            parse(row, texts)
                finally:  # the first failing block's error, before a later line's
                    for future in parsing:
                        future.result()
        if len(fields) != len(matrix):
            raise ValueError("the file changed while it was read")
        # one decode checks every label's UTF-8; no label holds a comma
        cells = b",".join(fields).decode().split(",") if fields else []
        columns = tuple(tuple(cells[k::len(EMBEDDING_FIXED_COLUMNS)])
                        for k in range(len(EMBEDDING_FIXED_COLUMNS)))
    except (FormatError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
        log.debug("%s: parsing cell by cell: %s", path, exc)
        return None
    return range(2, len(matrix) + 2), columns, matrix  # line 1 is the header


def load_embeddings(path) -> EmbeddingTable:
    """Parse an embedding CSV into a validated table.

    Where `longdouble` is x87, the block parser opens the file once and parses
    its vector block a few thousand cells at a time, on the calling thread and
    one more thread per other CPU; other hosts, and a file it cannot take as
    it is, go through the per-cell parser, which names the line of any error.
    Labels are validated as columns; no record is built until one is asked for.
    """
    parsed = _parse_embedding_block(path)
    linenos, columns, matrix = parsed if parsed is not None else _parse_embeddings_per_cell(path)
    image_ids, identity_ids, roles, target_ids, genders, age_groups = columns
    columns = (
        image_ids,
        identity_ids,
        roles,
        tuple(t or None for t in target_ids),
        tuple(g or "unknown" for g in genders),
        tuple(a or "unknown" for a in age_groups),
    )
    try:
        return EmbeddingTable(columns, matrix)
    except ValidationError as exc:
        raise ValidationError(f"{path}:{linenos[exc.row]}: {exc}") from None


def save_embeddings(table: EmbeddingTable, path) -> None:
    """The table as an embedding CSV: its six label columns, then its vectors (`write_table`)."""
    header = EMBEDDING_FIXED_COLUMNS + [f"v{i}" for i in range(table.dim)]
    write_table(path, header, (table.image_ids, table.identity_ids, table.roles,
                               table.target_ids, table.genders, table.age_groups, table.matrix))


# is_dummy texts, lower-cased, and the flags they stand for
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def load_annotations(path) -> AnnotationTable:
    """The annotation CSV as one checked table.

    Within a row `is_dummy` is checked first, then `_annotation_error`'s rules;
    the first bad row raises, naming `path:line`.
    """
    header, linenos, rows = read_csv(path)
    if header != ANNOTATION_COLUMNS:
        raise FormatError(f"{path}: header must be {','.join(ANNOTATION_COLUMNS)}")
    annotator_ids, triplet_ids, choices, flags, answers = (
        tuple(zip(*rows)) or ((),) * len(ANNOTATION_COLUMNS)
    )
    is_dummy = list(map(_BOOLEANS.get, map(str.lower, flags)))
    bad = is_dummy.index(None) if None in is_dummy else len(rows)
    try:
        table = AnnotationTable(annotator_ids, triplet_ids, choices, is_dummy,
                                tuple(a or None for a in answers))
    except ValidationError as exc:
        if exc.row < bad:
            raise ValidationError(f"{path}:{linenos[exc.row]}: {exc}") from None
    if bad < len(rows):
        raise FormatError(f"{path}:{linenos[bad]}: is_dummy must be boolean, got '{flags[bad]}'")
    return table


def save_annotations(table: AnnotationTable, path) -> None:
    """The table as an annotation CSV, `is_dummy` written as true or false."""
    flags = list(map(("false", "true").__getitem__, table.is_dummy.tolist()))
    write_table(path, ANNOTATION_COLUMNS, (table.annotator_ids, table.triplet_ids, table.choices,
                                           flags, table.dummy_answers))


def load_manifest(path) -> Dict[str, Tuple[str, str, str]]:
    """Triplet manifest: triplet_id -> (ref_id, option_a_id, option_b_id), three distinct ids."""
    header, linenos, rows = read_csv(path)
    if header != MANIFEST_COLUMNS:
        raise FormatError(f"{path}: header must be {','.join(MANIFEST_COLUMNS)}")
    manifest: Dict[str, Tuple[str, str, str]] = {}
    for lineno, row in zip(linenos, rows):
        triplet_id, ref_id, a_id, b_id = row
        if triplet_id in manifest:
            raise ValidationError(f"{path}:{lineno}: duplicate triplet_id '{triplet_id}'")
        if len({ref_id, a_id, b_id}) < 3:
            repeated = ref_id if ref_id in (a_id, b_id) else a_id
            raise ValidationError(
                f"{path}:{lineno}: triplet '{triplet_id}' names image '{repeated}' more than once"
            )
        manifest[triplet_id] = (ref_id, a_id, b_id)
    return manifest


def save_manifest(manifest: Dict[str, Tuple[str, str, str]], path) -> None:
    write_table(path, MANIFEST_COLUMNS, (list(manifest), *zip(*manifest.values())))


# ---------------------------------------------------------------------------
# Annotator screening and vote aggregation

# `TripletTable.majority` codes: a tie, or the option that won
MAJORITIES = (None, "A", "B")


def _codes(values: Sequence) -> np.ndarray:
    """Per value, a code that equal values, and only those, share."""
    index = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _known(rows: np.ndarray, ids: Sequence[Sequence[str]]) -> np.ndarray:
    """`rows`, a (3, n) array of table rows, if none is -1; else IntegrityError naming
    the first unknown image of `ids`, the three roles' ids, role by role."""
    unknown = np.argwhere(rows < 0)
    if unknown.size:
        raise IntegrityError(f"unknown image_id '{ids[unknown[0, 0]][unknown[0, 1]]}'")
    return rows


class TripletTable:
    """Triplets as columns, with their votes counted and their images found in `table`.

    `triplet_ids`, `ref_ids`, `option_a_ids` and `option_b_ids` are tuples;
    `n_a` and `n_b` count valid votes, `majority` indexes `MAJORITIES`, and
    `admitted` (D1) and `consistent` (D2: admitted and unanimous) are masks.
    `rows` holds the rows of `table` of the reference, option A and option B
    images as a (3, n) array, -1 for an image `table` lacks, which raises only
    where its triplet is used. `count_votes` builds the table of a manifest
    and its annotations.
    """

    IDS = ("triplet_ids", "ref_ids", "option_a_ids", "option_b_ids")
    ARRAYS = ("n_a", "n_b", "majority", "admitted", "consistent")

    def __init__(self, columns: dict, table: EmbeddingTable, min_votes: int,
                 screened: np.ndarray):
        self.__dict__.update(columns)
        self.table, self.min_votes, self.screened = table, min_votes, screened

    def __len__(self) -> int:
        return len(self.triplet_ids)

    def take(self, index) -> "TripletTable":
        """The triplets at `index`, positions or a mask, in its order."""
        index = np.asarray(index)
        index = np.flatnonzero(index) if index.dtype == bool else index.astype(np.intp)
        at = index.tolist()
        columns = {name: tuple(map(getattr(self, name).__getitem__, at)) for name in self.IDS}
        columns.update({name: getattr(self, name)[index] for name in self.ARRAYS})
        columns["rows"] = self.rows[:, index]
        return TripletTable(columns, self.table, self.min_votes, self.screened)

    def role_ids(self) -> Tuple[Sequence[str], ...]:
        """Each triplet's reference, chosen and other image ids."""
        won_a = (self.majority == 1).tolist()
        pairs = [(a, b) if first else (b, a)
                 for first, a, b in zip(won_a, self.option_a_ids, self.option_b_ids)]
        return (self.ref_ids, *(tuple(zip(*pairs)) or ((), ())))

    def role_rows(self) -> np.ndarray:
        """The (3, n) rows of each triplet's reference, chosen and other images. A triplet
        without a majority raises ValidationError, then an unknown image IntegrityError."""
        tied = np.flatnonzero(self.majority == 0)
        if tied.size:
            raise ValidationError(f"triplet '{self.triplet_ids[tied[0]]}' has no majority")
        ref, a, b = self.rows
        won_a = self.majority == 1
        return _known(np.stack([ref, np.where(won_a, a, b), np.where(won_a, b, a)]),
                      self.role_ids())

    def known_rows(self) -> np.ndarray:
        """`rows`, or IntegrityError naming the first unknown image, role by role."""
        return _known(self.rows, (self.ref_ids, self.option_a_ids, self.option_b_ids))

    def gather(self) -> np.ndarray:
        """The (3, n, d) reference, chosen and other vectors, with one index."""
        return self.table.matrix[self.role_rows()]

    @functools.cached_property
    def evaluated(self) -> Tuple["TripletTable", List[str], np.ndarray]:
        """The admitted, unanimous triplets in `triplet_id` order, the image ids of their
        (3, n, d) vectors, flat, and the vectors, taken and gathered on first use."""
        kept = np.flatnonzero(self.admitted & self.consistent).tolist()
        retained = self.take(sorted(kept, key=self.triplet_ids.__getitem__))
        return retained, list(itertools.chain(*retained.role_ids())), retained.gather()

    def funnel(self) -> dict:
        """Annotators seen and dropped, triplets rejected by reason, and D1 and D2 sizes."""
        few = self.n_a + self.n_b < self.min_votes
        return {
            "annotators": len(self.screened),
            "annotators_dropped": int(np.count_nonzero(~self.screened)),
            "triplets": len(self),
            "rejected": {"too_few_votes": int(np.count_nonzero(few)),
                         "tied_votes": int(np.count_nonzero(~few & (self.majority == 0)))},
            "D1": int(np.count_nonzero(self.admitted)),
            "D2": int(np.count_nonzero(self.consistent)),
        }


def _tally(
    manifest: Dict[str, Tuple[str, str, str]],
    annotations: AnnotationTable,
    screened: np.ndarray,
    min_votes: int,
) -> Tuple[dict, np.ndarray, np.ndarray]:
    """The id and vote columns of `TripletTable`, and per annotation its triplet's
    position and whether its vote counts."""
    if min_votes < 1:
        raise ValidationError(f"min_votes must be >= 1, got {min_votes}")
    triplet_ids = tuple(manifest)
    index = dict(zip(triplet_ids, itertools.count()))
    codes = np.fromiter(map(index.get, annotations.triplet_ids, itertools.repeat(-1)), np.intp,
                        len(annotations.triplet_ids))
    unknown = np.flatnonzero(~annotations.is_dummy & (codes < 0))
    if unknown.size:
        raise IntegrityError(
            f"annotation by '{annotations.annotator_ids[unknown[0]]}' references unknown"
            f" triplet_id '{annotations.triplet_ids[unknown[0]]}'"
        )
    kept = ~annotations.is_dummy & screened[annotations.annotator_codes]
    n_a, n_b = (np.bincount(codes[kept & (annotations.is_a == a)], minlength=len(triplet_ids))
                for a in (True, False))
    majority = np.sign(n_a - n_b) % 3  # 1 where A won, 2 where B won
    admitted = (n_a + n_b >= min_votes) & (majority != 0)
    columns = dict(zip(TripletTable.IDS, (triplet_ids, *(tuple(zip(*manifest.values()))
                                                         or ((),) * 3))))
    columns.update(n_a=n_a, n_b=n_b, majority=majority, admitted=admitted,
                   consistent=admitted & ((n_a == 0) | (n_b == 0)))
    return columns, codes, kept


def count_votes(
    manifest: Dict[str, Tuple[str, str, str]],
    annotations: AnnotationTable,
    screened: np.ndarray,
    min_votes: int = MIN_VALID_VOTES,
    *,
    table: EmbeddingTable,
) -> TripletTable:
    """Fold annotations into one row per manifest triplet, in manifest order, over `table`.

    Dummy annotations and votes of annotators not `screened` are dropped; a
    non-dummy annotation of a triplet the manifest lacks raises, the first in
    file order. Triplets with fewer than `min_votes` surviving votes, or with
    tied votes, are kept but belong to no dataset. `min_votes` is at least 1.
    """
    columns, _, _ = _tally(manifest, annotations, screened, min_votes)
    columns["rows"] = np.array([
        np.fromiter(map(table._rows.get, ids, itertools.repeat(-1)), np.intp, len(ids))
        for ids in (columns["ref_ids"], columns["option_a_ids"], columns["option_b_ids"])
    ])
    return TripletTable(columns, table, min_votes, screened)


def validate_annotators(table: AnnotationTable) -> Set[str]:
    """Annotators whose every dummy answer is correct (`AnnotationTable.screened`)."""
    return set(itertools.compress(table.annotators, table.screened()))


def aggregate_triplets(
    manifest: Dict[str, Tuple[str, str, str]],
    table: AnnotationTable,
    valid_annotators: Set[str],
    min_votes: int = MIN_VALID_VOTES,
) -> List[TripletSample]:
    """The records of `count_votes`: each triplet's votes sorted by annotator id and
    choice, and why a rejected triplet belongs to no dataset."""
    screened = np.array([a in valid_annotators for a in table.annotators], dtype=bool)
    columns, codes, kept = _tally(manifest, table, screened, min_votes)
    voters = np.flatnonzero(kept)
    voters = voters[np.lexsort((~table.is_a[voters], table.annotator_codes[voters],
                                codes[voters]))]
    choices = [table.choices[i] for i in voters.tolist()]
    ends = np.cumsum(columns["n_a"] + columns["n_b"]).tolist()
    samples = []
    for i, ids in enumerate(zip(*(columns[name] for name in TripletTable.IDS))):
        n_a, n_b = int(columns["n_a"][i]), int(columns["n_b"][i])
        votes = tuple(choices[ends[i] - n_a - n_b:ends[i]])
        rejection = (f"only {len(votes)} valid votes (need {min_votes})"
                     if len(votes) < min_votes else None if n_a != n_b
                     else f"tied votes ({n_a} vs {n_b})")
        samples.append(TripletSample(*ids, votes, MAJORITIES[columns["majority"][i]],
                                     bool(columns["consistent"][i]), rejection is None, rejection))
    return samples


def verify_target_consistency(triplets: TripletTable) -> Tuple[List[str], np.ndarray]:
    """Check that each triplet's three images are swaps onto one target; then give each
    triplet's target and the (3, n) identity codes (`_codes`) of its three images."""
    table = triplets.table
    # row -1, an unknown image, reads as not swapped
    swapped = np.append([role == "swapped" for role in table.roles], False)[triplets.rows]
    targets = np.append(_codes(table.target_ids), -1)[triplets.rows]
    bad = ~swapped.all(axis=0) | (targets[0] != targets[1]) | (targets[1] != targets[2])
    if bad.any():
        i = int(np.argmax(bad))
        triplets.take([i]).known_rows()  # raises for an unknown image
        names = {table.target_ids[row] for row in triplets.rows[:, i].tolist()}
        raise IntegrityError(
            f"triplet '{triplets.triplet_ids[i]}' must reference swapped records"
            f" sharing one target_id, got targets {sorted(str(t) for t in names)}"
        )
    return (list(map(table.target_ids.__getitem__, triplets.rows[0].tolist())),
            _codes(table.identity_ids)[triplets.rows])


def build_datasets(samples):
    """D1 = all admitted samples; D2 = admitted samples with unanimous votes.

    Of a `TripletTable`, both are `take`s of it; of `TripletSample` records, lists.
    """
    if isinstance(samples, TripletTable):
        d1, d2 = samples.take(samples.admitted), samples.take(samples.consistent)
    else:
        d1 = [s for s in samples if s.admitted]
        d2 = [s for s in d1 if s.consistent]
    if not len(d2):
        log.warning("no consistent samples: D2 is empty")
    return {"D1": d1, "D2": d2}


# ---------------------------------------------------------------------------
# Evaluation splits


def split_eval(
    triplets: TripletTable,
    mode: str,
    ratios: Tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> DatasetPartition:
    """Deterministic train/val/test split honoring a source/target knowledge mode.

    Only admitted triplets are split, each swaps onto one target (`verify_target_consistency`).

    mode "i":   test shares no source identity and no target with train.
    mode "ii":  test shares no target with train; every test source is in train.
    mode "iii": test shares no source with train; every test target is in train.
    """
    if mode not in ("i", "ii", "iii"):
        raise ValidationError(f"unknown split mode '{mode}'")
    check_seed(seed)
    # written to fail on NaN, which fails every comparison
    if len(ratios) != 3 or not abs(sum(ratios) - 1.0) <= 1e-9 or not all(r >= 0 for r in ratios):
        raise ValidationError(f"ratios must be three non-negatives summing to 1, got {ratios}")
    admitted = triplets.take(triplets.admitted)
    if not len(admitted):
        raise InfeasibleSplitError("no admitted samples to split")

    targets, sources = verify_target_consistency(admitted)
    rng = np.random.default_rng(seed)

    if mode in ("i", "ii"):
        splits = _split_by_target(targets, sources, mode, ratios, rng)
    else:
        splits = _split_mode_iii(targets, sources, ratios, rng)
    ids = admitted.triplet_ids
    train, val, test = (sorted(ids[i] for i in split) for split in splits)
    partition = DatasetPartition(mode, seed, tuple(ratios), train, val, test)

    violations = audit_partition(admitted, admitted.table, partition)
    if violations:
        raise InfeasibleSplitError(
            "split construction failed its own audit: " + "; ".join(violations)
        )
    return partition


def _split_by_target(targets, sources, mode, ratios, rng) -> Tuple[List[int], ...]:
    by_target: Dict[str, List[int]] = {}
    for i, target in enumerate(targets):
        by_target.setdefault(target, []).append(i)
    order = sorted(by_target)
    rng.shuffle(order)

    total = len(targets)
    test_quota = max(1, round(ratios[2] * total))
    val_quota = round(ratios[1] * total)
    test_t, val_t, train_t = [], [], []
    assigned = 0
    for t in order:
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

    train = [i for t in train_t for i in by_target[t]]
    val = [i for t in val_t for i in by_target[t]]
    test_pool = np.array([i for t in test_t for i in by_target[t]], dtype=np.intp)
    in_train = np.zeros(sources.max() + 1, dtype=bool)
    in_train[sources[:, train]] = True
    seen = in_train[sources[:, test_pool]]  # per test candidate, which sources train holds

    if mode == "i":
        test = test_pool[~seen.any(axis=0)].tolist()
        if not test:
            raise InfeasibleSplitError(
                "mode [i]: every candidate test triplet shares a source identity with train"
            )
    else:
        test = test_pool[seen.all(axis=0)].tolist()
        if not test:
            raise InfeasibleSplitError(
                "mode [ii]: no candidate test triplet has all its source identities in train"
            )
    return train, val, test


def _split_mode_iii(targets, sources, ratios, rng) -> Tuple[List[int], ...]:
    if len(set(targets)) < 2:
        raise InfeasibleSplitError(
            "mode [iii]: corpus has a single target; the sole target cannot be both"
            " held out and present in training"
        )
    pool = list(range(len(targets)))
    quota = max(1, round(ratios[2] * len(pool)))
    source_budget = max(3, round(ratios[2] * np.count_nonzero(np.bincount(sources.ravel()))))
    source_sets = [set(column) for column in sources.T.tolist()]

    for _ in range(20):
        rng.shuffle(pool)
        held_out: Set[int] = set()
        test_candidates = []
        for i in pool:
            if len(test_candidates) >= quota:
                break
            grown = held_out | source_sets[i]
            if len(grown) > source_budget and test_candidates:
                continue
            test_candidates.append(i)
            held_out = grown
        chosen = set(test_candidates)
        train = [i for i in pool if i not in chosen and not (source_sets[i] & held_out)]
        train_targets = {targets[i] for i in train}
        test = [i for i in test_candidates if targets[i] in train_targets]
        if train and test:
            break
    else:
        raise InfeasibleSplitError(
            "mode [iii]: no source hold-out yields test triplets whose targets"
            " also appear in training"
        )

    # carve the validation set out of train, keeping every test target covered
    val_quota = round(ratios[1] * len(pool))
    needed = {targets[i] for i in test}
    covered: Dict[str, int] = {}
    for i in train:
        t = targets[i]
        if t in needed:
            covered[t] = covered.get(t, 0) + 1
    val = []
    remaining = []
    for i in train:
        t = targets[i]
        movable = t not in needed or covered.get(t, 0) > 1
        if len(val) < val_quota and movable:
            val.append(i)
            if t in needed:
                covered[t] -= 1
        else:
            remaining.append(i)
    return remaining, val, test


def audit_partition(
    samples,
    table: EmbeddingTable,
    partition: DatasetPartition,
) -> List[str]:
    """Independent set-intersection audit of a partition's mode constraints.

    `samples` is a `TripletTable` over `table` or `TripletSample` records.
    Deliberately recomputes everything from the image ids; shares no logic with
    the splitter. Returns a list of violation descriptions (empty = pass).
    """
    if isinstance(samples, TripletTable):
        by_id = dict(zip(samples.triplet_ids,
                         zip(samples.ref_ids, samples.option_a_ids, samples.option_b_ids)))
    else:
        by_id = {s.triplet_id: (s.ref_id, s.option_a_id, s.option_b_id) for s in samples}

    def bucket_sets(ids):
        targets: Set[str] = set()
        sources: Set[str] = set()
        per_sample = []
        for tid in ids:
            rows = [table.row(image_id) for image_id in by_id[tid]]
            t = table.target_ids[rows[0]] or table.image_ids[rows[0]]
            srcs = {table.identity_ids[row] for row in rows}
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
