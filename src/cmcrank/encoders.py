"""Query vectors, the id-addressed embedding table and the embedding file format.

Queries arrive as precomputed vectors; ``encode`` checks their shape and
that they are finite.  ``EmbeddingTable`` holds candidate ids sorted
ascending as uint64, with the matrix rows in the same order, and resolves
ids to rows by binary search.  Ids that are already strictly increasing
(every index file, and the synthetic task) are taken as they are, so the
table aliases the caller's matrix, a memory map included, instead of
copying it.  Negative or non-integer ids are rejected, never wrapped.

Embedding file layout (little-endian), in the checked container of
``fileio``; an index file is one whose ids are strictly increasing:

    magic   4 bytes  b"CMCE"
    version u16      currently 2; version-1 files are rejected
    dim     u32
    count   u64
    crc32   u32      over the id and matrix regions
    pad     2 bytes  so both regions below start 8-byte aligned
    ids     count x u64, in the writer's order
    matrix  count x dim x f32, row-major

``fileio.read_checked`` checks the header and the file size before the
payload and streams the checksum over a read-only map;
``load_embedding_file`` then checks that the ids are unique and returns
views of that map, leaving the values to their users: ``EmbeddingTable``
checks candidate rows, and ``encode`` and ``train`` check queries.

The text form, one "id v1,v2,..." record per ``fileio.text_records``
line, is an import source with the same in-memory representation.  Its
ids, like those of gold and rankings files, are parsed by ``_parse_id``.
"""
from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (DuplicateId, FormatError, InvalidInput, InvalidShape,
                     MissingCandidate, NumericError)
from .fileio import CHUNK_BYTES, read_checked, text_records, write_checked

EMBEDDING_MAGIC = b"CMCE"
EMBEDDING_VERSION = 2
_HEADER = struct.Struct("<4sHIQI2x")  # magic, version, dim, count, crc32, pad
HEADER_BYTES = _HEADER.size


def encode(vector, dim: int) -> np.ndarray:
    """A raw query vector as float32, checked to be finite with shape ``(dim,)``."""
    vec = np.asarray(vector, dtype=np.float32)
    if vec.shape != (dim,):
        raise InvalidShape(f"embedding has shape {vec.shape}, expected ({dim},)")
    if not np.isfinite(vec).all():
        raise NumericError("query embedding has a NaN or infinite value")
    return vec


# ---------------------------------------------------------------------------
# Candidate ids


def _as_ids(ids) -> np.ndarray:
    """Ids as uint64, the dtype lookups must compare in: an int64 needle
    would make ``np.searchsorted`` compare in float64, which merges ids
    above 2**53.  Negative and non-integer ids raise ``InvalidInput``."""
    arr = np.asarray(ids)
    if arr.dtype == np.uint64:
        return arr
    if arr.size == 0:
        return arr.astype(np.uint64)
    if arr.dtype.kind in "fO":
        # numpy types a list that mixes ids of 2**63 and above with smaller
        # ones as float64, so such input is checked item by item.
        arr = np.asarray(ids, dtype=object)
        if not all(isinstance(v, (int, np.integer)) and 0 <= v < 2 ** 64
                   for v in arr.flat):
            raise InvalidInput("candidate ids must be integers in [0, 2**64)")
    elif arr.dtype.kind not in "iu":
        raise InvalidInput(f"candidate ids must be integers, got dtype {arr.dtype}")
    elif arr.min() < 0:
        raise InvalidInput(f"candidate id {int(arr.min())} is negative")
    return arr.astype(np.uint64)


def _parse_id(text: str, where: str) -> int:
    """An id read from the text record ``where`` (its ``path:line``); as in
    :func:`_as_ids`, one that is not an integer in [0, 2**64) raises ``InvalidInput``."""
    try:
        value = int(text)
    except ValueError:
        raise InvalidInput(f"{where}: id {text!r} is not an integer") from None
    if not 0 <= value < 2 ** 64:
        raise InvalidInput(f"{where}: id {value} is not in [0, 2**64)")
    return value


def _sorted_ids(ids) -> tuple[np.ndarray, np.ndarray | None]:
    """Ids sorted ascending, and the permutation that sorted them (None if
    they already were).  Ids not 1-D raise ``InvalidShape``, a repeat ``DuplicateId``."""
    ids = _as_ids(ids)
    if ids.ndim != 1:
        raise InvalidShape(f"candidate ids must be 1-D, got shape {ids.shape}")
    if np.all(ids[1:] > ids[:-1]):
        return ids, None
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    repeats = np.flatnonzero(ids[1:] == ids[:-1])
    if len(repeats):
        raise DuplicateId(f"candidate id {int(ids[repeats[0]])} appears more than once")
    return ids, order


# ---------------------------------------------------------------------------
# Embedding persistence


def save_embedding_file(path: str | Path, ids: Sequence[int] | np.ndarray,
                        embeddings: np.ndarray) -> None:
    """Write ids and their float32 vectors, a ``(len(ids), dim)`` matrix;
    bit-exact under reload."""
    ids = np.ascontiguousarray(_as_ids(ids), dtype="<u8")
    matrix = np.ascontiguousarray(embeddings, dtype="<f4")
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise InvalidShape(
            f"embeddings must be ({len(ids)}, dim) for {len(ids)} ids, got {matrix.shape}")
    _sorted_ids(ids)
    write_checked(path, _HEADER, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                  (matrix.shape[1], len(ids)), (ids, matrix))


def load_embedding_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Map a binary embedding file read-only and verify it; returns
    (ids u64, matrix count x dim f32) as read-only views of the map."""
    (dim, count), buf = read_checked(path, _HEADER, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                                     lambda dim, count: count * (8 + 4 * dim))
    ids = np.frombuffer(buf, dtype="<u8", count=count, offset=HEADER_BYTES)
    matrix = np.frombuffer(buf, dtype="<f4", count=count * dim,
                           offset=HEADER_BYTES + 8 * count).reshape(count, dim)
    try:
        _sorted_ids(ids)
    except DuplicateId as exc:
        raise DuplicateId(f"{path}: {exc}") from None
    return ids, matrix


def load_embedding_text(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Import the text form: one "id v1,v2,..." record per line, all of one width."""
    ids: list[int] = []
    seen: set[int] = set()
    rows: list[list[float]] = []
    for where, line in text_records(path):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FormatError(f"{where}: expected 'id values', got {line!r}")
        ids.append(_parse_id(parts[0], where))
        if ids[-1] in seen:
            raise DuplicateId(f"{where}: candidate id {ids[-1]} appears more than once")
        seen.add(ids[-1])
        try:
            rows.append([float(v) for v in parts[1].split(",")])
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
        if len(rows[-1]) != len(rows[0]):
            raise FormatError(f"{where}: {len(rows[-1])} values, expected {len(rows[0])}")
    if not rows:
        raise FormatError(f"{path}: text embedding file has no records")
    return np.array(ids, dtype=np.uint64), np.array(rows, dtype=np.float32)


@contextmanager
def _naming_file(path: str | Path):
    """Prefix ``path`` to a ``NumericError`` raised inside, such as that of
    a non-finite row of a table built from the file's rows."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from None


class EmbeddingTable:
    """Id-addressable rows: ``ids`` sorted ascending, ``matrix`` row-aligned
    and finite (``NumericError`` names the smallest id of a bad row)."""

    def __init__(self, ids: Sequence[int] | np.ndarray, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self.ids, order = _sorted_ids(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.ids):
            raise InvalidShape(
                f"embedding matrix {matrix.shape} does not match {len(self.ids)} ids")
        self.matrix = matrix if order is None else matrix[order]
        # Chunked, so a memory-mapped matrix needs no full-size temporary.
        step = max(1, CHUNK_BYTES // max(1, 4 * self.dim))
        for lo in range(0, len(self.ids), step):
            rows = self.matrix[lo:lo + step]
            if not np.isfinite(rows).all():
                row = lo + int(np.argmin(np.isfinite(rows).all(axis=1)))
                raise NumericError(
                    f"embedding of candidate id {int(self.ids[row])} is not finite")

    @classmethod
    def from_file(cls, path: str | Path) -> "EmbeddingTable":
        """The table of a binary embedding file; a non-finite row's
        ``NumericError`` names ``path``."""
        ids, matrix = load_embedding_file(path)
        with _naming_file(path):
            return cls(ids, matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def _rows(self, candidate_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Matrix row of each id, in order; an absent id raises
        ``MissingCandidate``."""
        needles = _as_ids(candidate_ids)
        rows = np.searchsorted(self.ids, needles)
        if len(self.ids):
            absent = self.ids[np.minimum(rows, len(self.ids) - 1)] != needles
        else:
            absent = np.ones(needles.shape, dtype=bool)
        if absent.any():
            raise MissingCandidate(
                f"candidate id {int(needles[absent][0])} is not indexed")
        return rows

    def batch(self, candidate_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Rows for the given ids, in order."""
        return self.matrix[self._rows(candidate_ids)]
