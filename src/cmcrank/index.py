"""First-stage candidate store: exact top-K maximum-inner-product search.

Candidates are stored as one float32 vector each.  Search is a full scan
(desk-scale corpora keep that fast) so results are exact and, with ties
broken by ascending id, fully deterministic.  ``CandidateIndex`` is an
``EmbeddingTable``: ids are held sorted ascending as uint64 and resolved
to rows by binary search, and a matrix whose ids are already sorted is
aliased, not copied.

Index file layout (little-endian):

    magic   4 bytes  b"CMCI"
    version u16      currently 1
    dim     u32
    count   u64
    crc32   u32      over id table + matrix bytes
    ids     count x u64
    matrix  count x dim x f32, row-major

The matrix region is exactly count * dim * 4 bytes: single-vector storage,
nothing else per candidate.  ``open_index`` memory-maps that region
read-only after verifying the checksum; the stored ids are strictly
increasing, so the index keeps the map instead of a copy.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoders import EmbeddingTable
from .errors import FormatError, InvalidShape
from .fileio import (atomic_write_bytes, expect_magic, pack_u16, pack_u32,
                     pack_u64, read_u16, read_u32, read_u64)

INDEX_MAGIC = b"CMCI"
INDEX_VERSION = 1
HEADER_BYTES = 4 + 2 + 4 + 8 + 4


@dataclass(frozen=True)
class RankedList:
    """Ordered (candidate id, score) pairs, descending score, id-ascending ties."""

    ids: np.ndarray      # uint64
    scores: np.ndarray   # float32

    def __post_init__(self):
        if len(self.ids) != len(self.scores):
            raise InvalidShape("RankedList ids and scores differ in length")

    def __len__(self) -> int:
        return len(self.ids)

    def entries(self) -> list[tuple[int, float]]:
        return [(int(c), float(s)) for c, s in zip(self.ids, self.scores)]

    def truncated(self, k: int) -> "RankedList":
        return RankedList(ids=self.ids[:k], scores=self.scores[:k])


def rank_by_score(ids: np.ndarray, scores: np.ndarray, k: int) -> RankedList:
    """Exact top-k of (ids, scores) under the (score desc, id asc) order."""
    ids = np.asarray(ids, dtype=np.uint64)
    scores = np.asarray(scores)
    n = len(ids)
    k = min(k, n)
    if k <= 0:
        return RankedList(ids=np.empty(0, dtype=np.uint64),
                          scores=np.empty(0, dtype=np.float32))
    if k < n:
        # argpartition may split ties at the boundary arbitrarily, so widen
        # to every entry scoring >= the k-th value before ordering.
        part = np.argpartition(-scores, k - 1)
        kth = scores[part[k - 1]]
        keep = np.flatnonzero(scores >= kth)
    else:
        keep = np.arange(n)
    order = np.lexsort((ids[keep], -scores[keep].astype(np.float64)))
    chosen = keep[order[:k]]
    return RankedList(ids=ids[chosen],
                      scores=scores[chosen].astype(np.float32, copy=False))


class CandidateIndex(EmbeddingTable):
    """Candidate embeddings (in memory or memory-mapped) with exact search."""

    def scores_for(self, query: np.ndarray, candidate_ids: Sequence[int]) -> np.ndarray:
        """Inner products of the query against specific candidates, in order."""
        return self.matrix[self._rows(candidate_ids)] @ np.asarray(query, dtype=np.float32)

    def search(self, query: np.ndarray, k: int) -> RankedList:
        return search_topk(self, query, k)


def build_index(ids: Sequence[int] | np.ndarray, embeddings: np.ndarray,
                path: str | Path) -> CandidateIndex:
    """Persist an index file and return the in-memory view."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    if embeddings.ndim != 2:
        raise InvalidShape(f"embeddings must be (count, dim), got {embeddings.shape}")
    index = CandidateIndex(ids, embeddings)

    id_bytes = np.ascontiguousarray(index.ids, dtype="<u8").tobytes()
    matrix_bytes = np.ascontiguousarray(index.matrix, dtype="<f4").tobytes()
    crc = zlib.crc32(matrix_bytes, zlib.crc32(id_bytes))
    atomic_write_bytes(path, b"".join([
        INDEX_MAGIC, pack_u16(INDEX_VERSION),
        pack_u32(index.dim), pack_u64(len(index)), pack_u32(crc),
        id_bytes, matrix_bytes,
    ]))
    return index


def open_index(path: str | Path) -> CandidateIndex:
    """Open an index read-only; the matrix is memory-mapped and immutable."""
    path = Path(path)
    with open(path, "rb") as fh:
        expect_magic(fh, INDEX_MAGIC)
        version = read_u16(fh, "version")
        if version != INDEX_VERSION:
            raise FormatError(f"unsupported index version {version}")
        dim = read_u32(fh, "dim")
        count = read_u64(fh, "count")
        stored_crc = read_u32(fh, "crc32")
        payload = fh.read()
    expected = count * (8 + 4 * dim)
    if len(payload) != expected:
        raise FormatError(
            f"index payload is {len(payload)} bytes, expected {expected}")
    if zlib.crc32(payload) != stored_crc:
        raise FormatError("index checksum mismatch (corrupt payload)")

    ids = np.frombuffer(payload, dtype="<u8", count=count).astype(np.uint64)
    if count and np.any(ids[1:] <= ids[:-1]):
        raise FormatError("index id table must be strictly increasing")
    if count:
        # mode="r" keeps the mapped matrix read-only; rows stay on disk.
        matrix = np.memmap(path, dtype="<f4", mode="r",
                           offset=HEADER_BYTES + 8 * count, shape=(count, dim))
    else:
        matrix = np.empty((0, dim), dtype=np.float32)

    return CandidateIndex(ids, matrix)


def search_topk(index: CandidateIndex, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k candidates by inner product against the query."""
    query = np.asarray(query, dtype=np.float32)
    if query.shape != (index.dim,):
        raise InvalidShape(
            f"query has shape {query.shape}, index dim is {index.dim}")
    if k < 0:
        raise InvalidShape(f"k must be nonnegative, got {k}")
    if len(index) == 0 or k == 0:
        return RankedList(ids=np.empty(0, dtype=np.uint64),
                          scores=np.empty(0, dtype=np.float32))
    scores = index.matrix @ query
    return rank_by_score(index.ids, scores, k)
