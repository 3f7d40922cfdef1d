"""First-stage candidate store: exact top-K maximum-inner-product search.

Candidates are stored as one float32 vector each.  Search is a full scan
(desk-scale corpora keep that fast) so results are exact and, with ties
broken by ascending id, fully deterministic.  ``CandidateIndex`` is an
``EmbeddingTable``: ids are held sorted ascending as uint64 and resolved
to rows by binary search, a matrix whose ids are already sorted is
aliased, not copied, and every row is checked finite, built or opened.

An index file is an embedding file (see ``encoders``) whose ids are
strictly increasing: a 24-byte header, the ids, then the matrix, exactly
count * dim * 4 bytes with nothing else per candidate.  ``open_index``
loads it like any embedding file, so the checksum is streamed over a
read-only memory map and the index keeps that aligned map, not a copy.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoders import EmbeddingTable, _as_ids, load_embedding_file, save_embedding_file
from .errors import InvalidShape, NumericError


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


def rank_by_score(ids: np.ndarray, scores: np.ndarray, k: int) -> RankedList:
    """Exact top-k of 1-D ids and same-shape scores, by (score desc, id asc).

    Returns exactly ``min(k, n)`` entries; raises ``InvalidShape`` for a k
    that is not an integer of at least 0 or for other shapes, ``InvalidInput``
    for ids that ``_as_ids`` rejects, and ``NumericError`` when NaN scores
    leave fewer comparable ones."""
    if not isinstance(k, int | np.integer) or k < 0:
        raise InvalidShape(f"k must be a nonnegative integer, got {k!r}")
    ids, scores = _as_ids(ids), np.asarray(scores)
    if ids.ndim != 1 or scores.shape != ids.shape:
        raise InvalidShape(f"ids {ids.shape} and scores {scores.shape} differ or are not 1-D")
    n = len(ids)
    k = min(k, n)
    if k == 0:
        return RankedList(ids=np.empty(0, dtype=np.uint64),
                          scores=np.empty(0, dtype=np.float32))
    # argpartition may split ties at the boundary arbitrarily, so widen to
    # every entry scoring >= the k-th value before ordering.  NaN sorts
    # last, so a NaN k-th value keeps nothing.
    part = np.argpartition(-scores, k - 1)
    keep = np.flatnonzero(scores >= scores[part[k - 1]])
    if len(keep) < k:
        raise NumericError(f"fewer than {k} of {n} scores are comparable (NaN)")
    order = np.lexsort((ids[keep], -scores[keep].astype(np.float64)))
    chosen = keep[order[:k]]
    return RankedList(ids=ids[chosen],
                      scores=scores[chosen].astype(np.float32, copy=False))


class CandidateIndex(EmbeddingTable):
    """Candidate embeddings (in memory or memory-mapped) with exact search."""

    def scores_for(self, query: np.ndarray, candidate_ids: Sequence[int]) -> np.ndarray:
        """Inner products of the query against specific candidates, in order."""
        return self.matrix[self._rows(candidate_ids)] @ np.asarray(query, dtype=np.float32)


def build_index(ids: Sequence[int] | np.ndarray, embeddings: np.ndarray,
                path: str | Path) -> CandidateIndex:
    """Persist an index file and return the in-memory view."""
    index = CandidateIndex(ids, embeddings)
    save_embedding_file(path, index.ids, index.matrix)
    return index


def open_index(path: str | Path) -> CandidateIndex:
    """Open an index read-only.  With sorted ids, as ``build_index`` writes
    them, the matrix is the immutable memory map itself, not a copy."""
    return CandidateIndex(*load_embedding_file(path))


def search_topk(index: CandidateIndex, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k candidates by inner product against the query."""
    query = np.asarray(query, dtype=np.float32)
    if query.shape != (index.dim,):
        raise InvalidShape(
            f"query has shape {query.shape}, index dim is {index.dim}")
    scores = index.matrix @ query
    return rank_by_score(index.ids, scores, k)
