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

The scan of ``search_topk`` runs in row blocks when the matrix holds two
blocks or more and d is at least ``SPLIT_MIN_DIM``, on the calling thread
and on helpers from the package's one pool, through
``parallel.run_blocks``; any other scan, and any scan that module grants
no helper (one usable CPU, a BLAS that is not single-threaded OpenBLAS,
or every other CPU held), is one ``matrix @ query`` product.  A block is
a multiple of 4 rows filling about ``fileio.CHUNK_BYTES`` (16,384 rows at
d = 64), and the last block also takes the rows left over.  The CPU
ledger of ``cmcrank.parallel`` keeps scans off CPUs that other work uses:
over a 500k x 64 index, ``run_batch`` at 2 threads on 2 vCPUs served
fewer queries with every scan split than with none in 7 of 8 alternating
pairs of processes (median 0.91x).

The thread that scans a block also selects from it, so no n-length
scores array is written and the ranking is split with the scan (the
per-block k-selection of FAISS's exact search; Johnson et al.,
arXiv:1702.08734).  Each thread writes a block's scores into one
block-sized buffer that it reuses.  In its first block it finds the k-th
largest score with an in-place partition of their negated copy and keeps
every row scoring at or above it, ties included; a block with k rows or
fewer, or fewer than k comparable scores (the k-th is NaN), keeps every
row.  That k-th score is then the thread's bound: it is no higher than
the k-th score over the whole index, so in the thread's later blocks only
rows at or above it are candidates, found by one comparison, and a block
with more than k of them keeps those at or above the k-th largest among
them, which raises the bound.  So each block keeps at most its own top k
plus ties, and no later block pays a partition of all its rows (at
500k x 64, k = 32 that made ``search_topk`` 7-8% faster than a partition
in every block, and at 50k x 64, k = 512 3-13%).  ``rank_by_score`` then
orders the survivors.  That is exact: a row of the global top k, or tied
with its k-th score, has fewer than k rows above it in its block and is
at or above every bound, so it survives.  The survivors' scores are the
block products' own float32 values, which have the bits of one product
(below), so ids and score bytes are those of ranking all n scores.  When the whole index has fewer
than k comparable scores, no block has k, so no thread sets a bound,
every row survives and ``rank_by_score`` raises ``NumericError`` as it
would over every score.  A scan of one product (one block, a d below the
floor, a multi-threaded BLAS or no free CPU) keeps one ``rank_by_score``
over all its scores, as a per-block select there would only add a pass.

With one BLAS thread (measured on OpenBLAS 0.3.31) a split scan has the
bits of the one product.  That product takes rows in groups of 4 and
rounds the n mod 4 tail rows apart.  Every block starts on a group, so a
block's tail rows are the matrix's.  A one-row block would go through a
dot kernel that rounds otherwise, which the remainder rule rules out.  At
d from 2 to 8, 4,096-row blocks changed bits in up to five of six trials,
while from d = 9 to 24 every trial matched; hence the floor of 16.  With
more BLAS threads the library splits the one product itself, so there
are no fixed bits to match, and a split only adds threads: on 2 vCPUs
with OpenBLAS's default of 2 threads, a 500k x 64 scan took 7.1-8.3 ms
as one product and 8.1-9.7 ms split.  Hence the single-threaded-BLAS rule
of ``cmcrank.parallel``.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import parallel
from .encoders import EmbeddingTable, _as_ids, encode, save_embedding_file
from .errors import InvalidShape, NumericError
from .fileio import CHUNK_BYTES

SPLIT_MIN_DIM = 16
"""The smallest d whose scan is split into row blocks (see the module
docstring for the measurement behind it)."""


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
    _check_k(k)
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


def _check_k(k) -> None:
    if not isinstance(k, int | np.integer) or k < 0:
        raise InvalidShape(f"k must be a nonnegative integer, got {k!r}")


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
    return CandidateIndex.from_file(path)


def search_topk(index: CandidateIndex, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k candidates by inner product against the query, which
    must be finite (``NumericError``) and of the index's dim (``InvalidShape``)."""
    query = encode(query, index.dim)
    _check_k(k)
    rows, scores = _scan(index.matrix, query, k)
    return rank_by_score(index.ids if rows is None else index.ids[rows], scores, k)


def _block_rows(dim: int) -> int:
    """Rows per scan block: a multiple of 4 filling about CHUNK_BYTES."""
    return max(4, CHUNK_BYTES // (16 * dim) * 4)


class _BlockScan:
    """One scan's row blocks; each block keeps the rows of its own top k
    (see the module docstring)."""

    def __init__(self, matrix: np.ndarray, query: np.ndarray, rows: int, k: int):
        self.matrix, self.query, self.rows, self.k = matrix, query, rows, k
        self.blocks = len(matrix) // rows
        self.kept: list[tuple[np.ndarray, np.ndarray] | None] = [None] * self.blocks

    def start(self):
        """One thread's block select: its buffers and its bound."""
        n = len(self.matrix)
        # The last block is the largest; every block reuses these two.
        scores = np.empty(n - (self.blocks - 1) * self.rows, dtype=np.float32)
        negated = np.empty_like(scores)
        bound = None

        def select(block: int) -> None:
            nonlocal bound
            lo = block * self.rows
            hi = n if block == self.blocks - 1 else lo + self.rows
            out = scores[:hi - lo]
            np.matmul(self.matrix[lo:hi], self.query, out=out)
            keep, bound = _block_top(out, negated[:hi - lo], self.k, bound)
            self.kept[block] = (keep + lo, out[keep])
        return select

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept rows and their scores, once every block has run."""
        rows, scores = zip(*self.kept)
        return np.concatenate(rows), np.concatenate(scores)


def _block_top(scores: np.ndarray, negated: np.ndarray, k: int,
               bound: np.floating | None) -> tuple[np.ndarray, np.floating | None]:
    """Positions in one block's ``scores`` that may hold the top k, and the
    bound for the thread's next block (see the module docstring).

    Without a bound, the block's k-th largest score is found by an
    in-place partition of ``negated`` (scratch of the same length), and
    every row at or above it is kept; with no comparable k-th score (k
    rows or fewer, or a NaN k-th) every row is.  A bound is the k-th
    largest score of an earlier block: only rows at or above it are
    candidates, and of more than k, those at or above their k-th largest
    are kept."""
    if bound is None:
        if 0 < k < len(scores):
            np.negative(scores, out=negated)
            negated.partition(k - 1)  # NaN sorts last
            kth = -negated[k - 1]
            if kth == kth:
                return np.flatnonzero(scores >= kth), kth
        return np.arange(len(scores)), None
    keep = np.flatnonzero(scores >= bound)
    if len(keep) > k:
        values = scores[keep]
        kth = -np.partition(-values, k - 1)[k - 1]
        return keep[values >= kth], kth
    return keep, bound


def _scan(matrix: np.ndarray, query: np.ndarray,
          k: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The rows that may hold the top k, and their scores; rows is None
    for one ``matrix @ query`` product over every row.  Split over row
    blocks as the module docstring says."""
    n, dim = matrix.shape
    rows = _block_rows(dim)
    if n >= 2 * rows and dim >= SPLIT_MIN_DIM:
        scan = _BlockScan(matrix, query, rows, k)
        if parallel.run_blocks(scan.blocks, scan.start):
            return scan.survivors()
    return None, matrix @ query
