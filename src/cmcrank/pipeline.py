"""Three-stage retrieve / narrow / final-score orchestration.

Stage 1 retrieves K candidates by exact inner product, stage 2 reranks them
down to K' in one joint forward pass, and in ``intermediate`` mode stage 3
makes one call to a pluggable final scorer with the query and the K'
survivors' ids and rows, and the argmax of its K' scores becomes the
answer: ``rank_by_score`` picks it, so NaN scores are ignored, ties go to
the lowest id, and a query whose scores are all NaN fails with
``NumericError``.  A scorer that returns other than K' scores raises
``ValueError``.  In ``final`` mode the reranker's own top-1 is the answer.

The final scorer is an interface only: two built-ins are shipped, a gold
oracle (for pipeline logic tests, where end-to-end accuracy collapses to
stage-2 recall@K') and a seeded noisy oracle emulating an imperfect scorer.
Queries are independent; a batch may fan out over worker threads and must
produce results identical to the serial run.
"""
from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .encoders import EmbeddingTable, encode
from .errors import CmcRankError, DuplicateId, InvalidConfig, InvalidInput, InvalidShape
from .evaluation import compute_metrics, gold_ranks
from .index import (CandidateIndex, RankedList, _workers_hold_cpus, rank_by_score,
                    search_topk)
from .reranker import CmcParams, rerank

MODE_FINAL = "final"
MODE_INTERMEDIATE = "intermediate"


ScorerHandle = Callable[[int, np.ndarray, np.ndarray, np.ndarray], ArrayLike]
"""``scorer(query_id, query, candidate_ids, rows) -> scores``: the encoded
(d,) float32 query, the K' survivors' (K',) uint64 ids and (K', d) float32
rows; the result holds one score per candidate, in ``candidate_ids`` order."""


def gold_oracle_scorer(gold_by_query: Mapping[int, int]) -> ScorerHandle:
    """Scores 1.0 for the query's gold candidate, 0.0 otherwise."""

    def scorer(query_id, query, candidate_ids, rows) -> list[float]:
        gold = gold_by_query.get(query_id)
        return [1.0 if gold == cid else 0.0 for cid in candidate_ids.tolist()]

    return scorer


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def noisy_oracle_scorer(gold_by_query: Mapping[int, int], seed: int = 0) -> ScorerHandle:
    """Gold scores 1.0; every other pair gets a stable uniform draw in [0, 1)."""

    def scorer(query_id, query, candidate_ids, rows) -> list[float]:
        gold = gold_by_query.get(query_id)
        salt = seed ^ _splitmix64(query_id)
        return [1.0 if gold == cid
                else _splitmix64(salt ^ _splitmix64(cid * 0x9E3779B97F4A7C15)) / 2.0 ** 64
                for cid in candidate_ids.tolist()]

    return scorer


@dataclass(frozen=True)
class PipelineConfig:
    k_retrieve: int = 512
    k_prime: int = 64
    mode: str = MODE_FINAL
    final_scorer: ScorerHandle | None = None

    def __post_init__(self):
        if not all(isinstance(k, int | np.integer) for k in (self.k_retrieve, self.k_prime)):
            raise InvalidConfig("k_retrieve and k_prime must be integers")
        if self.k_retrieve < 1:
            raise InvalidConfig("k_retrieve must be positive")
        if not 1 <= self.k_prime <= self.k_retrieve:
            raise InvalidConfig(
                f"k_prime {self.k_prime} must lie in [1, k_retrieve={self.k_retrieve}]")
        if self.mode not in (MODE_FINAL, MODE_INTERMEDIATE):
            raise InvalidConfig(f"unknown pipeline mode {self.mode!r}")
        if self.mode == MODE_INTERMEDIATE and self.final_scorer is None:
            raise InvalidConfig("intermediate mode requires a final_scorer")


@dataclass
class PipelineResult:
    query_id: int
    retrieved: RankedList
    reranked: RankedList
    top1_id: int
    timings_us: dict[str, float] = field(default_factory=dict)


class Pipeline:
    """Bound pipeline: an index, reranker params, and candidate embeddings, of
    one dim (else ``InvalidShape``), since one query vector serves every stage."""

    def __init__(self, index: CandidateIndex, params: CmcParams,
                 candidates: EmbeddingTable):
        if not index.dim == candidates.dim == params.model_dim:
            raise InvalidShape(f"index dim {index.dim}, candidate dim {candidates.dim} "
                               f"and model dim {params.model_dim} differ")
        self.index = index
        self.params = params
        self.candidates = candidates

    def run_query(self, cfg: PipelineConfig, query_id: int, query) -> PipelineResult:
        """Run all stages for one query; per-stage wall time in microseconds."""
        q = encode(query, self.index.dim)

        t0 = time.perf_counter()
        retrieved = search_topk(self.index, q, cfg.k_retrieve)
        t1 = time.perf_counter()

        k_prime = min(cfg.k_prime, len(retrieved))
        reranked = rerank(self.params, q, retrieved, self.candidates, k_prime)
        t2 = time.perf_counter()

        final_us = 0.0
        if cfg.mode == MODE_INTERMEDIATE and len(reranked):
            rows = self.candidates.batch(reranked.ids)
            scores = np.asarray(cfg.final_scorer(query_id, q, reranked.ids, rows), np.float64)
            if scores.shape != reranked.ids.shape:
                raise ValueError(f"final scorer returned shape {scores.shape} "
                                 f"for {len(reranked)} candidates")
            top1 = int(rank_by_score(reranked.ids, scores, 1).ids[0])
            final_us = (time.perf_counter() - t2) * 1e6
        else:
            top1 = int(reranked.ids[0]) if len(reranked) else -1

        return PipelineResult(
            query_id=query_id,
            retrieved=retrieved,
            reranked=reranked,
            top1_id=top1,
            timings_us={
                "retrieve": (t1 - t0) * 1e6,
                "rerank": (t2 - t1) * 1e6,
                "final": final_us,
            },
        )

    def run_batch(self, cfg: PipelineConfig,
                  queries: Sequence[tuple[int, np.ndarray]],
                  gold_by_query: Mapping[int, int] | None = None,
                  threads: int = 1):
        """Map run_query over the batch on ``threads`` workers, at least 1.

        Returns (results, aggregate metrics, per-query errors).  Metrics are
        empty unless golds are supplied; ``recall@k`` of the reranked list
        comes with ``retriever_recall@k`` of the retrieved one, its first k
        ids, at the same cutoffs (1 and K'), and ``accuracy_normalized`` counts
        the queries whose gold was retrieved; a query that fails on its data (a
        ``CmcRankError``) is collected in the error map rather than aborting
        the batch, while any other exception is a bug and propagates.
        Errors and golds are keyed by query id, so before any query runs a
        repeated query id raises ``DuplicateId`` and, when golds are
        supplied, a query id without one raises ``InvalidInput``.
        """
        if threads < 1:
            raise InvalidConfig(f"threads must be 1 or more, got {threads}")
        repeated = [q for q, n in Counter(q for q, _ in queries).items() if n > 1]
        if repeated:
            raise DuplicateId(f"query id {repeated[0]} appears more than once in the batch")
        if gold_by_query is not None:
            missing = [q for q, _ in queries if q not in gold_by_query]
            if missing:
                raise InvalidInput(f"query id {missing[0]} has no gold")

        results: list[PipelineResult | None] = [None] * len(queries)
        errors: dict[int, Exception] = {}

        def one(i: int) -> None:
            query_id, query = queries[i]
            try:
                results[i] = self.run_query(cfg, query_id, query)
            except CmcRankError as exc:
                errors[query_id] = exc

        if threads > 1 and len(queries) > 1:
            with _workers_hold_cpus(threads - 1), ThreadPoolExecutor(threads) as pool:
                list(pool.map(one, range(len(queries))))
        else:
            for i in range(len(queries)):
                one(i)

        ok = [r for r in results if r is not None]
        metrics: dict[str, float] = {}
        if gold_by_query is not None and ok:
            golds = [gold_by_query[r.query_id] for r in ok]
            ks = sorted({1, cfg.k_prime})
            # The retrieved ranks flag the pool and give the retriever's recall.
            retrieved = gold_ranks([r.retrieved.ids for r in ok], golds)
            metrics = compute_metrics(gold_ranks([r.reranked.ids for r in ok], golds), ks,
                                      in_pool=retrieved > 0, require_normalized=False)
            metrics.update({f"retriever_recall@{k}": float(np.mean(
                (retrieved > 0) & (retrieved <= k))) for k in ks})
            metrics["accuracy_end_to_end"] = float(np.mean(
                [r.top1_id == gold for r, gold in zip(ok, golds)]))
        return ok, metrics, errors
