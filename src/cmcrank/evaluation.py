"""Ranking metrics, the synthetic confusable-candidates task, and the
forward-latency benchmark.

Every ranking metric reads one integer array: each query's 1-based gold
rank, 0 where the gold is not ranked.  Recall@k and unnormalized
accuracy divide by all queries; normalized accuracy divides only by
queries whose gold survived retrieval (the ``in_pool`` flags); MRR@10
counts 1/rank for golds ranked in the top 10, else 0.

The synthetic task plants groups of ``m`` confusable candidates that share
one surface vector but carry distinct latent vectors.  The retriever index
stores surface-only embeddings (latent part zeroed), so the first stage
cannot tell confusables apart, while the reranker-side embeddings keep
both parts and a latent dot product identifies the gold.  This isolates
exactly the signal that joint query-candidate contextualization can use
and a single-vector retriever cannot.
"""
from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - benchmark falls back to ambient threads
    threadpool_limits = None

from .encoders import _as_ids
from .errors import InvalidConfig, InvalidInput, UndefinedMetric
from .reranker import CmcParams, cmc_forward, cmc_score

MRR_CUTOFF = 10


def gold_ranks(rankings: Sequence[Sequence[int]], gold_ids: Sequence[int]) -> np.ndarray:
    """Each gold's 1-based rank in its ranking, or 0 where it is absent.
    Ids are checked as candidate ids; a repeated id raises ``InvalidInput``."""
    ranks = np.zeros(len(gold_ids), dtype=np.int64)
    for i, (ranked, gold) in enumerate(zip(rankings, _as_ids(gold_ids), strict=True)):
        ranked = _as_ids(ranked)
        ids, counts = np.unique(ranked, return_counts=True)
        if len(ids) != len(ranked):
            raise InvalidInput(f"ranking {i} (counting from 0) repeats id {ids[counts > 1][0]}")
        hit = ranked == gold
        ranks[i] = hit.argmax() + 1 if hit.any() else 0
    return ranks


def compute_metrics(ranks: np.ndarray, k_values: Iterable[int],
                    in_pool: np.ndarray | None = None,
                    require_normalized: bool = True) -> dict[str, float]:
    """Recall@k for each k >= 1, both accuracies, and MRR@10 from
    :func:`gold_ranks`.  ``in_pool`` flags the queries whose gold survived
    retrieval, by default those whose gold is ranked.  With
    ``require_normalized`` (the default), an evaluation set whose every
    gold missed the pool raises UndefinedMetric; otherwise the key is
    simply omitted.
    """
    ranks = np.asarray(ranks)
    if ranks.ndim != 1 or not ranks.size:
        raise InvalidInput(f"expected a non-empty 1-D rank array, got shape {ranks.shape}")
    ks = sorted(set(int(k) for k in k_values))
    if ks and ks[0] < 1:
        raise InvalidConfig(f"recall cutoff {ks[0]} is below 1")
    found = ranks > 0
    pooled = ranks[found if in_pool is None else np.asarray(in_pool, dtype=bool)]

    metrics = {f"recall@{k}": float(np.mean(found & (ranks <= k))) for k in ks}
    metrics["accuracy_unnormalized"] = float(np.mean(ranks == 1))
    if pooled.size:
        metrics["accuracy_normalized"] = float(np.mean(pooled == 1))
    elif require_normalized:
        raise UndefinedMetric("normalized accuracy undefined: no query has its "
                              "gold in the retrieval pool")
    # A Python sum in query order: numpy's pairwise sum could round differently.
    metrics[f"mrr@{MRR_CUTOFF}"] = sum(
        1.0 / rank for rank in ranks[found & (ranks <= MRR_CUTOFF)].tolist()) / len(ranks)
    return metrics


def metrics_to_csv(metrics: dict[str, float]) -> str:
    lines = ["metric,value"]
    for name, value in metrics.items():
        lines.append(f"{name},{value:.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic task


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Shape of the generated retrieval task (one query per confusable group)."""

    corpus_size: int = 5000
    confusables: int = 8       # group size m; one gold per group
    surface_dim: int = 48
    latent_dim: int = 16
    surface_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        counts = (self.corpus_size, self.confusables, self.surface_dim, self.latent_dim, self.seed)
        if not all(isinstance(c, int | np.integer) for c in counts):
            raise InvalidConfig("corpus_size, confusables, surface_dim, latent_dim and seed "
                                "must be integers")
        if self.confusables < 2:
            raise InvalidConfig("need at least 2 confusables per query")
        if self.surface_dim < 1 or self.latent_dim < 1:
            raise InvalidConfig("surface_dim and latent_dim must be positive")
        if self.corpus_size < self.confusables:
            raise InvalidConfig("corpus smaller than one confusable group")
        if not 0 <= self.surface_noise < np.inf:
            raise InvalidConfig("surface_noise must be finite and nonnegative, "
                                f"got {self.surface_noise}")

    @property
    def model_dim(self) -> int:
        return self.surface_dim + self.latent_dim


@dataclass
class SyntheticDataset:
    spec: SyntheticTaskSpec
    candidate_ids: np.ndarray
    retriever_embeddings: np.ndarray   # latent part zeroed
    reranker_embeddings: np.ndarray    # full surface + latent
    query_ids: np.ndarray
    query_embeddings: np.ndarray
    gold_ids: np.ndarray


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return rows / norms


def generate_synthetic(spec: SyntheticTaskSpec) -> SyntheticDataset:
    """Deterministically build the confusable-candidates task for a spec."""
    rng = np.random.default_rng(spec.seed)
    m = spec.confusables
    n_groups = spec.corpus_size // m
    n = n_groups * m

    surfaces = _unit_rows(rng.standard_normal(
        (n_groups, spec.surface_dim)).astype(np.float32))
    latents = _unit_rows(rng.standard_normal(
        (n, spec.latent_dim)).astype(np.float32))
    candidate_surface = np.repeat(surfaces, m, axis=0)

    reranker_embeddings = np.concatenate([candidate_surface, latents], axis=1)
    retriever_embeddings = np.concatenate(
        [candidate_surface, np.zeros_like(latents)], axis=1)

    query_latent = _unit_rows(rng.standard_normal(
        (n_groups, spec.latent_dim)).astype(np.float32))
    noise = rng.standard_normal((n_groups, spec.surface_dim)).astype(np.float32)
    query_surface = _unit_rows(surfaces + spec.surface_noise * noise)
    query_embeddings = np.concatenate([query_surface, query_latent], axis=1)

    group_latents = latents.reshape(n_groups, m, spec.latent_dim)
    affinity = np.einsum("gmd,gd->gm", group_latents, query_latent)
    gold_member = affinity.argmax(axis=1)
    gold_ids = (np.arange(n_groups) * m + gold_member).astype(np.uint64)

    return SyntheticDataset(
        spec=spec,
        candidate_ids=np.arange(n, dtype=np.uint64),
        retriever_embeddings=retriever_embeddings.astype(np.float32),
        reranker_embeddings=reranker_embeddings.astype(np.float32),
        query_ids=np.arange(n_groups, dtype=np.uint64),
        query_embeddings=query_embeddings.astype(np.float32),
        gold_ids=gold_ids,
    )


# ---------------------------------------------------------------------------
# Latency benchmark


@dataclass(frozen=True)
class BenchRow:
    k: int
    median_us: float
    p95_us: float
    error: str | None = None


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    pinned: bool = False  # timed region ran on one BLAS thread

    def to_csv(self) -> str:
        lines = ["k,median_us,p95_us,error"]
        for row in self.rows:
            if row.error is None:
                lines.append(f"{row.k},{row.median_us:.3f},{row.p95_us:.3f},")
            else:
                lines.append(f"{row.k},,,{row.error}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        lines = [f"{'K':>8} {'median (us)':>16} {'p95 (us)':>16}"]
        for row in self.rows:
            if row.error is None:
                lines.append(f"{row.k:>8} {row.median_us:>16.1f} {row.p95_us:>16.1f}")
            else:
                lines.append(f"{row.k:>8} {'failed: ' + row.error:>33}")
        lines.append(f"BLAS threads pinned to 1: {'yes' if self.pinned else 'no'}")
        return "\n".join(lines)


def bench_latency(params: CmcParams, k_values: Sequence[int],
                  repeats: int = 5, seed: int = 0) -> BenchReport:
    """Median/p95 wall time of one forward + scoring pass per candidate count.

    The inputs are random vectors of ``params.model_dim``.  One warm-up
    pass per K is excluded from the statistics.  The timed region is
    pinned to one BLAS thread through threadpoolctl, so medians stay
    comparable across K; if threadpoolctl cannot be imported it runs with
    the ambient thread count.  ``pinned`` on the report says which.  An
    allocation failure at some K is recorded on that row instead of
    crashing.
    """
    k_values = [int(k) for k in k_values]
    if any(b <= a for a, b in zip(k_values, k_values[1:])):
        raise InvalidConfig("k values must be strictly increasing")
    if repeats < 5:
        raise InvalidConfig("need at least 5 repeats per row")

    rng = np.random.default_rng(seed)
    pinned = threadpool_limits is not None
    report = BenchReport(pinned=pinned)
    pin = threadpool_limits(limits=1) if pinned else nullcontext()
    with pin:
        for k in k_values:
            try:
                h_query = rng.standard_normal((1, params.model_dim)).astype(np.float32)
                h_cands = rng.standard_normal((1, k, params.model_dim)).astype(np.float32)
                cmc_score(cmc_forward(params, h_query, h_cands))  # warm-up
                times = np.empty(repeats, dtype=np.float64)
                for i in range(repeats):
                    t0 = time.perf_counter()
                    cmc_score(cmc_forward(params, h_query, h_cands))
                    times[i] = (time.perf_counter() - t0) * 1e6
                report.rows.append(BenchRow(
                    k=k, median_us=float(np.median(times)),
                    p95_us=float(np.percentile(times, 95))))
            except MemoryError as exc:
                report.rows.append(BenchRow(k=k, median_us=float("nan"),
                                            p95_us=float("nan"),
                                            error=f"out of memory: {exc}"))
    return report
