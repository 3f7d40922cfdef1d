"""cmcrank: a desk-scale retrieve-and-rerank engine.

An exact inner-product retriever over single-vector candidate embeddings,
a two-layer positional-encoding-free self-attention reranker that compares
a query against many candidates in one forward pass, the training loop for
that reranker, and an evaluation / latency-benchmark harness.
"""

from . import errors
from .encoders import (EmbeddingTable, encode, load_embedding_file,
                       load_embedding_text, save_embedding_file)
from .evaluation import (BenchReport, BenchRow, EvalRecord, SyntheticDataset,
                         SyntheticTaskSpec, bench_latency, compute_metrics,
                         generate_synthetic, metrics_to_csv,
                         records_from_rankings)
from .index import (CandidateIndex, RankedList, build_index, open_index,
                    rank_by_score, search_topk)
from .pipeline import (Pipeline, PipelineConfig, PipelineResult, ScorerHandle,
                       gold_oracle_scorer, noisy_oracle_scorer)
from .reranker import (CmcParams, ContextualizedSet, CmcTape, ScoreVector,
                       cmc_forward, cmc_forward_recorded, cmc_score, rerank)
from .training import (StepRecord, TrainingBatch, TrainingConfig, TrainingLog,
                       assemble_batch_example, compute_loss, sample_negatives,
                       train)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "EmbeddingTable", "encode",
    "load_embedding_file", "load_embedding_text", "save_embedding_file",
    "BenchReport", "BenchRow", "EvalRecord", "SyntheticDataset",
    "SyntheticTaskSpec", "bench_latency", "compute_metrics",
    "generate_synthetic", "metrics_to_csv", "records_from_rankings",
    "CandidateIndex", "RankedList", "build_index", "open_index",
    "rank_by_score", "search_topk",
    "Pipeline", "PipelineConfig", "PipelineResult",
    "ScorerHandle", "gold_oracle_scorer", "noisy_oracle_scorer",
    "CmcParams", "ContextualizedSet", "CmcTape", "ScoreVector",
    "cmc_forward", "cmc_forward_recorded", "cmc_score", "rerank",
    "StepRecord", "TrainingBatch", "TrainingConfig", "TrainingLog",
    "assemble_batch_example", "compute_loss", "sample_negatives", "train",
]
