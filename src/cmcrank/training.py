"""Reranker optimization: listwise loss, hard-negative sampling, epoch loop.

The loss on one query's K-candidate list is cross-entropy against the gold
plus a KL regularizer pulling the reranker's score distribution toward the
retriever's:

    loss = sum_i ( -lambda1 * y_i * log p_i  +  lambda2 * p_i * log(p_i / r_i) )

with p = softmax(reranker scores) and r = softmax(retriever scores).

Negatives mix a fixed head and a sampled tail: the top ``p * (K-1)`` pool
entries are always kept, the remainder are drawn without replacement with
probability proportional to exp(retriever score), renormalizing after each
draw.  The gold never enters the pool and is inserted at an rng-chosen
position in the final candidate list.

The retriever is frozen, so a query's pool is the same in every epoch:
``train`` searches each training query's pool once per call, before the
first epoch (so epoch 1 carries that cost), and keeps it as ``n x P`` int32
index rows plus ``n x P`` float32 scores (``n * P * 8`` bytes, with
``P = min(negative_pool_size, len(index))``).  A step whose loss or
gradient norm is not finite raises ``NumericError`` before the update.
AdamW runs without weight decay, on ``nn.optim``'s fixed warmup.

A step first assembles all of its examples, drawing from the generator in
example order, then runs one taped ``cmc_forward`` over the stacked
(B, d) queries and (B, K, d) candidates and one ``CmcTape.backward`` on
the (B, K) score gradients; ``compute_loss`` runs once per example, in
order.  The summed gradients equal, bit for bit, those of a loop that runs
a forward and a backward per example and adds them in order.
``compute_loss`` flushes tiny entries of its score gradient to zero, as
the backward does for the scoring head's and the attention scores'
gradients (``nn.ops.flush_tiny``): entries below the square root of the
smallest normal float, whose products would be subnormal and slow.
``adamw_step`` gets the gradients packed into one vector laid out like
``CmcParams.flat``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoders import EmbeddingTable, _as_ids
from .errors import (InvalidConfig, InvalidIndex, InvalidInput, InvalidShape,
                     NumericError, PoolTooSmall)
from .index import CandidateIndex, RankedList, search_topk
from .nn.optim import OptimizerState, adamw_step
from .nn.ops import flush_tiny
from .reranker import (CmcParams, ContextualizedSet, cmc_forward_recorded,
                       cmc_score)

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run."""

    lambda1: float = 0.5
    lambda2: float = 0.5
    k_train: int = 64              # gold + 63 negatives
    fixed_fraction: float = 0.5    # share of negatives fixed to the pool top
    negative_pool_size: int = 1024
    base_lr: float = 1e-5
    batch_size: int = 4
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise InvalidConfig("loss weights must be finite and nonnegative")
        if self.lambda1 + self.lambda2 <= 0:
            raise InvalidConfig("at least one of lambda1, lambda2 must be positive")
        if not 0.0 <= self.fixed_fraction <= 1.0:
            raise InvalidConfig("fixed_fraction must lie in [0, 1]")
        if self.k_train < 2:
            raise InvalidConfig("k_train must include the gold and at least one negative")
        if self.k_train > self.negative_pool_size + 1:
            raise InvalidConfig(
                f"k_train {self.k_train} exceeds negative_pool_size "
                f"{self.negative_pool_size} + 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidConfig("batch_size and epochs must be positive")
        if not 0 <= self.base_lr < math.inf:
            raise InvalidConfig(f"base_lr must be finite and nonnegative, got {self.base_lr}")


@dataclass
class TrainingBatch:
    """One query's training example: embeddings, gold slot, retriever scores."""

    query: np.ndarray
    candidates: np.ndarray        # (k_train, dim)
    gold_position: int
    retriever_scores: np.ndarray  # (k_train,)


@dataclass
class StepRecord:
    step: int
    epoch: int
    effective_lr: float
    loss: float


@dataclass
class TrainingLog:
    steps: list[StepRecord] = field(default_factory=list)

    def epoch_mean_loss(self, epoch: int) -> float:
        losses = [s.loss for s in self.steps if s.epoch == epoch]
        return float(np.mean(losses)) if losses else math.nan

    def to_csv(self) -> str:
        lines = ["step,epoch,effective_lr,loss"]
        for s in self.steps:
            lines.append(f"{s.step},{s.epoch},{s.effective_lr:.10g},{s.loss:.10g}")
        return "\n".join(lines) + "\n"


def compute_loss(scores: np.ndarray, gold_position: int,
                 retriever_scores: np.ndarray,
                 lambda1: float, lambda2: float) -> tuple[float, np.ndarray]:
    """Loss value and its gradient w.r.t. the raw reranker scores.

    The gradient has the scores' dtype, with entries below the square root
    of its smallest normal number flushed to zero (``nn.ops.flush_tiny``):
    a candidate scored far below the best gets a probability whose
    products in the backward would be subnormal.
    """
    scores = np.asarray(scores)
    retriever_scores = np.asarray(retriever_scores)
    k = scores.shape[0]
    if scores.shape != retriever_scores.shape or scores.ndim != 1:
        raise InvalidShape(
            f"scores {scores.shape} and retriever scores {retriever_scores.shape} "
            "must be equal-length vectors")
    if not 0 <= gold_position < k:
        raise InvalidIndex(f"gold position {gold_position} not in [0, {k})")

    s = scores.astype(np.float64)
    p = np.exp(s - s.max())
    p /= p.sum()
    r = retriever_scores.astype(np.float64)
    r = np.exp(r - r.max())
    r /= r.sum()

    log_p = np.log(np.maximum(p, LOG_CLAMP))
    log_ratio = log_p - np.log(np.maximum(r, LOG_CLAMP))
    kl = float(np.dot(p, log_ratio))
    loss = -lambda1 * log_p[gold_position] + lambda2 * kl

    # Exact gradient of the loss as computed: where the clamp is active the
    # log is flat, which the indicator terms below account for.
    unclamped = (p > LOG_CLAMP).astype(np.float64)
    d_scores = np.zeros(k, dtype=np.float64)
    if lambda1 and unclamped[gold_position]:
        d_scores += lambda1 * p
        d_scores[gold_position] -= lambda1
    if lambda2:
        g = log_ratio + unclamped
        d_scores += lambda2 * p * (g - float(np.dot(p, g)))
    return float(loss), flush_tiny(d_scores.astype(scores.dtype))


def sample_negatives(ranked_pool: RankedList, gold_id: int,
                     cfg: TrainingConfig, rng: np.random.Generator) -> np.ndarray:
    """Pick ``k_train - 1`` negative ids: a fixed top block plus score-
    proportional draws without replacement from the remainder.

    Each draw takes one uniform, all of them from one ``rng.random`` call,
    and searches the running sum of the weights with the picked entries
    set to 0.0.  Adding 0.0 is exact, so the sums at the entries still in
    play are the same bits as over those entries alone.
    """
    mask = ranked_pool.ids != np.uint64(gold_id)
    pool_ids = ranked_pool.ids[mask]
    pool_scores = ranked_pool.scores[mask]
    needed = cfg.k_train - 1
    if len(pool_ids) < needed:
        raise PoolTooSmall(
            f"pool has {len(pool_ids)} non-gold candidates, need {needed}")

    n_fixed = int(math.floor(cfg.fixed_fraction * needed))
    chosen = np.empty(needed, dtype=np.uint64)
    chosen[:n_fixed] = pool_ids[:n_fixed]

    n_sampled = needed - n_fixed
    if n_sampled:
        rest_ids = pool_ids[n_fixed:]
        rest_scores = pool_scores[n_fixed:].astype(np.float64)
        weights = np.exp(rest_scores - rest_scores.max())
        alive = np.ones(len(rest_ids), dtype=bool)
        cum = np.empty_like(weights)
        for t, u in enumerate(rng.random(n_sampled), start=n_fixed):
            np.cumsum(weights, out=cum)
            pick = int(np.searchsorted(cum, u * cum[-1], side="right"))
            if pick == len(cum):
                # No running sum exceeds the target (the weights left are 0
                # or subnormal): take the last entry still in play.
                pick = int(np.flatnonzero(alive)[-1])
            chosen[t] = rest_ids[pick]
            weights[pick] = 0.0
            alive[pick] = False
    return chosen


def assemble_batch_example(query: np.ndarray, gold_id: int,
                           pool: RankedList,
                           index: CandidateIndex,
                           candidates: EmbeddingTable,
                           cfg: TrainingConfig,
                           rng: np.random.Generator) -> TrainingBatch:
    """Sample negatives from the query's retrieved pool and insert the gold
    at a random slot."""
    negatives = sample_negatives(pool, gold_id, cfg, rng)

    gold_position = int(rng.integers(0, cfg.k_train))
    ids = np.empty(cfg.k_train, dtype=np.uint64)
    ids[:gold_position] = negatives[:gold_position]
    ids[gold_position] = gold_id
    ids[gold_position + 1:] = negatives[gold_position:]

    retriever_scores = index.scores_for(query, ids)
    return TrainingBatch(
        query=np.asarray(query, dtype=np.float32),
        candidates=candidates.batch(ids),
        gold_position=gold_position,
        retriever_scores=retriever_scores,
    )


def train(cfg: TrainingConfig,
          queries: np.ndarray,
          gold_ids: Sequence[int] | np.ndarray,
          index: CandidateIndex,
          candidates: EmbeddingTable,
          params: CmcParams,
          epoch_callback=None) -> TrainingLog:
    """Run the full epoch loop, mutating ``params`` in place.

    A non-finite query (``NumericError`` naming its row), a negative or
    non-integer gold id (``InvalidInput``), or a gold id missing from
    ``index`` or ``candidates`` or a pooled id missing from ``candidates``
    (``MissingCandidate``) raises before the first update.

    Deterministic given ``cfg.seed``: example order, negative draws and gold
    positions all come from one generator consumed in a fixed order.
    """
    queries = np.asarray(queries, dtype=np.float32)
    gold_ids = _as_ids(gold_ids)
    n = len(queries)
    if n == 0:
        raise InvalidInput("training set is empty")
    if len(gold_ids) != n:
        raise InvalidShape(f"{n} queries but {len(gold_ids)} gold ids")
    if queries.ndim != 2:
        raise InvalidShape(f"queries must be (count, dim), got {queries.shape}")
    finite = np.isfinite(queries).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"training query row {int(np.argmin(finite))} is not finite")
    index._rows(gold_ids)
    candidates._rows(gold_ids)

    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    state = OptimizerState(learning_rate=cfg.base_lr,
                           total_steps=cfg.epochs * steps_per_epoch)

    # The retriever is frozen, so each query's pool is searched once here
    # and reused in every epoch.  Pool ids are kept as index rows.
    pool_size = min(cfg.negative_pool_size, len(index))
    pool_rows = np.empty((n, pool_size),
                         dtype=np.int32 if len(index) < 2 ** 31 else np.int64)
    pool_scores = np.empty((n, pool_size), dtype=np.float32)
    for i in range(n):
        pool = search_topk(index, queries[i], cfg.negative_pool_size)
        pool_rows[i] = np.searchsorted(index.ids, pool.ids)
        pool_scores[i] = pool.scores
    candidates._rows(index.ids[np.unique(pool_rows)])

    log = TrainingLog()
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            effective_lr = state.effective_lr()
            examples = [assemble_batch_example(
                queries[qi], int(gold_ids[qi]),
                RankedList(ids=index.ids[pool_rows[qi]], scores=pool_scores[qi]),
                index, candidates, cfg, rng) for qi in chunk]
            tape = cmc_forward_recorded(
                params, np.stack([e.query for e in examples]),
                np.stack([e.candidates for e in examples]))
            d_scores = np.empty((len(chunk), cfg.k_train), dtype=np.float32)
            batch_loss = 0.0
            for b, example in enumerate(examples):
                scores = cmc_score(ContextualizedSet(
                    tape.ctx.h_query[b], tape.ctx.h_candidates[b])).scores
                loss, d_scores[b] = compute_loss(
                    scores, example.gold_position, example.retriever_scores,
                    cfg.lambda1, cfg.lambda2)
                batch_loss += loss
            grad = params.pack(tape.backward(d_scores)[0])
            grad *= 1.0 / len(chunk)
            # One sum covers the loss and every gradient entry: a NaN or inf
            # anywhere, or a float32 squared norm past range, makes it
            # non-finite and raises before the update.
            grad_sq = float(np.vdot(grad, grad))
            if not math.isfinite(batch_loss + grad_sq):
                raise NumericError(
                    f"step {step + 1} (epoch {epoch}): loss {batch_loss / len(chunk)!r}, "
                    f"squared gradient norm {grad_sq!r}; parameters left unchanged")
            adamw_step(params.flat, grad, state)
            step += 1
            log.steps.append(StepRecord(step=step, epoch=epoch,
                                        effective_lr=effective_lr,
                                        loss=batch_loss / len(chunk)))
        if epoch_callback is not None:
            epoch_callback(epoch, params, log)
    return log
