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
``P = min(negative_pool_size, len(index))``).  A pool too small for
``k_train - 1`` negatives raises ``PoolTooSmall`` before the first update,
and a step whose loss or gradient norm is not finite raises
``NumericError`` before its update.
AdamW runs without weight decay, on ``nn.optim``'s fixed warmup.

Examples are assembled a chunk of steps at a time (about ``CHUNK_EXAMPLES``
examples, so assembly's memory is set by the chunk, not the training set):
every example draws its uniforms and then its gold slot from the one
generator, in example order, the sampler then runs its draws over all of
the chunk's pools at once, and one lookup of the drawn ids in the table
gives their rows.  A step runs one taped ``cmc_forward`` over its stacked
(B, d) queries and (B, K, d) candidates, one ``cmc_score`` and one
``compute_loss`` over the (B, K) scores, and one ``CmcTape.backward``,
whose gradient vector, laid out like ``CmcParams.flat`` in one buffer
per ``train`` call that every backward overwrites, goes to
``adamw_step`` as it is.  Draws, losses and summed gradients equal, bit for
bit, those of a loop that samples, runs a forward and a backward per
example and adds them in order.  ``compute_loss`` flushes tiny entries of
its score gradient to zero, as the backward does for the scoring head's
and the attention scores' gradients (``nn.ops.flush_tiny``): entries below
the square root of the smallest normal float, whose products would be
subnormal and slow.
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
from .reranker import CmcParams, cmc_forward_recorded, cmc_score

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
        for name in ("k_train", "negative_pool_size", "batch_size", "epochs"):
            if not isinstance(getattr(self, name), int | np.integer):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
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
    """A chunk of C training examples, one row each: query and candidate
    embeddings, gold slot, retriever scores."""

    query: np.ndarray             # (C, dim)
    candidates: np.ndarray        # (C, k_train, dim)
    gold_position: np.ndarray     # (C,)
    retriever_scores: np.ndarray  # (C, k_train)


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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two (B, K) arrays, as a (B, 1) column, with
    the bits of ``np.dot`` on each row (a summed elementwise product differs)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0]


def compute_loss(scores: np.ndarray, gold_position,
                 retriever_scores: np.ndarray,
                 lambda1: float, lambda2: float):
    """Loss values and their gradient w.r.t. the raw reranker scores.

    Takes (B, K) scores with B gold positions, one example being a batch
    of one, and returns ((B,) losses, (B, K) gradients), each row the
    bits its example gives alone.  The gradient has the scores' dtype,
    with entries below the square root of its smallest normal number
    flushed to zero (``nn.ops.flush_tiny``): a candidate scored far below
    the best gets a probability whose products in the backward would be
    subnormal.
    """
    scores = np.asarray(scores)
    retriever_scores = np.asarray(retriever_scores)
    if scores.shape != retriever_scores.shape or scores.ndim != 2:
        raise InvalidShape(
            f"scores {scores.shape} and retriever scores {retriever_scores.shape} "
            "must be equal-shaped (B, K) arrays")
    s = scores.astype(np.float64)
    batch, k = s.shape
    gold = np.asarray(gold_position)
    if gold.dtype.kind not in "iu":
        raise InvalidIndex(f"gold positions must be integers, got dtype {gold.dtype}")
    if gold.shape != (batch,):
        raise InvalidShape(f"{gold.shape} gold positions for {batch} score rows")
    outside = (gold < 0) | (gold >= k)
    if outside.any():
        raise InvalidIndex(f"gold position {gold[outside][0]} not in [0, {k})")
    rows = np.arange(batch)

    p = np.exp(s - s.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    r = retriever_scores.astype(np.float64)
    r = np.exp(r - r.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)

    log_p = np.log(np.maximum(p, LOG_CLAMP))
    log_ratio = log_p - np.log(np.maximum(r, LOG_CLAMP))
    loss = -lambda1 * log_p[rows, gold] + lambda2 * _row_dots(p, log_ratio)[:, 0]

    # Exact gradient of the loss as computed: where the clamp is active the
    # log is flat, which the indicator terms below account for.
    unclamped = (p > LOG_CLAMP).astype(np.float64)
    d_scores = np.zeros_like(p)
    if lambda1:
        ce = unclamped[rows, gold] > 0
        d_scores[ce] += lambda1 * p[ce]
        d_scores[rows[ce], gold[ce]] -= lambda1
    if lambda2:
        g = log_ratio + unclamped
        d_scores += lambda2 * p * (g - _row_dots(p, g))
    return loss, flush_tiny(d_scores.astype(scores.dtype))


def _draw_slots(scores: np.ndarray, in_play: np.ndarray,
                uniforms: np.ndarray) -> np.ndarray:
    """Row-wise draws without replacement, with probability proportional to
    exp(score), among the entries of the (C, R) ``scores`` that ``in_play``
    marks; the others weigh 0.0.  Returns the (C, S) slots drawn with the
    (C, S) uniforms, and clears their ``in_play`` entries.

    Round t takes uniform t of every row and searches the row's running
    sum of the weights, with the slots already drawn set to 0.0, for the
    first sum above that uniform times the total.  Adding 0.0 is exact, so
    the sums at the entries in play are the same bits as over those
    entries alone.  A row where no sum is above the target (the weights
    left are 0 or subnormal) takes its last entry still in play.
    """
    count, width = scores.shape
    weights = scores.astype(np.float64)
    weights[~in_play] = -np.inf
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    every = np.arange(count)
    cum = np.empty_like(weights)
    slots = np.empty(uniforms.shape, dtype=np.intp)
    for t in range(uniforms.shape[1]):
        np.cumsum(weights, axis=1, out=cum)
        above = cum > (uniforms[:, t] * cum[:, -1])[:, None]
        pick = above.argmax(axis=1)
        short = ~above[every, pick]
        if short.any():
            pick[short] = width - 1 - in_play[short, ::-1].argmax(axis=1)
        slots[:, t] = pick
        weights[every, pick] = 0.0
        in_play[every, pick] = False
    return slots


def _fixed_count(cfg: TrainingConfig) -> int:
    """Negatives taken from the top of the pool, the rest being sampled."""
    return int(math.floor(cfg.fixed_fraction * (cfg.k_train - 1)))


def _negatives(pools: np.ndarray, scores: np.ndarray, gold: np.ndarray,
               cfg: TrainingConfig, uniforms: np.ndarray) -> np.ndarray:
    """The ``k_train - 1`` negatives of each of C examples: the first
    ``n_fixed`` non-gold entries of its (P,) pool, best first, then draws
    from the entries after them with the (C, S) uniforms.  Pools are ids
    or index rows, (C, P), with their scores and the (C,) golds."""
    n_fixed = _fixed_count(cfg)
    width = pools.shape[1]
    is_gold = pools == gold[:, None]
    gold_at = np.where(is_gold.any(axis=1), is_gold.argmax(axis=1), width)
    # A gold among the first n_fixed entries moves the fixed block one on.
    cols = np.arange(n_fixed)
    fixed = np.take_along_axis(pools, cols + (cols >= gold_at[:, None]), axis=1)
    if not uniforms.shape[1]:
        return fixed
    last_fixed = n_fixed - 1 + (gold_at < n_fixed)
    in_play = (np.arange(width) > last_fixed[:, None]) & ~is_gold
    drawn = np.take_along_axis(pools, _draw_slots(scores, in_play, uniforms), axis=1)
    return np.concatenate([fixed, drawn], axis=1)


def sample_negatives(ranked_pool: RankedList, gold_id: int,
                     cfg: TrainingConfig, rng: np.random.Generator) -> np.ndarray:
    """Pick ``k_train - 1`` negative ids: a fixed top block plus score-
    proportional draws without replacement from the remainder.

    The draws take their uniforms from one ``rng.random`` call, one per
    draw, and run as a one-row case of the row-wise sampler that ``train``
    runs over a chunk of examples.
    """
    gold = np.array([gold_id], dtype=np.uint64)
    available = len(ranked_pool) - int(np.any(ranked_pool.ids == gold))
    needed = cfg.k_train - 1
    if available < needed:
        raise PoolTooSmall(
            f"pool has {available} non-gold candidates, need {needed}")
    uniforms = rng.random(needed - _fixed_count(cfg))
    return _negatives(ranked_pool.ids[None], ranked_pool.scores[None], gold,
                      cfg, uniforms[None])[0]


@dataclass(frozen=True)
class NegativePools:
    """Every training query's frozen-retriever pool, searched once per
    ``train`` call, as index rows: ``rows[i]`` holds the P best rows of
    ``index.matrix`` for query i, best first, ``scores[i]`` their retriever
    scores and ``gold_rows[i]`` its gold's row.  Nothing else is kept."""

    rows: np.ndarray              # (n, P) int32, or int64 for 2**31+ rows
    scores: np.ndarray            # (n, P) float32
    gold_rows: np.ndarray         # (n,) index rows

    @classmethod
    def search(cls, cfg: TrainingConfig, queries: np.ndarray,
               gold_ids: np.ndarray, index: CandidateIndex,
               candidates: EmbeddingTable) -> "NegativePools":
        """Search each query's pool; a gold missing from either store, a
        pooled id missing from ``candidates`` (``MissingCandidate``) or a
        pool with fewer than ``k_train - 1`` non-gold entries
        (``PoolTooSmall``) raises."""
        gold_rows = index._rows(gold_ids)
        n = len(queries)
        pool_size = min(cfg.negative_pool_size, len(index))
        rows = np.empty((n, pool_size),
                        dtype=np.int32 if len(index) < 2 ** 31 else np.int64)
        scores = np.empty((n, pool_size), dtype=np.float32)
        for i in range(n):
            pool = search_topk(index, queries[i], cfg.negative_pool_size)
            rows[i] = np.searchsorted(index.ids, pool.ids)
            scores[i] = pool.scores
        # Only for its MissingCandidate.  np.unique first, or union1d would
        # copy all the int32 rows as int64.
        candidates._rows(index.ids[np.union1d(np.unique(rows), gold_rows)])
        short = pool_size - (rows == gold_rows[:, None]).any(axis=1) < cfg.k_train - 1
        if short.any():
            i = int(np.argmax(short))
            raise PoolTooSmall(
                f"training query row {i}: pool has "
                f"{pool_size - int(gold_rows[i] in rows[i])} non-gold candidates, "
                f"need {cfg.k_train - 1}")
        return cls(rows, scores, gold_rows)


#: Examples assembled at a time; a chunk is the whole number of steps
#: closest to this many from below (at least one step).  Its arrays, not
#: the training set's size, set the memory that assembly takes.
CHUNK_EXAMPLES = 64


def _with_gold(negatives: np.ndarray, gold: np.ndarray,
               slots: np.ndarray) -> np.ndarray:
    """(C, K-1) negatives with each row's gold inserted at its slot."""
    width = negatives.shape[1]
    cols = np.arange(width + 1)
    out = np.take_along_axis(
        negatives, np.minimum(cols - (cols > slots[:, None]), width - 1), axis=1)
    out[np.arange(len(out)), slots] = gold
    return out


def assemble_batch_example(queries: np.ndarray, members: np.ndarray,
                           pools: NegativePools,
                           index: CandidateIndex,
                           candidates: EmbeddingTable,
                           cfg: TrainingConfig,
                           rng: np.random.Generator) -> TrainingBatch:
    """The examples of a chunk of training queries: ``queries`` holds their
    (C, d) rows and ``members`` their positions in the training set.

    Each example draws its uniforms, then its gold slot, from ``rng``, in
    example order; then the sampler runs its draws over all C pools at
    once; one id lookup in ``candidates`` and one (C, K, d) @ (C, d, 1)
    product give the candidate rows and the retriever scores.
    """
    k = cfg.k_train
    n_sampled = k - 1 - _fixed_count(cfg)
    uniforms = np.empty((len(members), n_sampled))
    slots = np.empty(len(members), dtype=np.intp)
    for c in range(len(members)):
        if n_sampled:
            rng.random(out=uniforms[c])
        slots[c] = rng.integers(0, k)

    negatives = _negatives(pools.rows[members], pools.scores[members],
                           pools.gold_rows[members], cfg, uniforms)
    index_rows = _with_gold(negatives, pools.gold_rows[members], slots)
    return TrainingBatch(
        query=queries,
        candidates=candidates.batch(index.ids[index_rows]),
        gold_position=slots,
        retriever_scores=(index.matrix[index_rows] @ queries[:, :, None])[..., 0],
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
    (``MissingCandidate``), or a pool too small for ``k_train - 1``
    negatives (``PoolTooSmall``) raises before the first update.

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
    pools = NegativePools.search(cfg, queries, gold_ids, index, candidates)

    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    state = OptimizerState(learning_rate=cfg.base_lr,
                           total_steps=cfg.epochs * steps_per_epoch)
    chunk_size = cfg.batch_size * max(1, CHUNK_EXAMPLES // cfg.batch_size)

    log = TrainingLog()
    step = 0
    grad_buffer = params.empty_like()  # every backward overwrites all of it
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for lo in range(0, n, chunk_size):
            members = order[lo:lo + chunk_size]
            chunk = assemble_batch_example(queries[members], members, pools,
                                           index, candidates, cfg, rng)
            for start in range(0, len(members), cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                size = len(members[batch])
                effective_lr = state.effective_lr()
                tape = cmc_forward_recorded(params, chunk.query[batch],
                                            chunk.candidates[batch])
                losses, d_scores = compute_loss(
                    cmc_score(tape.ctx).scores, chunk.gold_position[batch],
                    chunk.retriever_scores[batch], cfg.lambda1, cfg.lambda2)
                # A running sum adds the losses one at a time, in example
                # order.
                batch_loss = float(np.cumsum(losses)[-1])
                grad = tape.backward(d_scores, grad_buffer)[0].flat
                grad *= 1.0 / size
                # One sum covers the loss and every gradient entry: a NaN or
                # inf anywhere, or a float32 squared norm past range, makes
                # it non-finite and raises before the update.
                grad_sq = float(np.vdot(grad, grad))
                if not math.isfinite(batch_loss + grad_sq):
                    raise NumericError(
                        f"step {step + 1} (epoch {epoch}): loss {batch_loss / size!r}, "
                        f"squared gradient norm {grad_sq!r}; parameters left unchanged")
                adamw_step(params.flat, grad, state)
                step += 1
                log.steps.append(StepRecord(step=step, epoch=epoch,
                                            effective_lr=effective_lr,
                                            loss=batch_loss / size))
        if epoch_callback is not None:
            epoch_callback(epoch, params, log)
    return log
