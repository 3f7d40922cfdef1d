"""Joint query/candidate contextualization and scoring.

The reranker concatenates one query embedding with K candidate embeddings,
runs the (K+1)-row sequence through two positional-encoding-free encoder
layers, and scores each candidate by the dot product of the contextualized
query and candidate rows.  Each layer is wrapped in an extra residual, so
with the skip enabled a layer computes ``x + F(x)`` where F is the whole
post-norm encoder layer.

Because nothing in the stack depends on sequence position, permuting the
candidates permutes the scores identically and the top-1 candidate id is
invariant.  One forward pass covers all K candidates of a query.
``cmc_forward`` serves inference and training alike: given a ``tape`` list
it appends each layer's entries, and ``CmcTape.backward`` pops them in
reverse order.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoders import EmbeddingTable
from .errors import FormatError, InvalidConfig, InvalidShape, StateError
from .index import RankedList, rank_by_score
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.layer import (LAYER_ARRAY_FIELDS, GradientSet, LayerParams,
                       encoder_layer_backward, encoder_layer_forward)

MAX_CANDIDATES = 16384
DEFAULT_MODEL_DIM = 64
DEFAULT_HEAD_COUNT = 4
CHECKPOINT_SECTION = "cmc"


@dataclass
class CmcParams:
    """Weights of the two-layer reranker plus the extra-skip switch."""

    layers: tuple[LayerParams, ...]
    extra_skip: bool = True

    @classmethod
    def init(cls, model_dim: int = DEFAULT_MODEL_DIM,
             head_count: int = DEFAULT_HEAD_COUNT,
             ffn_dim: int | None = None,
             extra_skip: bool = True,
             seed: int = 0) -> "CmcParams":
        rng = np.random.default_rng(seed)
        layers = tuple(LayerParams.init(model_dim, head_count, ffn_dim, rng)
                       for _ in range(2))
        return cls(layers=layers, extra_skip=extra_skip)

    def __post_init__(self):
        if len(self.layers) != 2:
            raise InvalidConfig(f"expected 2 encoder layers, got {len(self.layers)}")
        dims = {layer.model_dim for layer in self.layers}
        if len(dims) != 1:
            raise InvalidConfig(f"layers disagree on model_dim: {sorted(dims)}")
        for layer in self.layers:
            layer.validate()

    @property
    def model_dim(self) -> int:
        return self.layers[0].model_dim

    def arrays(self) -> dict[str, np.ndarray]:
        """Live name -> buffer views, namespaced per layer."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.arrays().items():
                out[f"layers.{i}.{name}"] = arr
        return out

    def copy(self) -> "CmcParams":
        return CmcParams(layers=tuple(l.copy() for l in self.layers),
                         extra_skip=self.extra_skip)

    def save(self, path: str | Path) -> None:
        buffers: dict[str, np.ndarray] = {}
        prefix = CHECKPOINT_SECTION + "."
        for name, arr in self.arrays().items():
            buffers[prefix + name] = arr
        buffers[prefix + "head_count"] = np.asarray(
            float(self.layers[0].head_count), dtype=np.float32)
        buffers[prefix + "extra_skip"] = np.asarray(
            1.0 if self.extra_skip else 0.0, dtype=np.float32)
        save_checkpoint(path, buffers)

    @classmethod
    def load(cls, path: str | Path) -> "CmcParams":
        buffers = load_checkpoint(path)
        prefix = CHECKPOINT_SECTION + "."
        try:
            head_count = int(buffers[prefix + "head_count"].reshape(-1)[0])
            extra_skip = bool(buffers[prefix + "extra_skip"].reshape(-1)[0])
            layers = []
            for i in range(2):
                kwargs = {name: buffers[f"{prefix}layers.{i}.{name}"]
                          for name in LAYER_ARRAY_FIELDS}
                layers.append(LayerParams(head_count=head_count, **kwargs))
        except KeyError as exc:
            raise FormatError(f"checkpoint is missing buffer {exc}") from exc
        return cls(layers=tuple(layers), extra_skip=extra_skip)


@dataclass
class ContextualizedSet:
    """Query and candidate embeddings after joint contextualization."""

    h_query: np.ndarray        # (d,)
    h_candidates: np.ndarray   # (K, d)


@dataclass
class ScoreVector:
    """Per-candidate scores; argmax ties break to the lowest index."""

    scores: np.ndarray
    argmax_index: int


class CmcTape:
    """One-shot record of a forward pass, consumed by ``backward``."""

    def __init__(self, tape: list, ctx: ContextualizedSet, params: CmcParams):
        self._tape = tape
        self._ctx = ctx
        self._layer_count = len(params.layers)
        self._extra_skip = params.extra_skip
        self._spent = False

    @property
    def ctx(self) -> ContextualizedSet:
        return self._ctx

    def backward(self, d_scores: np.ndarray):
        """Gradients of a scalar loss given dLoss/dScores.

        Returns (GradientSet over both layers, d_query, d_candidates),
        the latter two being gradients w.r.t. the input embeddings.
        """
        if self._spent:
            raise StateError("backward called twice on the same forward tape")
        self._spent = True

        d_scores = np.asarray(d_scores)
        k = self._ctx.h_candidates.shape[0]
        if d_scores.shape != (k,):
            raise InvalidShape(f"d_scores has shape {d_scores.shape}, expected ({k},)")

        # Scoring head: scores_j = <h_query, h_candidates[j]>.
        d_seq = np.empty((k + 1, self._ctx.h_query.shape[0]),
                         dtype=self._ctx.h_query.dtype)
        d_seq[0] = d_scores @ self._ctx.h_candidates
        d_seq[1:] = d_scores[:, None] * self._ctx.h_query[None, :]

        grads = GradientSet()
        d_out = d_seq
        for i in reversed(range(self._layer_count)):
            dx, layer_grads = encoder_layer_backward(d_out, self._tape)
            if self._extra_skip:
                dx = dx + d_out
            grads.accumulate(layer_grads, prefix=f"layers.{i}.")
            d_out = dx
        return grads, d_out[0], d_out[1:]


def _sequence_from(params: CmcParams, h_query: np.ndarray,
                   h_candidates: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    h_query = np.asarray(h_query)
    h_candidates = np.asarray(h_candidates)
    if h_candidates.ndim == 1:
        h_candidates = h_candidates[None, :]
    d = params.model_dim
    if h_query.shape != (d,):
        raise InvalidShape(f"query embedding has shape {h_query.shape}, expected ({d},)")
    if h_candidates.ndim != 2 or h_candidates.shape[1] != d:
        raise InvalidShape(
            f"candidate embeddings have shape {h_candidates.shape}, expected (K, {d})")
    k = h_candidates.shape[0]
    if k < 1:
        raise InvalidShape("at least one candidate is required")
    if k > MAX_CANDIDATES:
        raise InvalidShape(f"K = {k} exceeds the supported maximum {MAX_CANDIDATES}")
    # Query occupies row 0 by convention; position carries no meaning.
    return np.concatenate([h_query[None, :], h_candidates], axis=0)


def cmc_forward(params: CmcParams, h_query: np.ndarray,
                h_candidates: np.ndarray | Sequence[np.ndarray],
                tape: list | None = None) -> ContextualizedSet:
    """Contextualize the query with its K candidates in one pass.

    With a ``tape`` list, appends each layer's entries for the backward.
    """
    x = _sequence_from(params, h_query, h_candidates)
    for layer in params.layers:
        y = encoder_layer_forward(x, layer, tape)
        x = x + y if params.extra_skip else y
    return ContextualizedSet(h_query=x[0], h_candidates=x[1:])


def cmc_forward_recorded(params: CmcParams, h_query: np.ndarray,
                         h_candidates: np.ndarray | Sequence[np.ndarray]) -> CmcTape:
    """Taped forward: returns the tape needed for gradients."""
    tape: list = []
    ctx = cmc_forward(params, h_query, h_candidates, tape)
    return CmcTape(tape, ctx, params)


def cmc_score(ctx: ContextualizedSet) -> ScoreVector:
    """Dot-product scores of the contextualized query against each candidate."""
    scores = ctx.h_candidates @ ctx.h_query
    return ScoreVector(scores=scores, argmax_index=int(np.argmax(scores)))


def rerank(params: CmcParams, h_query: np.ndarray, ranked: RankedList,
           candidate_embeddings: EmbeddingTable,
           k_out: int) -> RankedList:
    """Re-score every candidate in ``ranked`` and return the top ``k_out``.

    All candidates go through a single forward pass; the output order is by
    reranker score (descending, id-ascending ties).
    """
    if k_out > len(ranked):
        raise InvalidShape(f"k_out = {k_out} exceeds the {len(ranked)} ranked candidates")
    if len(ranked) == 0 or k_out <= 0:
        return RankedList(ids=np.empty(0, dtype=np.uint64),
                          scores=np.empty(0, dtype=np.float32))
    rows = candidate_embeddings.batch(ranked.ids)
    ctx = cmc_forward(params, np.asarray(h_query, dtype=np.float32), rows)
    scores = cmc_score(ctx).scores
    return rank_by_score(ranked.ids, scores, k_out)
