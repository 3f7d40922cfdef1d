"""Joint query/candidate contextualization and scoring.

The reranker concatenates one query embedding with K candidate embeddings,
runs the (K+1)-row sequence through two positional-encoding-free encoder
layers, and scores each candidate by the dot product of the contextualized
query and candidate rows.  Each layer is wrapped in an extra residual, so
a layer computes ``x + F(x)`` where F is the whole post-norm encoder layer.

Because nothing in the stack depends on sequence position, permuting the
candidates permutes the scores identically and the top-1 candidate id is
invariant.  One forward pass covers all K candidates of a query.
``cmc_forward`` serves inference and training alike: given a ``tape`` list
it appends each layer's entries, and ``CmcTape.backward`` pops them in
reverse order.  Every call takes a stack of B queries, (B, d) with
(B, K, d) candidates, and ``cmc_score`` gives (B, K) scores: serving
passes a stack of one, and training a step's B queries, for which it
gets back the summed parameter gradients of the B examples, in a
``CmcParams``, from one backward over the stack, which flushes tiny
entries of the scoring head's gradient to zero.

The model, ``CmcParams``, is one flat vector plus three header fields of its
checkpoint, whose layout (little-endian, checked container of ``fileio``) is:

    magic      4 bytes  b"CMCP"
    version    u16      currently 2; version-1 files are rejected
    extra_skip u16      always 1: the extra residual is always on
    model_dim  u32
    ffn_dim    u32
    head_count u32      divides model_dim
    crc32      u32      over the payload
    payload    ``CmcParams.flat`` as f32: both layers' arrays, in
               ``LayerParams.shapes`` order

A header that describes no valid model raises ``FormatError`` and a
non-finite weight ``NumericError``, at save and at load alike; loaded
weights are writable copies.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoders import EmbeddingTable
from .errors import (FormatError, InvalidConfig, InvalidShape, NumericError,
                     StateError)
from .fileio import read_checked, write_checked
from .index import RankedList, rank_by_score
from .nn.layer import LayerParams, encoder_layer_backward, encoder_layer_forward
from .nn.ops import flush_tiny

MAX_CANDIDATES = 16384
DEFAULT_MODEL_DIM = 64
DEFAULT_HEAD_COUNT = 4

CHECKPOINT_MAGIC = b"CMCP"
CHECKPOINT_VERSION = 2
# magic, version, extra_skip, model_dim, ffn_dim, head_count, crc32
_CHECKPOINT_HEADER = struct.Struct("<4sHHIIII")


def _flat_size(model_dim: int, ffn_dim: int, head_count: int) -> int:
    """Length of ``CmcParams.flat``, or 0 if the dims describe no valid model."""
    if min(model_dim, ffn_dim, head_count) < 1 or model_dim % head_count:
        return 0
    return 2 * sum(math.prod(s) for s in LayerParams.shapes(model_dim, ffn_dim).values())


def _checkpoint_payload_bytes(extra_skip: int, model_dim: int, ffn_dim: int,
                              head_count: int) -> int:
    """Payload size of a checkpoint header, which must describe a valid model."""
    size = _flat_size(model_dim, ffn_dim, head_count)
    if extra_skip != 1 or not size:
        raise FormatError(
            f"inconsistent checkpoint header: extra_skip {extra_skip}, model_dim "
            f"{model_dim}, ffn_dim {ffn_dim}, head_count {head_count}")
    return 4 * size


@dataclass(eq=False)
class CmcParams:
    """The two-layer reranker: ``flat`` plus the checkpoint header's dims.

    ``flat`` holds every weight in ``arrays()`` (payload) order; ``layers``
    are frozen ``LayerParams`` of views of it.  ``replace(params, flat=...)``
    is the same model over another vector, of any float dtype."""

    flat: np.ndarray = field(repr=False)
    model_dim: int
    ffn_dim: int
    head_count: int
    layers: tuple[LayerParams, LayerParams] = field(init=False, repr=False)

    @classmethod
    def init(cls, model_dim: int = DEFAULT_MODEL_DIM,
             head_count: int = DEFAULT_HEAD_COUNT,
             ffn_dim: int | None = None,
             seed: int = 0) -> "CmcParams":
        """Random-normal init (std 0.02) of the matrices, in ``arrays()``
        order, with zero biases and identity layer norms."""
        ffn_dim = 4 * model_dim if ffn_dim is None else ffn_dim
        flat = np.zeros(_flat_size(model_dim, ffn_dim, head_count), dtype=np.float32)
        params = cls(flat, model_dim, ffn_dim, head_count)
        rng = np.random.default_rng(seed)
        for name, arr in params.arrays().items():
            if arr.ndim == 2:
                arr[:] = 0.02 * rng.standard_normal(arr.shape)
            elif name.endswith("_gain"):
                arr[:] = 1.0
        return params

    def __post_init__(self):
        size = _flat_size(self.model_dim, self.ffn_dim, self.head_count)
        if not size:
            raise InvalidConfig(f"no valid model has model_dim {self.model_dim}, "
                                f"ffn_dim {self.ffn_dim}, head_count {self.head_count}")
        if self.flat.shape != (size,) or not self.flat.flags.c_contiguous:
            raise InvalidShape(f"flat must be a contiguous ({size},) vector, "
                               f"got shape {self.flat.shape}")
        layers, at = [], 0
        for _ in range(2):
            views = {}
            for name, shape in LayerParams.shapes(self.model_dim, self.ffn_dim).items():
                n = math.prod(shape)
                views[name] = self.flat[at:at + n].reshape(shape)
                at += n
            layers.append(LayerParams(head_count=self.head_count, **views))
        self.layers = tuple(layers)

    def empty_like(self) -> "CmcParams":
        """This layout over a new, uninitialized ``flat``: a gradient buffer."""
        return replace(self, flat=np.empty_like(self.flat))

    def copy(self) -> "CmcParams":
        return replace(self, flat=self.flat.copy())

    def arrays(self) -> dict[str, np.ndarray]:
        """Live name -> buffer views, namespaced per layer."""
        return {f"layers.{i}.{name}": arr for i, layer in enumerate(self.layers)
                for name, arr in layer.arrays().items()}

    def _check_finite(self, message: str) -> None:
        """Raise ``NumericError`` naming the first weight with a NaN or inf."""
        if not np.isfinite(self.flat).all():
            bad = next(n for n, a in self.arrays().items() if not np.isfinite(a).all())
            raise NumericError(message.format(bad))

    def save(self, path: str | Path) -> None:
        """Write the checkpoint: a 24-byte header, then ``flat`` as
        little-endian float32.  A non-finite weight raises ``NumericError``
        before anything is written."""
        self._check_finite("weight {} is not finite; checkpoint not written")
        write_checked(path, _CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                      (1, self.model_dim, self.ffn_dim, self.head_count),
                      [np.ascontiguousarray(self.flat, dtype="<f4")])

    @classmethod
    def load(cls, path: str | Path) -> "CmcParams":
        """Read and verify a checkpoint; the weights are a writable copy."""
        (_, d, f, head_count), buf = read_checked(
            path, _CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            _checkpoint_payload_bytes)
        flat = np.frombuffer(buf, dtype="<f4", offset=_CHECKPOINT_HEADER.size)
        params = cls(flat.astype(np.float32), d, f, head_count)
        params._check_finite("checkpoint weight {} is not finite")
        return params


@dataclass
class ContextualizedSet:
    """Query and candidate embeddings after joint contextualization, with
    the forward's leading batch axis."""

    h_query: np.ndarray        # (B, d)
    h_candidates: np.ndarray   # (B, K, d)


@dataclass
class ScoreVector:
    """Per-candidate scores; argmax ties break to the lowest index."""

    scores: np.ndarray         # (B, K)
    argmax_index: np.ndarray   # (B,), one per row


class CmcTape:
    """One-shot record of a forward pass, consumed by ``backward``."""

    def __init__(self, tape: list, ctx: ContextualizedSet, params: CmcParams):
        self._tape = tape
        self._ctx = ctx
        self._params = params
        self._spent = False

    @property
    def ctx(self) -> ContextualizedSet:
        return self._ctx

    def backward(self, d_scores: np.ndarray, grad: CmcParams | None = None):
        """Gradients of a scalar loss given dLoss/dScores, shaped like the
        (B, K) scores.  The backward runs every kernel once over the stack,
        each layer's attention backward included, which pops the B
        sequences' entries together.

        Returns (grad, d_query, d_candidates): ``grad`` holds the weights'
        gradients, summed over the batch, in ``grad``, every entry
        overwritten, or else in a new ``CmcParams`` (see ``empty_like``),
        and the others are the input embeddings'.  A given ``grad`` must be
        laid out like the weights (``train`` makes it with ``empty_like``).
        """
        if self._spent:
            raise StateError("backward called twice on the same forward tape")
        self._spent = True

        d_scores = np.asarray(d_scores)
        hq, hc = self._ctx.h_query, self._ctx.h_candidates
        if d_scores.shape != hc.shape[:-1]:
            raise InvalidShape(
                f"d_scores has shape {d_scores.shape}, expected {hc.shape[:-1]}")

        # Scoring head: scores_j = <h_query, h_candidates[j]>.
        batch, k, dim = hc.shape
        d_seq = np.empty((batch, k + 1, dim), dtype=hq.dtype)
        d_seq[:, 0, :] = (d_scores[:, None, :] @ hc)[:, 0, :]
        d_seq[:, 1:, :] = d_scores[:, :, None] * hq[:, None, :]
        flush_tiny(d_seq)

        if grad is None:
            grad = self._params.empty_like()
        d_out = d_seq
        for layer_grad in reversed(grad.layers):
            dx = encoder_layer_backward(d_out, self._tape, layer_grad)
            dx += d_out
            d_out = dx
        return grad, d_out[:, 0, :], d_out[:, 1:, :]


def _sequence_from(params: CmcParams, h_query: np.ndarray,
                   h_candidates: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    h_query = np.asarray(h_query)
    h_candidates = np.asarray(h_candidates)
    d = params.model_dim
    if h_query.ndim != 2 or h_query.shape[1] != d or len(h_query) < 1:
        raise InvalidShape(
            f"query embeddings have shape {h_query.shape}, expected (B, {d}) with B >= 1")
    batch = len(h_query)
    if h_candidates.ndim != 3 or h_candidates.shape[0] != batch or h_candidates.shape[2] != d:
        raise InvalidShape(f"candidate embeddings have shape {h_candidates.shape}, "
                           f"expected ({batch}, K, {d})")
    k = h_candidates.shape[1]
    if k < 1:
        raise InvalidShape("at least one candidate is required")
    if k > MAX_CANDIDATES:
        raise InvalidShape(f"K = {k} exceeds the supported maximum {MAX_CANDIDATES}")
    # Query occupies row 0 by convention; position carries no meaning.
    return np.concatenate([h_query[:, None, :], h_candidates], axis=1)


def cmc_forward(params: CmcParams, h_query: np.ndarray,
                h_candidates: np.ndarray | Sequence[np.ndarray],
                tape: list | None = None) -> ContextualizedSet:
    """Contextualize each of a (B, d) query stack with its K candidates,
    (B, K, d), in one pass; one query is a stack of one.

    With a ``tape`` list, appends each layer's entries for the backward.
    """
    x = _sequence_from(params, h_query, h_candidates)
    for layer in params.layers:
        y = encoder_layer_forward(x, layer, tape)
        y += x  # x is on the tape; y is a new array.
        x = y
    return ContextualizedSet(h_query=x[:, 0, :], h_candidates=x[:, 1:, :])


def cmc_forward_recorded(params: CmcParams, h_query: np.ndarray,
                         h_candidates: np.ndarray | Sequence[np.ndarray]) -> CmcTape:
    """Taped forward: returns the tape needed for gradients."""
    tape: list = []
    ctx = cmc_forward(params, h_query, h_candidates, tape)
    return CmcTape(tape, ctx, params)


def cmc_score(ctx: ContextualizedSet) -> ScoreVector:
    """Dot-product scores of each contextualized query against its
    candidates: (B, K), from one (B, K, d) @ (B, d, 1) product."""
    scores = (ctx.h_candidates @ ctx.h_query[:, :, None])[:, :, 0]
    return ScoreVector(scores=scores, argmax_index=np.argmax(scores, axis=1))


def rerank(params: CmcParams, h_query: np.ndarray, ranked: RankedList,
           candidate_embeddings: EmbeddingTable,
           k_out: int) -> RankedList:
    """Re-score every candidate in ``ranked`` and return the top ``k_out``.

    All candidates go through a single forward pass, as a batch of one;
    the output order is by reranker score (descending, id-ascending ties).
    A ``k_out`` below 0 or above ``len(ranked)`` raises ``InvalidShape``.
    """
    if k_out > len(ranked):
        raise InvalidShape(f"k_out = {k_out} exceeds the {len(ranked)} ranked candidates")
    if k_out <= 0:
        return rank_by_score(ranked.ids, ranked.scores, k_out)
    rows = candidate_embeddings.batch(ranked.ids)
    ctx = cmc_forward(params, np.asarray(h_query, dtype=np.float32)[None], rows[None])
    return rank_by_score(ranked.ids, cmc_score(ctx).scores[0], k_out)
