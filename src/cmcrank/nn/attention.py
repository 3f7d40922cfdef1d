"""Multi-head self-attention over a token-free sequence of embeddings.

There is deliberately no positional encoding anywhere in this module: the
attention is purely content-based, which makes every operation permutation
equivariant over the sequence axis.  One forward serves inference and
training: it walks the query rows in blocks, all heads at once, so peak
memory stays at O(block * L) and sequences of 16k+ rows fit comfortably in
RAM.  A caller that passes a ``tape`` list gets the entry that
``attention_backward`` consumes appended to it, which includes the full
(heads, L, L) attention probabilities.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvalidConfig, InvalidShape
from .ops import softmax_rows

if TYPE_CHECKING:
    from .layer import LayerParams

# Query rows per block.  Small blocks keep the (heads, block, L) score
# buffers cache-friendly and allocator-reusable; with all heads batched, 64
# rows measured as fast as or faster than 128 and 256 from L = 513 to 16385
# (single-threaded OpenBLAS, 2-vCPU Xeon).
_BLOCK_ROWS = 64


def _split_heads(x: np.ndarray, head_count: int) -> np.ndarray:
    length, dim = x.shape
    head_dim = dim // head_count
    return x.reshape(length, head_count, head_dim).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    head_count, length, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(length, head_count * head_dim)


def _check_input(x: np.ndarray, params: "LayerParams") -> None:
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidShape(f"attention expects a non-empty (L, d) matrix, got {x.shape}")
    dim = params.w_q.shape[0]
    if x.shape[1] != dim:
        raise InvalidShape(f"attention input has dim {x.shape[1]}, params expect {dim}")
    if dim % params.head_count != 0:
        raise InvalidConfig(
            f"model_dim {dim} not divisible by head_count {params.head_count}")


def multi_head_self_attention(x: np.ndarray, params: "LayerParams",
                              tape: list | None = None) -> np.ndarray:
    """Full bidirectional scaled dot-product attention, output-projected.

    With a ``tape`` list, appends the cache that ``attention_backward``
    pops.
    """
    _check_input(x, params)
    h = params.head_count
    length = x.shape[0]
    scale = 1.0 / math.sqrt(x.shape[1] // h)

    q = x @ params.w_q + params.b_q
    k = x @ params.w_k + params.b_k
    v = x @ params.w_v + params.b_v
    qh, kh, vh = (_split_heads(a, h) for a in (q, k, v))
    kt = kh.transpose(0, 2, 1)

    attn = None if tape is None else np.empty((h, length, length), dtype=qh.dtype)
    context = np.empty_like(qh)
    for start in range(0, length, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        scores = qh[:, rows] @ kt
        scores *= scale
        probs = softmax_rows(scores)
        if attn is not None:
            attn[:, rows] = probs
        context[:, rows] = probs @ vh
    out = _merge_heads(context)
    y = out @ params.w_o + params.b_o
    if tape is not None:
        tape.append((x, qh, kh, vh, attn, out, params, scale))
    return y


def attention_forward(x: np.ndarray, params: "LayerParams"):
    """Taped forward: returns the output and the tape for backward."""
    tape: list = []
    return multi_head_self_attention(x, params, tape), tape


def attention_backward(dy: np.ndarray, tape: list):
    """Gradients w.r.t. the input and the four projections.

    Pops the entry :func:`multi_head_self_attention` appended to ``tape``.
    """
    x, qh, kh, vh, attn, out, params, scale = tape.pop()
    h = params.head_count

    d_out = dy @ params.w_o.T
    grads = {
        "w_o": out.T @ dy,
        "b_o": dy.sum(axis=0),
    }
    d_outh = _split_heads(d_out, h)

    d_attn = d_outh @ vh.transpose(0, 2, 1)
    d_vh = attn.transpose(0, 2, 1) @ d_outh
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_qh = (d_scores @ kh) * scale
    d_kh = (d_scores.transpose(0, 2, 1) @ qh) * scale

    d_q = _merge_heads(d_qh)
    d_k = _merge_heads(d_kh)
    d_v = _merge_heads(d_vh)

    grads["w_q"] = x.T @ d_q
    grads["b_q"] = d_q.sum(axis=0)
    grads["w_k"] = x.T @ d_k
    grads["b_k"] = d_k.sum(axis=0)
    grads["w_v"] = x.T @ d_v
    grads["b_v"] = d_v.sum(axis=0)

    dx = d_q @ params.w_q.T + d_k @ params.w_k.T + d_v @ params.w_v.T
    return dx, grads
