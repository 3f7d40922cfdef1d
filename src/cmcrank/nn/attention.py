"""Multi-head self-attention over a token-free sequence of embeddings.

There is deliberately no positional encoding anywhere in this module: the
attention is purely content-based, which makes every operation permutation
equivariant over the sequence axis.  One forward serves inference and
training: it walks the query rows in blocks, all heads at once, so peak
memory stays at O(block * L) and sequences of 16k+ rows fit comfortably in
RAM.

At L = 513 the elementwise passes over each (heads, block, L) score block
cost more than the two matmuls, so the forward makes as few of them as it
can, normalizing after the value product (the online-softmax order of
Milakov & Gimelshein, arXiv:1805.02867):

- the 1/sqrt(d_h) scale is folded into the (L, d) query projection, so the
  scores need no scaling pass;
- each head's values carry an extra ones column, so ``exp(S) @ [V | 1]``
  returns every row's softmax denominator next to its unnormalized
  context, and no separate sum pass is needed;
- one reduction over the rows of q, k and v bounds every score and value
  once per call.  When the bound proves the scores small
  (``SCORE_MARGIN``), each block runs only exp, in place: one fixed shift
  of zero for the whole call, the unified max with a fallback of Hong et
  al. (FlashDecoding++, arXiv:2311.01282).  Otherwise every block runs
  the max-shift, the -80 floor and exp in place
  (``ops.exp_shifted_inplace``);
- the (heads, L, d_h) context is divided by the denominators, instead of
  the (heads, block, L) probabilities.

Normalized probabilities exist only on the tape.  A caller that passes a
``tape`` list gets the entry that ``attention_backward`` consumes appended
to it: the block is written straight into the full (heads, L, L) buffer
and divided by its denominators after the value product, so the context
arithmetic is the same with and without a tape.  The backward leaves the
four projections to ``ops.linear_backward`` and flushes tiny score
gradients to zero (``ops.flush_tiny``).  The forward takes one (L, d)
sequence per call, and ``nn.layer`` loops over a batch; the backward takes
the (B, L, d) stack, one sequence being a stack of one, pops the B entries
and runs each product and projection once over the stack.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvalidConfig, InvalidShape
from .ops import exp_shifted_inplace, flush_tiny, linear_backward

if TYPE_CHECKING:
    from .layer import LayerParams

# Query rows per block.  Small blocks keep the (heads, block, L) score
# block cache-friendly.  With 4 heads of 12 dims, one attention call took
# 3.63 ms with 64 rows at L = 513, against 3.64 ms with 128 and 3.73 ms
# with 32 (medians of 21 interleaved rounds, single-threaded OpenBLAS,
# 2-vCPU Xeon).  Longer sequences favoured 32 rows (12.8 against 13.6 ms
# at L = 1025, and faster at 2049), so the block could follow L if long
# sequences come to matter.
_BLOCK_ROWS = 64

SCORE_MARGIN = 30.0
"""Largest bound on |score| for which a call skips the max shift.

Every score is a dot product of one head's slice of a scaled query row and
of a key row, so |S_ij| <= |q_i| |k_j| <= max_i |q_i| * max_j |k_j| over
full rows.  When that bound is at most the margin and every squared value
row norm |v_j|^2 is finite, each block's softmax numerator is a plain
``exp(S)``, and in float32:

- exp(+-30) is 1.1e13 and 9.4e-14, finite and normal (float32 overflows
  above 3.4e38 and goes subnormal below 1.2e-38), so no entry is
  subnormal and the -80 floor is not needed;
- a denominator, one row's sum of L terms, lies between exp(-30) and
  L * exp(30), which is 1.8e17 at L = MAX_CANDIDATES + 1 = 16,385;
- a finite |v_j|^2 means every |v_jc| <= sqrt(3.4e38) = 1.8e19, so each
  partial sum of the ``exp(S) @ [V | 1]`` product is at most
  1.8e17 * 1.8e19 = 3.2e36, about a hundredth of the float32 maximum;
- a taped probability is at least exp(-60) / 16,385 = 5e-31, still normal.

Float64 inputs have more room on every line.  On the benchmark's
rerank_heavy task the bound stayed at or below 1.05 (the largest |S| was
0.29), over 200 served queries of a newly initialized and of a trained
model and over the training itself, so every call there takes the
one-pass path.  A call over the margin runs ``exp_shifted_inplace`` in
every block.
"""


def _split_heads(x: np.ndarray, head_count: int) -> np.ndarray:
    """(..., L, d) -> a (..., heads, L, d_h) view."""
    *lead, length, dim = x.shape
    head_dim = dim // head_count
    return x.reshape(*lead, length, head_count, head_dim).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, L, d_h) -> (..., L, d)."""
    *lead, head_count, length, head_dim = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, length, head_count * head_dim)


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
    length, dim = x.shape
    head_dim = dim // h
    scale = 1.0 / math.sqrt(head_dim)

    qkv = np.empty((3, length, dim), dtype=np.result_type(x, params.w_q))
    q, k, v = qkv
    np.matmul(x, params.w_q, out=q)
    q += params.b_q
    q *= scale
    np.matmul(x, params.w_k, out=k)
    k += params.b_k
    np.matmul(x, params.w_v, out=v)
    v += params.b_v
    # Largest squared row norm of q, k and v, for the SCORE_MARGIN guard;
    # one that overflows to inf only sends the call to the shifted exp.
    with np.errstate(over="ignore"):
        qq, kk, vv = np.vecdot(qkv, qkv).max(axis=1).tolist()
    small = qq * kk <= SCORE_MARGIN ** 2 and vv < math.inf
    qh, kh, vh = _split_heads(q, h), _split_heads(k, h), _split_heads(v, h)
    # One copy gives each head a contiguous (d_h, L) K^T.  On the transposed
    # view the score product ran 1.8x slower per 64-row block at L = 513,
    # and a whole attention call 6% slower.
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))
    va = np.empty((h, length, head_dim + 1), dtype=vh.dtype)
    va[..., :head_dim] = vh
    va[..., head_dim] = 1.0

    block = min(_BLOCK_ROWS, length)
    if tape is None:
        attn = None
        scratch = np.empty((h, block, length), dtype=qh.dtype)
    else:
        attn = np.empty((h, length, length), dtype=qh.dtype)
    context = np.empty_like(va)
    for start in range(0, length, block):
        rows = slice(start, start + block)
        e = scratch[:, :length - start] if attn is None else attn[:, rows]
        np.matmul(qh[:, rows], kt, out=e)
        if small:
            np.exp(e, out=e)
        else:
            exp_shifted_inplace(e)
        np.matmul(e, va, out=context[:, rows])
        if attn is not None:
            e /= context[:, rows, head_dim:]
    out = np.empty_like(q)
    np.divide(context[..., :head_dim], context[..., head_dim:],
              out=_split_heads(out, h))
    y = out @ params.w_o
    y += params.b_o
    if tape is not None:
        tape.append((x, qh, kh, vh, attn, out, params, scale))
    return y


def attention_forward(x: np.ndarray, params: "LayerParams"):
    """Taped forward; only ``SPANS`` names it, and ROADMAP item 3 deletes it."""
    tape: list = []
    return multi_head_self_attention(x, params, tape), tape


def attention_backward(dy: np.ndarray, tape: list, grads: "LayerParams") -> np.ndarray:
    """Gradients w.r.t. the input (returned) and the four projections.

    ``dy`` is the (B, L, d) output gradient of the last B sequences that
    :func:`multi_head_self_attention` recorded on ``tape``; their entries
    are popped and stacked, and every product runs once over the stack.
    The input gradient sums the q, k and v paths in that order.  Parameter
    gradients are the per-example ones summed in example order, bit for
    bit.
    """
    if np.ndim(dy) != 3 or not len(dy):
        raise InvalidShape("attention backward expects a (B, L, d) dy with B >= 1, "
                           f"got {np.shape(dy)}")
    entries = tape[-len(dy):]
    del tape[-len(dy):]
    x, qh, kh, vh, attn, out = (np.stack(f) for f in list(zip(*entries))[:6])
    params, scale = entries[0][6:]
    d_out = linear_backward(dy, (out, params.w_o), grads.w_o, grads.b_o)
    d_outh = _split_heads(d_out, params.head_count)

    d_attn = d_outh @ vh.swapaxes(-1, -2)
    d_vh = attn.swapaxes(-1, -2) @ d_outh
    # Near-zero probabilities make tiny score gradients, whose products in
    # the four matmuls below and the projection backwards go subnormal.
    d_scores = d_attn * attn
    np.subtract(d_attn, d_scores.sum(axis=-1, keepdims=True), out=d_attn)
    np.multiply(attn, d_attn, out=d_scores)
    flush_tiny(d_scores)
    # qh was recorded with the 1/sqrt(d_h) scale folded in.
    d_qh = d_scores @ kh
    d_qh *= scale
    d_kh = d_scores.swapaxes(-1, -2) @ qh

    dx = linear_backward(_merge_heads(d_qh), (x, params.w_q), grads.w_q, grads.b_q)
    dx += linear_backward(_merge_heads(d_kh), (x, params.w_k), grads.w_k, grads.b_k)
    dx += linear_backward(_merge_heads(d_vh), (x, params.w_v), grads.w_v, grads.b_v)
    return dx
