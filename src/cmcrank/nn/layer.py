"""Post-norm transformer encoder layer with manually derived gradients.

Sublayer order is attention -> add&norm -> GELU feed-forward -> add&norm.
``encoder_layer_forward`` is the one forward for inference and training.
Given a ``tape`` list it appends what ``encoder_layer_backward`` needs,
attention first, and the backward pops those entries in reverse order.

The input is a stack of B sequences, (B, L, d); one sequence is a stack
of one.  Layer norm, the feed-forward and the residuals run once over the
whole stack, while the attention forward runs once per sequence on its
(L, d) slice, appending one tape entry each; the backward, attention
included, runs once over the stack.  It writes the sum of the
per-sequence parameter gradients, bit for bit as a loop over the
sequences adding them in order would.  The residual adds write into
arrays the layer made itself, never into its input or a taped array.

A model (``reranker.CmcParams``) is one flat vector plus four header fields;
each layer is a frozen ``LayerParams`` of views of it, laid out by ``shapes``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidShape
from . import ops
from .attention import attention_backward, multi_head_self_attention


@dataclass(frozen=True, eq=False)
class LayerParams:
    """All weights of one encoder layer, in the shapes of ``shapes``.

    Projection matrices are stored (in_features, out_features) so the
    forward pass is plain ``x @ w + b``.  Frozen: in a ``CmcParams`` each
    field is a view of ``flat``, written in place, never rebound.
    """

    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    w_1: np.ndarray
    b_1: np.ndarray
    w_2: np.ndarray
    b_2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    head_count: int

    @staticmethod
    def shapes(d: int, f: int) -> dict[str, tuple[int, ...]]:
        """Shape of every array field for model dim ``d`` and FFN dim ``f``,
        in serialization order: the one statement of a layer's layout."""
        return {
            "w_q": (d, d), "b_q": (d,), "w_k": (d, d), "b_k": (d,),
            "w_v": (d, d), "b_v": (d,), "w_o": (d, d), "b_o": (d,),
            "w_1": (d, f), "b_1": (f,), "w_2": (f, d), "b_2": (d,),
            "ln1_gain": (d,), "ln1_bias": (d,), "ln2_gain": (d,), "ln2_bias": (d,),
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> array view of every parameter buffer (live, not copies)."""
        return {name: getattr(self, name) for name in self.shapes(0, 0)}


def encoder_layer_forward(x: np.ndarray, params: LayerParams,
                          tape: list | None = None) -> np.ndarray:
    """Deterministic forward of one post-norm encoder layer over (B, L, d).

    With a ``tape`` list, appends the entries ``encoder_layer_backward``
    pops: one per sequence for the attention, then one for the rest.
    """
    if np.ndim(x) != 3 or 0 in np.shape(x)[:2]:
        raise InvalidShape(f"encoder layer expects a non-empty (B, L, d) stack, got {np.shape(x)}")
    a = np.stack([multi_head_self_attention(xb, params, tape) for xb in x])
    a += x
    u, ln1_cache = ops.layer_norm_forward(a, params.ln1_gain, params.ln1_bias)
    h1, lin1_cache = ops.linear_forward(u, params.w_1, params.b_1)
    g = ops.gelu(h1)
    h2, lin2_cache = ops.linear_forward(g, params.w_2, params.b_2)
    h2 += u
    y, ln2_cache = ops.layer_norm_forward(h2, params.ln2_gain, params.ln2_bias)
    if tape is not None:
        tape.append((ln1_cache, h1, lin1_cache, lin2_cache, ln2_cache))
    return y


def encoder_layer_forward_recorded(x: np.ndarray, params: LayerParams):
    """Taped forward; only ``SPANS`` names it, and ROADMAP item 3 deletes it."""
    tape: list = []
    return encoder_layer_forward(x, params, tape), tape


def encoder_layer_backward(dy: np.ndarray, tape: list, grads: LayerParams) -> np.ndarray:
    """Gradients of one encoder layer; returns the (B, L, d) input's.

    Pops the entries :func:`encoder_layer_forward` appended to ``tape``.
    """
    if np.ndim(dy) != 3 or not len(dy):
        raise InvalidShape(f"layer backward expects a (B, L, d) dy with B >= 1, got {np.shape(dy)}")
    ln1_cache, h1, lin1_cache, lin2_cache, ln2_cache = tape.pop()

    d_s2 = ops.layer_norm_backward(dy, ln2_cache, grads.ln2_gain, grads.ln2_bias)
    d_g = ops.linear_backward(d_s2, lin2_cache, grads.w_2, grads.b_2)
    d_h1 = ops.gelu_backward(d_g, h1)
    d_u = ops.linear_backward(d_h1, lin1_cache, grads.w_1, grads.b_1)
    d_u += d_s2

    d_s1 = ops.layer_norm_backward(d_u, ln1_cache, grads.ln1_gain, grads.ln1_bias)
    dx = attention_backward(d_s1, tape, grads)
    dx += d_s1
    return dx
