"""Elementary numeric kernels: row softmax, layer norm, GELU and dense linear.

Each forward that participates in training has a paired ``*_backward``
taking the upstream gradient plus the forward's cache tuple.  All kernels
preserve the dtype of their inputs: the production path runs in float32,
while verification code may push float64 through the same graph.

Layer norm, linear and GELU take one (L, d) example or a stack of them
with a leading batch axis, (B, L, d).  A batched backward reduces its
parameter gradients over the L rows of each example first and then over
the examples in order, so it returns bit for bit the sum that a loop over
the examples would build.  ``flush_tiny`` zeroes gradient entries below
the square root of the dtype's smallest normal number, so that neither
they nor their products are subnormal: float32 arithmetic on subnormal
operands is many times slower than on normal ones.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidShape

LAYER_NORM_EPS = 1e-5

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def exp_shifted_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite ``x`` with ``exp(max(x - rowmax, -80))`` over the last axis.

    The unnormalized numerator of a stable softmax; returns ``x``.  The
    -80 floor keeps exp out of the subnormal range: over a (4, 64, 513)
    float32 block, np.exp costs 0.78 ms on U(-200, 0) logits, where
    results go subnormal, and 0.073 ms on U(-80, 0), while the floor pass
    itself costs 0.04 ms (single-threaded, 2-vCPU Xeon).  The resulting
    probability distortion is below 2e-35 per entry.
    """
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.maximum(x, -80.0, out=x)
    return np.exp(x, out=x)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis (no validation)."""
    e = exp_shifted_inplace(np.array(x))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               eps: float = LAYER_NORM_EPS) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    y, _ = layer_norm_forward(x, gain, bias, eps)
    return y


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = LAYER_NORM_EPS):
    x = np.asarray(x)
    gain = np.asarray(gain)
    bias = np.asarray(bias)
    if x.shape[-1] < 1:
        raise InvalidShape("layer_norm needs at least one feature")
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise InvalidShape(
            f"layer_norm shape mismatch: x has {x.shape[-1]} features, "
            f"gain {gain.shape}, bias {bias.shape}")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    y = gain * x_hat + bias
    return y, (x_hat, inv_std, gain)


def flush_tiny(x: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries of ``x`` smaller in magnitude than the
    square root of the smallest normal number of its dtype (2**-63, about
    1.1e-19, in float32); returns ``x``.

    Float32 arithmetic on subnormal operands is slow: a (17, 64) @ (64, 64)
    product took 2.1 us with a normal left operand and 218 us with a
    subnormal one (single-threaded OpenBLAS, 2-vCPU Xeon).  A bound at the
    smallest normal number itself is not enough, because an entry just
    above it times a weight or an activation goes subnormal one kernel
    later; the product of two entries at or above the square root is
    normal.  The flushed entries vanish in rounding once added to a normal
    gradient, so flushing the training gradients where they are made left
    the benchmark's training losses unchanged bit for bit.
    """
    x[np.abs(x) < np.sqrt(np.finfo(x.dtype).tiny)] = 0.0
    return x


def _sum_rows(g: np.ndarray) -> np.ndarray:
    """Sum over the rows of each example, then over a leading batch axis
    in example order."""
    g = g.sum(axis=-2)
    return g.sum(axis=0) if g.ndim == 2 else g


def layer_norm_backward(dy: np.ndarray, cache):
    """Gradients of layer_norm w.r.t. input, gain and bias."""
    x_hat, inv_std, gain = cache
    d_gain = _sum_rows(dy * x_hat)
    d_bias = _sum_rows(dy)
    d_hat = dy * gain
    mean_d = d_hat.mean(axis=-1, keepdims=True)
    mean_dh = (d_hat * x_hat).mean(axis=-1, keepdims=True)
    dx = inv_std * (d_hat - mean_d - x_hat * mean_dh)
    return dx, d_gain, d_bias


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU (the BERT-family convention)."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x @ w + b with w shaped (in_features, out_features)."""
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise InvalidShape(
            f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    return x @ w + b, (x, w)


def linear_backward(dy: np.ndarray, cache):
    x, w = cache
    dx = dy @ w.T
    dw = np.matmul(x.swapaxes(-1, -2), dy)
    if dw.ndim == 3:
        dw = dw.sum(axis=0)
    return dx, dw, _sum_rows(dy)
