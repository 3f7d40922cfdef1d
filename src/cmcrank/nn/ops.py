"""Elementary numeric kernels: row softmax, layer norm, GELU and dense linear.

Each forward that participates in training has a paired ``*_backward``
taking the upstream gradient plus the forward's cache tuple.  All kernels
preserve the dtype of their inputs: the production path runs in float32,
while verification code may push float64 through the same graph.

A backward with parameters writes their gradients into the views it is
given, overwriting them, and returns only the input gradient; training
gives it views of one vector laid out like ``CmcParams.flat``.

Layer norm, linear and GELU take a stack of B examples with a leading
batch axis, (B, L, d); one example is a stack of one.  A backward reduces
its parameter gradients over the L rows of each example first and then
over the examples in order, so it writes bit for bit the sum that a loop
over the examples would build.  ``flush_tiny`` zeroes gradient entries
below the square root of the dtype's smallest normal number, so that neither
they nor their products are subnormal: float32 arithmetic on subnormal
operands is many times slower than on normal ones.

The elementwise kernels (layer norm, GELU, the bias add) compute their
results in buffers they allocate and then update in place, in the order
of operations of the plain expressions, so they give the same bits with
fewer temporaries; they never write into an argument.
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
    attention forward runs it only when its norm bound cannot prove the
    scores small (``attention.SCORE_MARGIN``), and a plain exp otherwise.
    The -80 floor keeps exp out of the subnormal range: over a (4, 64, 513)
    float32 block, np.exp costs 0.78 ms on U(-200, 0) logits, where
    results go subnormal, and 0.073 ms on U(-80, 0), while the floor pass
    itself costs 0.04 ms (single-threaded, 2-vCPU Xeon).  The resulting
    probability distortion is below 2e-35 per entry.
    """
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.maximum(x, -80.0, out=x)
    return np.exp(x, out=x)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax; only ``SPANS`` names it, and ROADMAP item 3 deletes it."""
    e = exp_shifted_inplace(np.array(x))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Layer norm; only ``SPANS`` names it, and ROADMAP item 3 deletes it."""
    y, _ = layer_norm_forward(x, gain, bias)
    return y


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis, then scale-shift; returns y and the cache."""
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
    x_hat = x - mean
    y = np.multiply(x_hat, x_hat)
    inv_std = y.mean(axis=-1, keepdims=True)
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat *= inv_std
    np.multiply(gain, x_hat, out=y)
    y += bias
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


def _sum_rows(g: np.ndarray, out: np.ndarray) -> None:
    """Sum a (B, L, n) gradient over the rows of each example, then over
    the examples in order, into ``out``."""
    np.sum(g.sum(axis=1), axis=0, out=out)


def layer_norm_backward(dy: np.ndarray, cache, d_gain, d_bias) -> np.ndarray:
    """Gradients of layer_norm w.r.t. input (returned), gain and bias."""
    x_hat, inv_std, gain = cache
    t = dy * x_hat
    _sum_rows(t, d_gain)
    _sum_rows(dy, d_bias)
    dx = dy * gain
    mean_d = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, x_hat, out=t)
    mean_dh = t.mean(axis=-1, keepdims=True)
    # dx = inv_std * ((d_hat - mean_d) - x_hat * mean_dh), d_hat = dy * gain
    np.multiply(x_hat, mean_dh, out=t)
    dx -= mean_d
    dx -= t
    dx *= inv_std
    return dx


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """A new array holding tanh(c * (x + a * x^3)), in that order of operations."""
    t = np.multiply(x, _GELU_A)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU (the BERT-family convention):
    0.5 * x * (1 + tanh(c * (x + a * x^3)))."""
    t = _gelu_tanh(x)
    t += 1.0
    y = np.multiply(x, 0.5)
    y *= t
    return y


def gelu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dy * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3a * x^2)), with
    t = tanh(c * (x + a * x^3))."""
    t = _gelu_tanh(x)
    d_inner = np.multiply(x, 3.0 * _GELU_A)
    d_inner *= x
    d_inner += 1.0
    d_inner *= _GELU_C
    one_minus = np.multiply(t, t)
    np.subtract(1.0, one_minus, out=one_minus)
    h = np.multiply(x, 0.5)
    h *= one_minus
    h *= d_inner
    t += 1.0
    t *= 0.5
    t += h
    t *= dy
    return t


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x @ w + b with w shaped (in_features, out_features)."""
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise InvalidShape(
            f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    y = x @ w
    y += b
    return y, (x, w)


def linear_backward(dy: np.ndarray, cache, dw, db) -> np.ndarray:
    x, w = cache
    np.sum(np.matmul(x.swapaxes(-1, -2), dy), axis=0, out=dw)
    _sum_rows(dy, db)
    return dy @ w.T
