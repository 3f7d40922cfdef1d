"""Elementary kernel tests: row softmax, layer norm, GELU, linear."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcrank.errors import InvalidShape
from cmcrank.nn import (gelu, gelu_backward, layer_norm_backward,
                        layer_norm_forward, linear_forward)
from cmcrank.nn.ops import LAYER_NORM_EPS, exp_shifted_inplace


def softmax(x):
    """Row softmax over the last axis from the kernel's numerator:
    ``exp_shifted_inplace`` on a copy, normalized here."""
    e = exp_shifted_inplace(np.array(x))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax64(row):
    """Reference softmax of one row, in float64."""
    e = np.exp(row.astype(np.float64) - row.max())
    return e / e.sum()


class TestSoftmax:
    """One vector through the softmax, its 1-D case."""

    def test_uniform_logits(self):
        """Equal inputs map to the uniform distribution."""
        np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-7)

    def test_shift_invariance(self):
        """Adding a constant to every logit leaves the output unchanged."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.standard_normal(6).astype(np.float32)
            c = rng.uniform(-50, 50)
            np.testing.assert_allclose(softmax(v + np.float32(c)),
                                       softmax(v), atol=1e-6)

    def test_log_integer_logits(self):
        # exp-normalization of [ln 1, ln 2, ln 3]: weights 1:2:3
        out = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(-30, 30, size=rng.integers(1, 20)).astype(np.float32)
            out = softmax(v)
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) <= 1e-6

    def test_extreme_inputs_stay_finite(self):
        out = softmax(np.array([1e3, -1e3, 0.0], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-6


class TestSoftmaxRows:
    def test_rows_are_distributions(self):
        """Every row along the last axis sums to 1 and matches the 1-D
        float64 softmax of that row."""
        rng = np.random.default_rng(8)
        x = rng.uniform(-30, 30, size=(3, 5, 7)).astype(np.float32)
        out = softmax(x)
        assert out.dtype == np.float32 and out.shape == x.shape
        assert np.all(out >= 0)
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-6
        for row, expected in zip(x.reshape(-1, 7), out.reshape(-1, 7)):
            np.testing.assert_allclose(softmax64(row), expected, atol=1e-7)

    def test_shift_invariance(self):
        """A constant added to a row leaves that row's output unchanged."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 9)).astype(np.float32)
        shift = rng.uniform(-50, 50, size=(6, 1)).astype(np.float32)
        np.testing.assert_allclose(softmax(x + shift), softmax(x),
                                   atol=1e-6)

    def test_input_left_untouched(self):
        """The kernel overwrites its argument with the numerator and returns
        it, so a softmax that must keep its input passes a copy."""
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        e = x.copy()
        assert exp_shifted_inplace(e) is e
        np.testing.assert_allclose(e, np.exp(x - 3.0), rtol=1e-6)
        softmax(x)
        np.testing.assert_array_equal(x, [[1.0, 2.0, 3.0]])

    def test_wide_spread_stays_finite(self):
        """A logit spread of 1000 is a distribution up to the -80 exp floor:
        every entry more than 80 below its row's max gets the same normal
        float of at most 2e-35 (the floor keeps exp out of the subnormal
        range, so these are not exact zeros)."""
        x = np.array([[1000.0, 0.0, -1.0, 999.0],
                      [-500.0, 500.0, 419.0, -400.0]], dtype=np.float32)
        out = softmax(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, [0, 3]], [1 / (1 + math.exp(-1)),
                                                    1 / (1 + math.e)], rtol=1e-6)
        assert out[1, 1] == 1.0
        for floored in (out[0, [1, 2]], out[1, [0, 2, 3]]):
            assert np.all(floored == floored[0])
            assert np.finfo(np.float32).tiny <= floored[0] <= 2e-35


class TestLayerNorm:
    def test_already_normalized(self):
        """[1, -1] is zero-mean unit-variance, so identity up to eps."""
        out = layer_norm_forward(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))[0]
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-4)

    def test_zero_gain_yields_bias(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        bias = rng.standard_normal(5)
        np.testing.assert_allclose(layer_norm_forward(x, np.zeros(5), bias)[0], bias)

    def test_scalar_oracle(self):
        # independent mean/variance computation for x = [1, 2, 3]
        x = np.array([1.0, 2.0, 3.0])
        mean = (1 + 2 + 3) / 3
        var = ((1 - mean) ** 2 + (2 - mean) ** 2 + (3 - mean) ** 2) / 3
        expected = (x - mean) / math.sqrt(var + 1e-5)
        out = layer_norm_forward(x, np.ones(3), np.zeros(3))[0]
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            layer_norm_forward(np.ones(4), np.ones(3), np.zeros(4))

    def test_rowwise_on_matrix(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        gain = rng.standard_normal(6).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        out = layer_norm_forward(x, gain, bias)[0]
        for i in range(4):
            np.testing.assert_allclose(out[i], layer_norm_forward(x[i], gain, bias)[0],
                                       rtol=1e-6)


class TestGelu:
    def test_zero_fixed_point(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_large_positive_near_identity(self):
        np.testing.assert_allclose(gelu(np.array([6.0])), [6.0], atol=1e-4)

    def test_derivative_matches_finite_difference(self):
        x = np.linspace(-4, 4, 101)
        h = 1e-6
        numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
        analytic = gelu_backward(np.ones_like(x), x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)


class TestLinear:
    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        y, _ = linear_forward(x, w, b)
        expected = np.array([[x[i] @ w[:, j] + b[j] for j in range(2)]
                             for i in range(3)])
        np.testing.assert_allclose(y, expected, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            linear_forward(np.ones((2, 3)), np.ones((4, 2)), np.ones(2))


class TestInPlaceKernels:
    """The kernels build their results in buffers of their own; they equal
    the plain expressions, operation for operation, and leave their
    inputs as they were."""

    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=2, max_size=3),
           dtype=st.sampled_from([np.float32, np.float64]),
           log_scale=st.floats(-25, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_equal_the_plain_expressions_bit_for_bit(self, shape, dtype,
                                                     log_scale, seed):
        rng = np.random.default_rng(seed)
        x = (10.0 ** log_scale * rng.standard_normal(shape)).astype(dtype)
        dy = (10.0 ** log_scale * rng.standard_normal(shape)).astype(dtype)
        # The kernels take a (B, L, d) stack; a 2-D draw is a stack of one.
        x, dy = (a.reshape(-1, *shape[-2:]) for a in (x, dy))
        gain, bias, b = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(3))
        w = rng.standard_normal((shape[-1], shape[-1])).astype(dtype)
        inputs = [a.copy() for a in (x, dy, gain, bias, w, b)]
        c, a = math.sqrt(2.0 / math.pi), 0.044715

        with np.errstate(all="ignore"):
            t = np.tanh(c * (x + a * x * x * x))
            plain = {
                "gelu": 0.5 * x * (1.0 + t),
                "gelu_backward": dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t)
                                       * (c * (1.0 + 3.0 * a * x * x))),
                "linear": x @ w + b,
            }
            centered = x - x.mean(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True)
                                    + LAYER_NORM_EPS)
            x_hat = centered * inv_std
            plain["layer_norm"] = gain * x_hat + bias
            d_hat = dy * gain
            plain["layer_norm_dx"] = inv_std * (
                d_hat - d_hat.mean(axis=-1, keepdims=True)
                - x_hat * (d_hat * x_hat).mean(axis=-1, keepdims=True))

            y, cache = layer_norm_forward(x, gain, bias)
            got = {
                "gelu": gelu(x), "gelu_backward": gelu_backward(dy, x),
                "linear": linear_forward(x, w, b)[0], "layer_norm": y,
                "layer_norm_dx": layer_norm_backward(dy, cache, np.empty_like(gain),
                                                     np.empty_like(bias)),
            }
        for name, value in got.items():
            assert value.dtype == dtype, name
            assert value.tobytes() == plain[name].tobytes(), name
        assert cache[0].tobytes() == x_hat.tobytes()
        for before, after in zip(inputs, (x, dy, gain, bias, w, b)):
            assert before.tobytes() == after.tobytes()
