"""Encoder layer: sublayer-composition oracle, equivariance, determinism."""
import math

import numpy as np
import pytest

from cmcrank.errors import InvalidShape
from cmcrank.nn import encoder_layer_forward
from cmcrank.reranker import CmcParams
from test_attention import layer, naive_attention


def naive_layer_norm(x, gain, bias, eps=1e-5):
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        mean = float(np.mean(x[i]))
        var = float(np.mean((x[i] - mean) ** 2))
        out[i] = gain * (x[i] - mean) / math.sqrt(var + eps) + bias
    return out


def naive_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def naive_encoder_layer(x, p):
    """Composition of independently written sublayer oracles."""
    a = naive_attention(x, p)
    u = naive_layer_norm(x + a, p.ln1_gain, p.ln1_bias)
    f = naive_gelu(u @ p.w_1 + p.b_1) @ p.w_2 + p.b_2
    return naive_layer_norm(u + f, p.ln2_gain, p.ln2_bias)


class TestEncoderLayer:
    def test_matches_sublayer_composition_oracle(self):
        rng = np.random.default_rng(4)
        params = layer(8, 2, rng)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        np.testing.assert_allclose(encoder_layer_forward(x[None], params)[0],
                                   naive_encoder_layer(x, params), atol=1e-4)

    def test_permutation_equivariance_end_to_end(self):
        rng = np.random.default_rng(5)
        params = layer(8, 4, rng)
        for _ in range(100):
            x = rng.standard_normal((5, 8)).astype(np.float32)
            perm = rng.permutation(5)
            out = encoder_layer_forward(x[None], params)[0]
            out_perm = encoder_layer_forward(x[perm][None], params)[0]
            assert np.abs(out_perm - out[perm]).max() <= 1e-5

    def test_zero_length_rejected(self):
        params = layer(8, 2)
        with pytest.raises(InvalidShape):
            encoder_layer_forward(np.empty((1, 0, 8), dtype=np.float32), params)
        with pytest.raises(InvalidShape):
            encoder_layer_forward(np.empty((0, 4, 8), dtype=np.float32), params)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        params = layer(16, 4, rng)
        x = rng.standard_normal((7, 16)).astype(np.float32)
        first = encoder_layer_forward(x[None], params)
        second = encoder_layer_forward(x[None], params)
        assert first.tobytes() == second.tobytes()

    def test_outputs_finite_for_large_inputs(self):
        rng = np.random.default_rng(7)
        params = layer(8, 2, rng)
        for scale in (1.0, 100.0, 1e3):
            x = (scale * rng.uniform(-1, 1, size=(6, 8))).astype(np.float32)
            out = encoder_layer_forward(x[None], params)
            assert np.all(np.isfinite(out))

    def test_serialization_round_trip_bit_exact(self, tmp_path):
        params = CmcParams.init(model_dim=8, head_count=2, seed=8)
        path = tmp_path / "layer_roundtrip.cmcp"
        params.save(path)
        loaded = CmcParams.load(path)
        for saved, back in zip(params.layers, loaded.layers):
            assert back.head_count == saved.head_count
            for name, arr in saved.arrays().items():
                assert back.arrays()[name].tobytes() == arr.tobytes()
