"""Multi-head self-attention: oracle agreement and permutation behavior."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcrank.errors import InvalidConfig, InvalidShape
from cmcrank.nn import attention_backward, multi_head_self_attention
from cmcrank.nn import attention as attention_module
from cmcrank.nn.attention import SCORE_MARGIN
from cmcrank.nn.ops import exp_shifted_inplace
from cmcrank.reranker import CmcParams

#: The LayerParams fields that attention_backward writes.
PROJECTIONS = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o")


def layer(dim, heads, rng=None):
    """The first layer of a newly initialized model, seeded from ``rng``."""
    seed = 0 if rng is None else int(rng.integers(1 << 31))
    return CmcParams.init(model_dim=dim, head_count=heads, seed=seed).layers[0]


def naive_attention(x, params):
    """Independent per-head reference: explicit loops, no shared code paths."""
    h = params.head_count
    length, dim = x.shape
    head_dim = dim // h
    q = x @ params.w_q + params.b_q
    k = x @ params.w_k + params.b_k
    v = x @ params.w_v + params.b_v
    out = np.zeros((length, dim))
    for head in range(h):
        sl = slice(head * head_dim, (head + 1) * head_dim)
        for i in range(length):
            logits = np.array([q[i, sl] @ k[j, sl] for j in range(length)])
            logits = logits / math.sqrt(head_dim)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            for j in range(length):
                out[i, sl] += weights[j] * v[j, sl]
    return out @ params.w_o + params.b_o


class TestAttention:
    def test_single_row_is_value_projection(self):
        """With L = 1 the attention weight is [1], so the output row is the
        output-projection of the value-projection of the input row."""
        rng = np.random.default_rng(0)
        params = layer(8, 2, rng)
        x = rng.standard_normal((1, 8)).astype(np.float32)
        expected = (x @ params.w_v + params.b_v) @ params.w_o + params.b_o
        out = multi_head_self_attention(x, params)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_permutation_equivariance(self):
        """No positional encoding: permuting rows permutes outputs identically."""
        rng = np.random.default_rng(1)
        params = layer(12, 3, rng)
        for _ in range(100):
            x = rng.standard_normal((6, 12)).astype(np.float32)
            perm = rng.permutation(6)
            out = multi_head_self_attention(x, params)
            out_perm = multi_head_self_attention(x[perm], params)
            assert np.abs(out_perm - out[perm]).max() <= 1e-5

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        params = layer(4, 2, rng)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_allclose(multi_head_self_attention(x, params),
                                   naive_attention(x, params), atol=1e-5)

    def test_head_count_must_divide_dim(self):
        params = dataclasses.replace(layer(8, 2), head_count=3)
        with pytest.raises(InvalidConfig):
            multi_head_self_attention(np.ones((2, 8), dtype=np.float32), params)

    def test_empty_sequence_rejected(self):
        params = layer(8, 2)
        with pytest.raises(InvalidShape):
            multi_head_self_attention(np.empty((0, 8), dtype=np.float32), params)

    def test_row_blocks_match_naive_oracle(self, monkeypatch):
        """Query rows run in blocks of _BLOCK_ROWS; with blocks of 4 over
        10 rows the last block is ragged (4, 4, 2)."""
        monkeypatch.setattr(attention_module, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(3)
        params = layer(16, 4, rng)
        x = rng.standard_normal((10, 16)).astype(np.float32)
        np.testing.assert_allclose(multi_head_self_attention(x, params),
                                   naive_attention(x, params), atol=1e-5)

    def test_taped_forward_is_bit_identical(self):
        """Recording for backward must not change the arithmetic, also when
        the sequence spans several row blocks (L = 513: a query plus 512
        candidates)."""
        rng = np.random.default_rng(4)
        params = layer(16, 4, rng)
        x = rng.standard_normal((513, 16)).astype(np.float32)
        assert x.shape[0] > 2 * attention_module._BLOCK_ROWS
        taped = multi_head_self_attention(x, params, [])
        assert np.array_equal(taped, multi_head_self_attention(x, params))

    @settings(max_examples=150, deadline=None)
    @given(length=st.integers(1, 13), heads=st.integers(1, 4),
           head_dim=st.integers(1, 8), logit_scale=st.floats(0.1, 12.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blocked_forward_property(self, length, heads, head_dim,
                                      logit_scale, seed):
        """Blocks of 4 rows over L = 1..13 (ragged and single-row last
        blocks): taped and untaped outputs match the float64 oracle and each
        other bit for bit, and the taped probabilities are normalized.
        Query and key weights of std ``logit_scale / sqrt(d)`` give logits
        of std about ``logit_scale ** 2``, so rows with a spread beyond the
        -80 exp floor are drawn too."""
        rng = np.random.default_rng(seed)
        dim = heads * head_dim
        params = layer(dim, heads, rng)
        for name in ("w_q", "w_k"):
            w = rng.standard_normal((dim, dim)) * (logit_scale / math.sqrt(dim))
            getattr(params, name)[:] = w
        x = rng.standard_normal((length, dim)).astype(np.float32)
        params64 = dataclasses.replace(
            params, **{name: a.astype(np.float64)
                       for name, a in params.arrays().items()})
        expected = naive_attention(x.astype(np.float64), params64)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attention_module, "_BLOCK_ROWS", 4)
            plain = multi_head_self_attention(x, params)
            tape = []
            taped = multi_head_self_attention(x, params, tape)

        np.testing.assert_allclose(plain, expected, rtol=0, atol=1e-5)
        np.testing.assert_allclose(taped, expected, rtol=0, atol=1e-5)
        assert np.array_equal(taped, plain)
        attn = tape[0][4]
        assert attn.shape == (heads, length, length)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6


def naive_attention64(x, params):
    """``naive_attention`` with the input and every weight in float64."""
    params64 = dataclasses.replace(
        params, **{name: a.astype(np.float64) for name, a in params.arrays().items()})
    return naive_attention(x.astype(np.float64), params64)


def scores_bounded_by(bound, length=6, dim=8, seed=0):
    """An input and a one-head layer whose norm bound on the scores,
    max_i |q_i| * max_j |k_j|, is ``bound``.  The query and key projections
    are the identity, so the scaled self-score of the longest input row
    reaches the bound itself."""
    rng = np.random.default_rng(seed)
    params = layer(dim, 1, rng)
    params.w_q[:] = params.w_k[:] = np.eye(dim)
    params.b_q[:] = params.b_k[:] = 0.0
    x = rng.standard_normal((length, dim))
    x *= math.sqrt(bound * math.sqrt(dim) / (x * x).sum(axis=1).max())
    return x.astype(np.float32), params


def by_hand(x, params, numerator):
    """The forward's arithmetic for one row block (L <= _BLOCK_ROWS), with
    ``numerator`` applied in place to the (heads, L, L) scores."""
    h = params.head_count
    length, dim = x.shape
    head_dim = dim // h

    def split(a):
        return a.reshape(length, h, head_dim).swapaxes(0, 1)

    q = x @ params.w_q
    q += params.b_q
    q *= 1.0 / math.sqrt(head_dim)
    k = x @ params.w_k + params.b_k
    v = x @ params.w_v + params.b_v
    e = split(q) @ np.ascontiguousarray(split(k).transpose(0, 2, 1))
    numerator(e)
    va = np.concatenate([split(v), np.ones((h, length, 1), dtype=v.dtype)], axis=-1)
    context = e @ va
    out = context[..., :head_dim] / context[..., head_dim:]
    return out.swapaxes(0, 1).reshape(length, dim) @ params.w_o + params.b_o


def plain_exp(e):
    np.exp(e, out=e)


class TestScoreBound:
    """The forward skips the max shift when its norm bound proves every
    score at most ``SCORE_MARGIN`` and the values safe, and shifts
    otherwise."""

    @pytest.mark.parametrize("factor", [0.98, 1.02])
    def test_either_side_of_the_margin_matches_naive_oracle(self, factor):
        x, params = scores_bounded_by(factor * SCORE_MARGIN)
        out = multi_head_self_attention(x, params)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, naive_attention64(x, params), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("value_scale", [1e18, 1e30])
    def test_huge_values_under_the_margin_stay_finite(self, value_scale):
        """Scores of up to 0.9 * SCORE_MARGIN with values a few times
        ``value_scale``: at 1e18 the squared value norms are finite and the
        unshifted exp is safe; at 1e30 they are not, and an unshifted exp
        of up to 5e11 would overflow the value product."""
        x, params = scores_bounded_by(0.9 * SCORE_MARGIN)
        eye = np.eye(x.shape[1])
        params.w_v[:] = value_scale * eye
        params.w_o[:] = eye / value_scale
        out = multi_head_self_attention(x, params)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, naive_attention64(x, params), rtol=0, atol=1e-5)

    def test_under_the_margin_runs_exp_over_it_the_shifted_exp(self):
        """Bit for bit, a forward under the margin runs a plain exp and one
        over it ``exp_shifted_inplace``; the two numerators give different
        bits on these inputs."""
        for bound, numerator, other in ((0.5, plain_exp, exp_shifted_inplace),
                                        (40.0, exp_shifted_inplace, plain_exp)):
            x, params = scores_bounded_by(bound)
            for tape in (None, []):
                out = multi_head_self_attention(x, params, tape)
                assert out.tobytes() == by_hand(x, params, numerator).tobytes(), bound
                assert out.tobytes() != by_hand(x, params, other).tobytes(), bound


class TestStackedBackward:
    @settings(max_examples=120, deadline=None)
    @given(batch=st.integers(1, 5), length=st.integers(1, 20),
           heads=st.integers(1, 4), head_dim=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_example_loop_bit_for_bit(self, batch, length, heads,
                                                 head_dim, dtype, seed):
        """One backward over a (B, L, d) stack pops the B entries and gives
        the input gradients of a loop over the examples, stacked, and the
        sum of their parameter gradients in example order."""
        rng = np.random.default_rng(seed)
        dim = heads * head_dim
        params = layer(dim, heads, rng)
        params = dataclasses.replace(
            params, **{name: (a + 0.3 * rng.standard_normal(a.shape)).astype(dtype)
                       for name, a in params.arrays().items()})
        x = rng.standard_normal((batch, length, dim)).astype(dtype)
        dy = rng.standard_normal((batch, length, dim)).astype(dtype)

        def new_grads():
            return dataclasses.replace(params, **{
                name: np.empty_like(a) for name, a in params.arrays().items()})

        tape: list = ["below"]
        for xb in x:
            multi_head_self_attention(xb, params, tape)
        stacked = new_grads()
        dx = attention_backward(dy, tape, stacked)
        grads = {name: getattr(stacked, name) for name in PROJECTIONS}
        assert tape == ["below"]

        loop_dx, loop_grads = [], []
        for b in range(batch):
            one: list = []
            multi_head_self_attention(x[b], params, one)
            g = new_grads()
            loop_dx.append(attention_backward(dy[b:b + 1], one, g))
            loop_grads.append({name: getattr(g, name) for name in PROJECTIONS})
        assert dx.dtype == dtype
        assert dx.tobytes() == np.stack(loop_dx).tobytes()
        assert grads.keys() == loop_grads[0].keys()
        for name, grad in grads.items():
            total = loop_grads[0][name].copy()
            for g in loop_grads[1:]:
                total += g[name]
            assert grad.dtype == dtype
            assert grad.tobytes() == total.tobytes(), name
