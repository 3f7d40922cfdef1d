"""Manual backward pass vs the finite-difference oracle."""
import dataclasses

import numpy as np
import pytest

from cmcrank.errors import StateError
from cmcrank.nn import (finite_difference_gradient, gradients_close,
                        linear_backward, linear_forward)
from cmcrank.nn import attention as attention_module
from cmcrank.reranker import CmcParams, cmc_forward_recorded, cmc_score
from cmcrank.training import compute_loss


def params_as_float64(params: CmcParams) -> CmcParams:
    return dataclasses.replace(params, flat=params.flat.astype(np.float64))


def make_instance(rng, model_dim=8, k=4, input_scale=0.5):
    """A random training instance with O(10) score magnitudes, as a batch
    of one: (1, d) query, (1, K, d) candidates, (1, K) retriever scores
    and a (1,) gold position.

    Identity layer-norm gains plus the extra skip push contextualized
    norms to ~3 sqrt(d) and scores to ~9 d, where float32 rounding alone
    exceeds the test tolerances; drawing the norm gains from U(0.2, 0.5)
    keeps the instances in the moderate-score regime that the tolerances
    assume.  Permutation equivariance and gradient correctness are
    architectural, so the parameter region does not weaken the check.
    """
    params = CmcParams.init(model_dim=model_dim, head_count=2,
                            ffn_dim=2 * model_dim,
                            seed=int(rng.integers(1 << 31)))
    gain = rng.uniform(0.2, 0.5)
    for layer in params.layers:
        layer.ln1_gain[:] *= np.float32(gain)
        layer.ln2_gain[:] *= np.float32(gain)
    h_query = (input_scale * rng.standard_normal((1, model_dim))).astype(np.float32)
    h_cands = (input_scale * rng.standard_normal((1, k, model_dim))).astype(np.float32)
    retriever = rng.standard_normal((1, k)).astype(np.float32)
    gold = np.array([rng.integers(k)])
    return params, h_query, h_cands, retriever, gold


def full_loss(params, h_query, h_cands, retriever, gold,
              lambda1=0.5, lambda2=0.5) -> float:
    tape = cmc_forward_recorded(params, h_query, h_cands)
    scores = cmc_score(tape.ctx).scores
    return compute_loss(scores, gold, retriever, lambda1, lambda2)[0][0]


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        theta = np.array([3.0])
        grad = finite_difference_gradient(lambda: float(theta[0] ** 2),
                                          {"theta": theta}, h=1e-3)
        np.testing.assert_allclose(grad["theta"], [6.0], atol=1e-3)

    def test_constant(self):
        theta = np.random.default_rng(0).standard_normal((3, 3))
        grad = finite_difference_gradient(lambda: 7.5, {"theta": theta}, h=1e-3)
        np.testing.assert_allclose(grad["theta"], 0.0)


class TestBackward:
    def test_degenerate_loss_gives_zero_gradients(self):
        """lambda1 = lambda2 = 0 makes the loss identically zero."""
        rng = np.random.default_rng(1)
        params, hq, hc, retr, gold = make_instance(rng)
        tape = cmc_forward_recorded(params, hq, hc)
        scores = cmc_score(tape.ctx).scores
        loss, d_scores = compute_loss(scores, gold, retr, 0.0, 0.0)
        assert loss[0] == 0.0
        grads, dq, dc = tape.backward(d_scores)
        assert all(np.all(g == 0) for g in grads.arrays().values())
        assert np.all(dq == 0) and np.all(dc == 0)

    def test_linear_sublayer_analytic_case(self):
        """loss = sum of outputs: dW is column-replicated input sums,
        db is the row count, dx is the row sums of W."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        y, cache = linear_forward(x[None], w, b)
        dw, db = np.empty_like(w), np.empty_like(b)
        dx = linear_backward(np.ones_like(y), cache, dw, db)[0]
        np.testing.assert_allclose(dw, np.tile(x.sum(axis=0)[:, None], (1, 4)),
                                   rtol=1e-9)
        np.testing.assert_allclose(db, np.full(4, 5.0))
        np.testing.assert_allclose(dx, np.tile(w.sum(axis=1), (5, 1)), rtol=1e-9)

    def test_backward_twice_raises(self):
        rng = np.random.default_rng(3)
        params, hq, hc, retr, gold = make_instance(rng)
        tape = cmc_forward_recorded(params, hq, hc)
        d_scores = np.ones((1, 4), dtype=np.float32)
        tape.backward(d_scores)
        with pytest.raises(StateError):
            tape.backward(d_scores)

    @pytest.mark.parametrize("block_rows", [
        pytest.param(attention_module._BLOCK_ROWS, id="one_block"),
        pytest.param(2, id="three_blocks"),
    ])
    def test_matches_finite_differences_small_instance(self, monkeypatch, block_rows):
        """Full-loss gradients on a model_dim-8 instance, float32 backward
        against the float64-evaluated central-difference oracle (h = 1e-3
        steps on the float32 parameters).  With blocks of 2 the 5-row
        sequence records its attention probabilities from three blocks."""
        monkeypatch.setattr(attention_module, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(4)
        params, hq, hc, retr, gold = make_instance(rng, model_dim=8, k=4)
        tape = cmc_forward_recorded(params, hq, hc)
        scores = cmc_score(tape.ctx).scores
        _, d_scores = compute_loss(scores, gold, retr, 0.5, 0.5)
        analytic, dq, dc = tape.backward(d_scores)

        def loss64() -> float:
            p64 = params_as_float64(params)
            return full_loss(p64, hq.astype(np.float64), hc.astype(np.float64),
                             retr, gold)

        arrays = params.arrays()
        numeric = finite_difference_gradient(loss64, arrays, h=1e-3)
        assert gradients_close(analytic.arrays(), numeric)

        numeric_inputs = finite_difference_gradient(
            loss64, {"hq": hq, "hc": hc}, h=1e-3)
        assert gradients_close({"hq": dq, "hc": dc}, numeric_inputs)
