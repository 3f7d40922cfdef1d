"""Reranker semantics: extra residual, permutation behavior, rerank contract."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmcrank.nn.attention as attention_module
import cmcrank.nn.ops as ops_module
import cmcrank.reranker as reranker_module
from cmcrank.encoders import EmbeddingTable
from cmcrank.errors import InvalidShape, MissingCandidate, StateError
from cmcrank.index import RankedList
from cmcrank.nn import encoder_layer_forward, linear_backward
from cmcrank.reranker import (CmcParams, ContextualizedSet, cmc_forward,
                              cmc_forward_recorded, cmc_score, rerank)


def make_ranked(ids, scores):
    return RankedList(ids=np.asarray(ids, dtype=np.uint64),
                      scores=np.asarray(scores, dtype=np.float32))


class TestForward:
    def test_extra_skip_is_stagewise_input_plus_layer(self):
        """Each stage output equals x + F(x) where F is the bare encoder
        layer; verified by composing the public layer forward."""
        rng = np.random.default_rng(0)
        params = CmcParams.init(model_dim=8, head_count=2, seed=1)
        hq = rng.standard_normal(8).astype(np.float32)
        hc = rng.standard_normal((3, 8)).astype(np.float32)
        x = np.concatenate([hq[None, :], hc], axis=0)[None]
        for layer in params.layers:
            x = x + encoder_layer_forward(x, layer)
        ctx = cmc_forward(params, hq[None], hc[None])
        np.testing.assert_allclose(ctx.h_query[0], x[0, 0], atol=1e-6)
        np.testing.assert_allclose(ctx.h_candidates[0], x[0, 1:], atol=1e-6)

    def test_candidate_permutation(self):
        """Permuting candidates permutes their outputs and fixes the query."""
        rng = np.random.default_rng(2)
        params = CmcParams.init(model_dim=16, head_count=4, seed=3)
        hq = rng.standard_normal(16).astype(np.float32)
        hc = rng.standard_normal((6, 16)).astype(np.float32)
        base = cmc_forward(params, hq[None], hc[None])
        for _ in range(25):
            perm = rng.permutation(6)
            out = cmc_forward(params, hq[None], hc[perm][None])
            assert np.abs(out.h_query[0] - base.h_query[0]).max() <= 1e-5
            assert np.abs(out.h_candidates[0] - base.h_candidates[0][perm]).max() <= 1e-5

    def test_k_one_matches_two_row_layer_composition(self):
        rng = np.random.default_rng(3)
        params = CmcParams.init(model_dim=8, head_count=2, seed=4)
        hq = rng.standard_normal(8).astype(np.float32)
        hc = rng.standard_normal((1, 8)).astype(np.float32)
        x = np.vstack([hq, hc[0]])[None]
        for layer in params.layers:
            x = x + encoder_layer_forward(x, layer)
        ctx = cmc_forward(params, hq[None], hc[None])
        np.testing.assert_allclose(ctx.h_query[0], x[0, 0], atol=1e-6)
        np.testing.assert_allclose(ctx.h_candidates[0, 0], x[0, 1], atol=1e-6)

    def test_zero_candidates_rejected(self):
        params = CmcParams.init(model_dim=8, head_count=2)
        with pytest.raises(InvalidShape):
            cmc_forward(params, np.zeros((1, 8), dtype=np.float32),
                        np.empty((1, 0, 8), dtype=np.float32))

    def test_empty_batch_rejected(self):
        """B = 0 is the package's InvalidShape, which per-query isolation
        catches, not numpy's error from stacking no sequences."""
        params = CmcParams.init(model_dim=8, head_count=2)
        with pytest.raises(InvalidShape, match="B >= 1"):
            cmc_forward(params, np.zeros((0, 8), dtype=np.float32),
                        np.zeros((0, 5, 8), dtype=np.float32))

    def test_dim_mismatch_rejected(self):
        params = CmcParams.init(model_dim=8, head_count=2)
        with pytest.raises(InvalidShape):
            cmc_forward(params, np.zeros((1, 7), dtype=np.float32),
                        np.zeros((1, 2, 8), dtype=np.float32))

    def test_over_limit_rejected(self):
        params = CmcParams.init(model_dim=8, head_count=2)
        with pytest.raises(InvalidShape):
            cmc_forward(params, np.zeros((1, 8), dtype=np.float32),
                        np.zeros((1, 16385, 8), dtype=np.float32))


class TestScore:
    def test_zero_query_all_zero_tie_breaks_low(self):
        ctx = ContextualizedSet(h_query=np.zeros((1, 4), dtype=np.float32),
                                h_candidates=np.ones((1, 3, 4), dtype=np.float32))
        sv = cmc_score(ctx)
        np.testing.assert_array_equal(sv.scores[0], np.zeros(3))
        assert sv.argmax_index[0] == 0

    def test_matching_candidate_wins(self):
        hq = np.array([2.0, 0.0, 0.0], dtype=np.float32)
        hc = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                      dtype=np.float32)
        sv = cmc_score(ContextualizedSet(h_query=hq[None], h_candidates=hc[None]))
        assert sv.argmax_index[0] == 1
        assert sv.scores[0, 1] == pytest.approx(np.dot(hq, hq))

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(4)
        hq = rng.standard_normal(8).astype(np.float32)
        hc = rng.standard_normal((5, 8)).astype(np.float32)
        sv = cmc_score(ContextualizedSet(h_query=hq[None], h_candidates=hc[None]))
        expected = [float(sum(hq[d] * hc[j, d] for d in range(8)))
                    for j in range(5)]
        np.testing.assert_allclose(sv.scores[0], expected, rtol=1e-5)


class TestRerank:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.params = CmcParams.init(model_dim=8, head_count=2, seed=6)
        self.ids = np.arange(10, dtype=np.uint64)
        self.table = EmbeddingTable(
            self.ids, rng.standard_normal((10, 8)).astype(np.float32))
        self.hq = rng.standard_normal(8).astype(np.float32)
        self.ranked = make_ranked(self.ids, np.linspace(1, 0, 10))

    def test_full_output_is_permutation_of_input(self):
        out = rerank(self.params, self.hq, self.ranked, self.table, 10)
        assert sorted(out.ids.tolist()) == self.ids.tolist()

    def test_duplicate_embeddings_tie_break_low_id(self):
        matrix = np.tile(np.arange(8, dtype=np.float32), (4, 1))
        table = EmbeddingTable([4, 9, 2, 7], matrix)
        ranked = make_ranked([4, 9, 2, 7], [4.0, 3.0, 2.0, 1.0])
        out = rerank(self.params, self.hq, ranked, table, 4)
        assert out.ids.tolist() == [2, 4, 7, 9]

    def test_order_matches_independent_score_sort(self):
        out = rerank(self.params, self.hq, self.ranked, self.table, 10)
        ctx = cmc_forward(self.params, self.hq[None],
                          self.table.batch(self.ranked.ids)[None])
        scores = cmc_score(ctx).scores[0]
        order = sorted(range(10), key=lambda j: (-scores[j], self.ranked.ids[j]))
        assert out.ids.tolist() == [int(self.ranked.ids[j]) for j in order]

    def test_prefix_consistency(self):
        full = rerank(self.params, self.hq, self.ranked, self.table, 10)
        for m in (1, 3, 7):
            part = rerank(self.params, self.hq, self.ranked, self.table, m)
            assert part.ids.tolist() == full.ids.tolist()[:m]

    def test_missing_embedding(self):
        ranked = make_ranked([0, 999], [1.0, 0.5])
        with pytest.raises(MissingCandidate):
            rerank(self.params, self.hq, ranked, self.table, 2)

    def test_k_out_beyond_input_rejected(self):
        with pytest.raises(InvalidShape):
            rerank(self.params, self.hq, self.ranked, self.table, 11)

    @pytest.mark.parametrize("n", [10, 0])
    def test_negative_k_out_rejected(self, n):
        ranked = make_ranked(self.ids[:n], np.linspace(1, 0, n))
        with pytest.raises(InvalidShape, match="nonnegative"):
            rerank(self.params, self.hq, ranked, self.table, -1)

    @pytest.mark.parametrize("n", [10, 0])
    def test_k_out_zero_is_empty(self, n):
        ranked = make_ranked(self.ids[:n], np.linspace(1, 0, n))
        out = rerank(self.params, self.hq, ranked, self.table, 0)
        assert len(out) == 0
        assert (out.ids.dtype, out.scores.dtype) == (np.uint64, np.float32)

    def test_single_forward_pass_per_query(self, monkeypatch):
        calls = {"n": 0}
        real_forward = reranker_module.cmc_forward

        def counting_forward(*args, **kwargs):
            calls["n"] += 1
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(reranker_module, "cmc_forward", counting_forward)
        for k in (1, 4, 10):
            calls["n"] = 0
            rerank(self.params, self.hq, self.ranked, self.table, k)
            assert calls["n"] == 1


class TestConcurrency:
    def test_concurrent_forwards_match_serial(self):
        """Forward over immutable params is pure: a thread pool produces
        bit-identical outputs to the serial loop."""
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(9)
        params = CmcParams.init(model_dim=16, head_count=4, seed=10)
        jobs = [(rng.standard_normal(16).astype(np.float32),
                 rng.standard_normal((6, 16)).astype(np.float32))
                for _ in range(24)]

        def run(job):
            ctx = cmc_forward(params, job[0][None], job[1][None])
            return ctx.h_query.tobytes(), ctx.h_candidates.tobytes()

        serial = [run(j) for j in jobs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, jobs))
        assert serial == threaded


class TestBackwardState:
    def test_tape_is_single_use(self):
        rng = np.random.default_rng(6)
        params = CmcParams.init(model_dim=8, head_count=2, seed=7)
        tape = cmc_forward_recorded(params,
                                    rng.standard_normal((1, 8)).astype(np.float32),
                                    rng.standard_normal((1, 2, 8)).astype(np.float32))
        tape.backward(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(StateError):
            tape.backward(np.zeros((1, 2), dtype=np.float32))


class TestGradientBuffer:
    """``CmcTape.backward`` writes every parameter gradient into one new
    ``CmcParams`` laid out like the weights."""

    @staticmethod
    def backward(batch=(1,)):
        rng = np.random.default_rng(10)
        params = CmcParams.init(model_dim=8, head_count=2, ffn_dim=12, seed=11)
        hq = rng.standard_normal(batch + (8,)).astype(np.float32)
        hc = rng.standard_normal(batch + (5, 8)).astype(np.float32)
        d_scores = rng.standard_normal(batch + (5,)).astype(np.float32)
        return params, cmc_forward_recorded(params, hq, hc).backward(d_scores)

    @pytest.mark.parametrize("batch", [(1,), (3,)], ids=["one", "stacked"])
    def test_every_entry_is_written(self, monkeypatch, batch):
        """A NaN-filled buffer gives the bytes of a fresh one: no kernel
        leaves an entry of its gradient unwritten."""
        _, clean = self.backward(batch)
        empty_like = CmcParams.empty_like

        def poisoned(params):
            out = empty_like(params)
            out.flat.fill(np.nan)
            return out

        monkeypatch.setattr(CmcParams, "empty_like", poisoned)
        _, (grad, d_q, d_c) = self.backward(batch)
        assert np.isfinite(grad.flat).all()
        assert grad.flat.tobytes() == clean[0].flat.tobytes()
        assert d_q.tobytes() == clean[1].tobytes()
        assert d_c.tobytes() == clean[2].tobytes()

    def test_given_buffer_is_overwritten_in_place(self):
        """A NaN-filled buffer passed in comes back as the gradient, with
        the bytes of a fresh one, and no new buffer is made."""
        params, clean = self.backward((2,))
        rng = np.random.default_rng(10)
        hq = rng.standard_normal((2, 8)).astype(np.float32)
        hc = rng.standard_normal((2, 5, 8)).astype(np.float32)
        d_scores = rng.standard_normal((2, 5)).astype(np.float32)
        buffer = params.empty_like()
        buffer.flat.fill(np.nan)
        grad, d_q, d_c = cmc_forward_recorded(params, hq, hc).backward(d_scores, buffer)
        assert grad is buffer
        assert grad.flat.tobytes() == clean[0].flat.tobytes()
        assert d_q.tobytes() == clean[1].tobytes() and d_c.tobytes() == clean[2].tobytes()

    def test_layout_matches_the_weights(self):
        params, (grad, _, _) = self.backward()
        assert list(grad.arrays()) == list(params.arrays())
        for (name, g), p in zip(grad.arrays().items(), params.arrays().values()):
            assert g.shape == p.shape and g.dtype == p.dtype, name
            assert np.shares_memory(g, grad.flat), name
        assert grad.flat.shape == params.flat.shape
        assert not np.shares_memory(grad.flat, params.flat)


class TestStackedExamples:
    """A (B, d) query stack with (B, K, d) candidates runs B examples in one
    forward and one backward."""

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 5), k=st.integers(1, 12),
           head_count=st.integers(1, 4), head_dim=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_example_results_bit_for_bit(self, batch, k, head_count,
                                                    head_dim, seed):
        """Contextualized rows and input gradients stack the per-example
        ones; parameter gradients are their sum in example order."""
        rng = np.random.default_rng(seed)
        d = head_count * head_dim
        params = CmcParams.init(model_dim=d, head_count=head_count, seed=seed)
        hq = rng.standard_normal((batch, d)).astype(np.float32)
        hc = rng.standard_normal((batch, k, d)).astype(np.float32)
        d_scores = rng.standard_normal((batch, k)).astype(np.float32)

        tape = cmc_forward_recorded(params, hq, hc)
        ctx = tape.ctx
        grads, d_q, d_c = tape.backward(d_scores)

        singles = [cmc_forward_recorded(params, hq[b:b + 1], hc[b:b + 1])
                   for b in range(batch)]
        ctxs = [t.ctx for t in singles]
        results = [t.backward(d_scores[b:b + 1]) for b, t in enumerate(singles)]
        assert ctx.h_query.tobytes() == np.stack([c.h_query for c in ctxs]).tobytes()
        assert (ctx.h_candidates.tobytes()
                == np.stack([c.h_candidates for c in ctxs]).tobytes())
        assert d_q.tobytes() == np.stack([r[1] for r in results]).tobytes()
        assert d_c.tobytes() == np.stack([r[2] for r in results]).tobytes()
        assert grads.arrays().keys() == results[0][0].arrays().keys()
        for name, grad in grads.arrays().items():
            expected = functools.reduce(np.add, [r[0].arrays()[name] for r in results])
            assert grad.tobytes() == expected.tobytes(), name

    def test_float32_backward_has_no_subnormal_gradients(self, monkeypatch):
        """A subnormal score gradient, as an unflushed float32 cast leaves
        it, reaches no projection backward and no returned gradient."""
        tiny = np.finfo(np.float32).tiny

        def subnormal(a):
            return bool(((a != 0) & (np.abs(a) < tiny)).any())

        seen = []

        def checked(dy, *args):
            seen.append(subnormal(dy))
            return linear_backward(dy, *args)

        monkeypatch.setattr(ops_module, "linear_backward", checked)
        monkeypatch.setattr(attention_module, "linear_backward", checked)
        rng = np.random.default_rng(8)
        params = CmcParams.init(model_dim=16, head_count=2, seed=9)
        hq = rng.standard_normal((3, 16)).astype(np.float32)
        hc = rng.standard_normal((3, 5, 16)).astype(np.float32)
        d_scores = (0.1 * rng.standard_normal((3, 5))).astype(np.float32)
        d_scores[:, 2] = 1e-40
        grads, d_q, d_c = cmc_forward_recorded(params, hq, hc).backward(d_scores)
        # Per layer: two feed-forward projections and attention's four, each
        # once over the stack of three examples.
        assert len(seen) == 2 * (2 + 4) and not any(seen)
        for name, grad in {**grads.arrays(), "d_query": d_q,
                           "d_candidates": d_c}.items():
            assert grad.dtype == np.float32
            assert not subnormal(grad), name

    def test_float32_backward_flushes_tiny_normal_score_gradients(
            self, subnormal_dy):
        """A score gradient of 1e-37 is a normal float32 (the smallest is
        1.2e-38), but its products with activations and weights are not: no
        backward kernel gets a subnormal ``dy`` and no returned gradient
        holds one.  Unflushed, it reaches all four kernels."""
        rng = np.random.default_rng(8)
        params = CmcParams.init(model_dim=16, head_count=2, seed=9)
        hq = rng.standard_normal((3, 16)).astype(np.float32)
        hc = rng.standard_normal((3, 5, 16)).astype(np.float32)
        d_scores = (0.1 * rng.standard_normal((3, 5))).astype(np.float32)
        d_scores[:, 2] = 1e-37
        grads, d_q, d_c = cmc_forward_recorded(params, hq, hc).backward(d_scores)
        assert len(subnormal_dy.calls["linear_backward"]) == 2 * (2 + 4)
        assert subnormal_dy.counts() == dict.fromkeys(subnormal_dy.calls, 0)
        for name, grad in {**grads.arrays(), "d_query": d_q,
                           "d_candidates": d_c}.items():
            assert grad.dtype == np.float32
            assert not subnormal_dy.found_in(grad), name

    def test_mismatched_batch_rejected(self):
        params = CmcParams.init(model_dim=8, head_count=2)
        with pytest.raises(InvalidShape, match=r"expected \(2, K, 8\)"):
            cmc_forward(params, np.zeros((2, 8), dtype=np.float32),
                        np.zeros((3, 4, 8), dtype=np.float32))
        tape = cmc_forward_recorded(params, np.zeros((2, 8), dtype=np.float32),
                                    np.zeros((2, 4, 8), dtype=np.float32))
        with pytest.raises(InvalidShape, match=r"expected \(2, 4\)"):
            tape.backward(np.zeros(4, dtype=np.float32))


class TestInvariantProperties:
    """The paper's invariants, drawn over shapes instead of fixed cases."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 32), head_count=st.integers(1, 4),
           head_dim=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_permutation_equivariance(self, k, head_count, head_dim, seed):
        """Criterion 2 over K, model dim and heads: permuted
        candidates give permuted scores within 1e-5 and the same top-1,
        with norm gains in U(0.2, 0.5) as in criterion 2's instances."""
        rng = np.random.default_rng(seed)
        d = head_count * head_dim
        params = CmcParams.init(model_dim=d, head_count=head_count, ffn_dim=2 * d,
                                seed=int(rng.integers(1 << 31)))
        gain = np.float32(rng.uniform(0.2, 0.5))
        for layer in params.layers:
            layer.ln1_gain[:] *= gain
            layer.ln2_gain[:] *= gain
        hq = (0.5 * rng.standard_normal(d)).astype(np.float32)
        hc = (0.5 * rng.standard_normal((k, d))).astype(np.float32)
        perm = rng.permutation(k)
        base = cmc_score(cmc_forward(params, hq[None], hc[None]))
        permuted = cmc_score(cmc_forward(params, hq[None], hc[perm][None]))
        assert np.abs(permuted.scores[0] - base.scores[0][perm]).max() <= 1e-5
        top = np.sort(base.scores[0])[::-1]
        # Scores within the tolerance of the best (d = 1 makes every
        # candidate tie after layer norm) may legitimately trade places.
        if k == 1 or top[0] - top[1] > 2e-5:
            assert perm[permuted.argmax_index[0]] == base.argmax_index[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1))
    def test_rerank_prefix_consistency(self, data, n, seed):
        """``rerank`` at K' is the first K' entries of ``rerank`` at K'' > K',
        ids and scores, including ties between duplicate embeddings."""
        k_large = data.draw(st.integers(1, n), label="k_large")
        k_small = data.draw(st.integers(0, k_large - 1), label="k_small")
        rng = np.random.default_rng(seed)
        params = CmcParams.init(model_dim=8, head_count=2, seed=int(rng.integers(1 << 31)))
        ids = rng.choice(1 << 40, size=n, replace=False).astype(np.uint64)
        # Rows drawn from a few distinct vectors, so scores tie often.
        rows = rng.standard_normal((max(1, n // 3), 8)).astype(np.float32)
        table = EmbeddingTable(ids, rows[rng.integers(len(rows), size=n)])
        ranked = make_ranked(ids, np.sort(rng.standard_normal(n))[::-1])
        hq = rng.standard_normal(8).astype(np.float32)
        large = rerank(params, hq, ranked, table, k_large)
        small = rerank(params, hq, ranked, table, k_small)
        assert small.ids.tolist() == large.ids.tolist()[:k_small]
        assert small.scores.tobytes() == large.scores[:k_small].tobytes()
