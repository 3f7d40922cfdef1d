"""Loss identities, negative sampling distribution, and the training loop."""
import dataclasses
import hashlib
import math
import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cmcrank.training as training_module
from cmcrank.encoders import EmbeddingTable
from cmcrank.errors import (InvalidConfig, InvalidIndex, InvalidInput,
                            MissingCandidate, NumericError, PoolTooSmall)
from cmcrank.evaluation import SyntheticTaskSpec, generate_synthetic
from cmcrank.index import CandidateIndex, RankedList, search_topk
from cmcrank.nn import (OptimizerState, adamw_step, finite_difference_gradient,
                        gradients_close)
from cmcrank.reranker import (CmcParams, cmc_forward, cmc_forward_recorded,
                              cmc_score)
from cmcrank.training import (NegativePools, TrainingConfig,
                              assemble_batch_example, compute_loss,
                              sample_negatives, train)


def make_ranked(ids, scores):
    return RankedList(ids=np.asarray(ids, dtype=np.uint64),
                      scores=np.asarray(scores, dtype=np.float32))


def reference_compute_loss(scores, gold_position, retriever_scores, lambda1,
                           lambda2):
    """One example's loss and score gradient as the per-example loop
    computed them, with ``np.dot`` for both dot products."""
    k = scores.shape[0]
    s = scores.astype(np.float64)
    p = np.exp(s - s.max())
    p /= p.sum()
    r = retriever_scores.astype(np.float64)
    r = np.exp(r - r.max())
    r /= r.sum()
    log_p = np.log(np.maximum(p, training_module.LOG_CLAMP))
    log_ratio = log_p - np.log(np.maximum(r, training_module.LOG_CLAMP))
    loss = -lambda1 * log_p[gold_position] + lambda2 * float(np.dot(p, log_ratio))
    unclamped = (p > training_module.LOG_CLAMP).astype(np.float64)
    d_scores = np.zeros(k, dtype=np.float64)
    if lambda1 and unclamped[gold_position]:
        d_scores += lambda1 * p
        d_scores[gold_position] -= lambda1
    if lambda2:
        g = log_ratio + unclamped
        d_scores += lambda2 * p * (g - float(np.dot(p, g)))
    d_scores = d_scores.astype(scores.dtype)
    d_scores[np.abs(d_scores) < np.sqrt(np.finfo(scores.dtype).tiny)] = 0.0
    return float(loss), d_scores


def loss_of_one(scores, gold, retr, lambda1, lambda2):
    """``compute_loss`` on one example, a batch of one: its loss and its
    (K,) gradient."""
    (loss,), (d_scores,) = compute_loss(np.asarray(scores)[None], [gold],
                                        np.asarray(retr)[None], lambda1, lambda2)
    return loss, d_scores


class TestComputeLoss:
    def test_uniform_ce_reduces_to_log_k(self):
        for k in (2, 5, 17):
            loss, _ = loss_of_one(np.zeros(k), 0, np.zeros(k), 0.7, 0.0)
            assert loss == pytest.approx(0.7 * math.log(k), rel=1e-9)

    def test_matching_distributions_kill_kl(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(6)
        ce_only, _ = loss_of_one(scores, 2, scores, 1.0, 0.0)
        both, _ = loss_of_one(scores, 2, scores, 1.0, 1.0)
        assert both == pytest.approx(ce_only, abs=1e-6)

    def test_scalar_oracle(self):
        """K = 3, scores [0, ln2, ln3], gold 2, uniform retriever: evaluate
        CE and KL with plain scalar arithmetic."""
        scores = np.array([0.0, math.log(2), math.log(3)])
        p = [1 / 6, 2 / 6, 3 / 6]
        expected_ce = -math.log(p[2])
        expected_kl = sum(pi * math.log(pi / (1 / 3)) for pi in p)
        loss, _ = loss_of_one(scores, 2, np.zeros(3), 1.0, 1.0)
        assert loss == pytest.approx(expected_ce + expected_kl, rel=1e-9)

    def test_decomposition_additivity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            scores = 3 * rng.standard_normal(k)
            retr = 3 * rng.standard_normal(k)
            gold = int(rng.integers(k))
            l1, l2 = rng.uniform(0.1, 2, size=2)
            ce, _ = loss_of_one(scores, gold, retr, l1, 0.0)
            kl, _ = loss_of_one(scores, gold, retr, 0.0, l2)
            both, _ = loss_of_one(scores, gold, retr, l1, l2)
            assert both == pytest.approx(ce + kl, abs=1e-6)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 32))
            kl, _ = loss_of_one(3 * rng.standard_normal(k), 0,
                                3 * rng.standard_normal(k), 0.0, 1.0)
            assert kl >= -1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(5)
        retr = rng.standard_normal(5)
        _, d_scores = loss_of_one(scores, 1, retr, 0.6, 0.4)
        numeric = finite_difference_gradient(
            lambda: loss_of_one(scores, 1, retr, 0.6, 0.4)[0],
            {"s": scores}, h=1e-5)
        assert gradients_close({"s": d_scores}, numeric, rel_tol=1e-4,
                               abs_tol=1e-7)

    def test_float32_gradient_has_no_subnormals(self):
        """A candidate 100 below the best gets p ~ 4e-44, below float32's
        smallest normal number; its gradient entry is flushed to zero."""
        scores = np.array([0.0, -100.0, -1.0], dtype=np.float32)
        _, d_scores = loss_of_one(scores, 0, np.zeros(3, dtype=np.float32),
                                  0.5, 0.5)
        assert d_scores.dtype == np.float32
        assert d_scores[1] == 0.0
        assert (np.abs(d_scores[[0, 2]]) >= np.finfo(np.float32).tiny).all()

    def test_float32_flush_bound_is_root_of_smallest_normal(self):
        """Entries within 1% below 2**-63 = sqrt(float32 tiny) are zeroed;
        within 1% above, kept: the product of two kept entries is normal."""
        bound = float(np.sqrt(np.finfo(np.float32).tiny))
        scores = np.log([1.0, 1.01 * bound, 0.99 * bound]).astype(np.float32)
        p = np.exp(scores.astype(np.float64))
        p = (p / p.sum()).astype(np.float32)
        assert bound < p[1] < 1.02 * bound and 0.98 * bound < p[2] < bound
        _, d_scores = loss_of_one(scores, 0, np.zeros(3, dtype=np.float32),
                                  1.0, 0.0)
        assert d_scores.dtype == np.float32
        assert d_scores[1] == p[1]
        assert d_scores[2] == 0.0

    def test_float64_gradient_keeps_tiny_normal_entries(self):
        """The float64 bound is about 1.5e-154, so an entry of 1e-30 stays,
        and float64 gradient checks see the unflushed gradient."""
        scores = np.log([1.0, 1e-30])
        _, d_scores = loss_of_one(scores, 0, np.zeros(2), 1.0, 0.0)
        assert d_scores.dtype == np.float64
        assert d_scores[1] == pytest.approx(1e-30, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(batch=st.integers(1, 6), k=st.integers(2, 40),
           lambdas=st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.3, 2.0)]),
           spread=st.sampled_from([1.0, 10.0, 100.0]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_rows_equal_reference_bit_for_bit(self, batch, k, lambdas,
                                                    spread, dtype, seed):
        """(B, K) scores give each row the loss and gradient bits of the
        per-example formula, and so does each row run alone; wide spreads
        clamp probabilities and flush gradient entries."""
        rng = np.random.default_rng(seed)
        scores = (spread * rng.standard_normal((batch, k))).astype(dtype)
        retr = (spread * rng.standard_normal((batch, k))).astype(dtype)
        gold = rng.integers(0, k, size=batch)
        losses, d_scores = compute_loss(scores, gold, retr, *lambdas)
        assert losses.shape == (batch,) and d_scores.dtype == dtype
        for b in range(batch):
            loss, grad = reference_compute_loss(scores[b], gold[b], retr[b], *lambdas)
            (one_loss,), (one_grad,) = compute_loss(
                scores[b:b + 1], gold[b:b + 1], retr[b:b + 1], *lambdas)
            assert losses[b] == loss == one_loss
            assert d_scores[b].tobytes() == grad.tobytes() == one_grad.tobytes()

    def test_gold_out_of_range(self):
        with pytest.raises(InvalidIndex):
            compute_loss(np.zeros((1, 3)), [3], np.zeros((1, 3)), 1.0, 1.0)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3)], ids=["one", "stacked"])
    @pytest.mark.parametrize("kind", ["float", "float_array", "bool"])
    def test_non_integer_gold_rejected(self, shape, kind):
        """A gold position is an integer: not a float, even an integral
        one, and not a bool, which numpy would read as a mask."""
        count = shape[0]
        gold = {"float": [1.5] * count, "float_array": np.ones(count),
                "bool": [True] * count}[kind]
        with pytest.raises(InvalidIndex, match="integers"):
            compute_loss(np.zeros(shape), gold, np.zeros(shape), 1.0, 1.0)

    def test_gold_position_does_not_change_loss(self):
        """Permutation equivariance: moving the gold (with its embedding and
        retriever score) to any slot leaves the loss unchanged."""
        rng = np.random.default_rng(4)
        params = CmcParams.init(model_dim=8, head_count=2, seed=5)
        hq = (0.5 * rng.standard_normal(8)).astype(np.float32)
        hc = (0.5 * rng.standard_normal((4, 8))).astype(np.float32)
        retr = rng.standard_normal(4).astype(np.float32)

        def loss_with_gold_at(pos):
            perm = list(range(4))
            perm[0], perm[pos] = perm[pos], perm[0]
            ctx = cmc_forward(params, hq[None], hc[perm][None])
            scores = cmc_score(ctx).scores
            return compute_loss(scores, [pos], retr[perm][None], 0.5, 0.5)[0][0]

        base = loss_with_gold_at(0)
        for pos in range(1, 4):
            assert loss_with_gold_at(pos) == pytest.approx(base, abs=1e-5)


def reference_sample_negatives(ranked_pool, gold_id, cfg, rng):
    """The sampler's earlier loop: one scalar uniform per draw, and a running
    sum over the weights of the entries still in play, gathered anew."""
    mask = ranked_pool.ids != np.uint64(gold_id)
    pool_ids = ranked_pool.ids[mask]
    pool_scores = ranked_pool.scores[mask]
    needed = cfg.k_train - 1
    n_fixed = int(math.floor(cfg.fixed_fraction * needed))
    chosen = list(pool_ids[:n_fixed])
    n_sampled = needed - n_fixed
    if n_sampled:
        rest_ids = pool_ids[n_fixed:]
        rest_scores = pool_scores[n_fixed:].astype(np.float64)
        weights = np.exp(rest_scores - rest_scores.max())
        alive = np.ones(len(rest_ids), dtype=bool)
        for _ in range(n_sampled):
            alive_idx = np.flatnonzero(alive)
            cum = np.cumsum(weights[alive_idx])
            j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            pick = alive_idx[min(j, len(alive_idx) - 1)]
            chosen.append(rest_ids[pick])
            alive[pick] = False
    return np.asarray(chosen, dtype=np.uint64)


class AlmostOne:
    """A generator stub whose every uniform is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


class TestSampleNegatives:
    def setup_method(self):
        self.cfg = TrainingConfig(k_train=4, negative_pool_size=16, seed=0)

    def test_fully_fixed(self):
        cfg = TrainingConfig(k_train=4, fixed_fraction=1.0, negative_pool_size=16)
        pool = make_ranked([10, 11, 12, 13, 14], [5.0, 4.0, 3.0, 2.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            out = sample_negatives(pool, gold_id=13, cfg=cfg, rng=rng)
            assert out.tolist() == [10, 11, 12]

    def test_never_returns_gold_or_duplicates(self):
        rng = np.random.default_rng(1)
        cfg = TrainingConfig(k_train=6, fixed_fraction=0.5, negative_pool_size=16)
        pool = make_ranked(np.arange(12), np.linspace(2, -2, 12))
        for _ in range(200):
            out = sample_negatives(pool, gold_id=3, cfg=cfg, rng=rng)
            assert 3 not in out.tolist()
            assert len(set(out.tolist())) == len(out) == 5

    def test_uniform_when_scores_equal(self):
        """p = 0, equal scores, draw 2 of 5: inclusion frequency 2/5 each."""
        cfg = TrainingConfig(k_train=3, fixed_fraction=0.0, negative_pool_size=16)
        pool = make_ranked([0, 1, 2, 3, 4], np.zeros(5))
        rng = np.random.default_rng(2)
        counts = np.zeros(5)
        trials = 20_000
        for _ in range(trials):
            for cid in sample_negatives(pool, gold_id=99, cfg=cfg, rng=rng):
                counts[int(cid)] += 1
        np.testing.assert_allclose(counts / trials, 0.4, atol=0.01)

    def test_exp_proportional_single_draw(self):
        """Scores [ln1, ln2, ln3] with one draw follow 1:2:3 frequencies."""
        cfg = TrainingConfig(k_train=2, fixed_fraction=0.0, negative_pool_size=16)
        pool = make_ranked([0, 1, 2],
                           np.log(np.array([1.0, 2.0, 3.0], dtype=np.float32)))
        rng = np.random.default_rng(3)
        counts = np.zeros(3)
        trials = 30_000
        for _ in range(trials):
            counts[int(sample_negatives(pool, 99, cfg, rng)[0])] += 1
        np.testing.assert_allclose(counts / trials, [1 / 6, 2 / 6, 3 / 6],
                                   atol=0.01)

    @settings(max_examples=200, deadline=None)
    @given(pool_len=st.integers(2, 600), k_train=st.integers(2, 130),
           fixed_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
           gold_in_pool=st.booleans(),
           spread=st.sampled_from([0.0, 1.0, 30.0, 300.0, 745.0, 2000.0]),
           integer_scores=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_same_draws_as_reference_loop(self, pool_len, k_train,
                                          fixed_fraction, gold_in_pool,
                                          spread, integer_scores, seed):
        """Ids byte-equal and generator state equal after the call, over
        pool sizes, draw counts, ties, and spreads wide enough that some
        weights underflow to 0.0 and the running sum goes subnormal."""
        data_rng = np.random.default_rng(seed)
        scores = -spread * data_rng.random(pool_len)
        if integer_scores:
            scores = np.round(scores)
        ids = data_rng.permutation(10 * pool_len)[:pool_len]
        pool = make_ranked(ids, np.sort(scores)[::-1])
        gold = (int(ids[data_rng.integers(pool_len)]) if gold_in_pool
                else 10 * pool_len)
        k_train = min(k_train, pool_len - gold_in_pool + 1)
        cfg = TrainingConfig(k_train=k_train, fixed_fraction=fixed_fraction,
                             negative_pool_size=1024)
        rng = np.random.default_rng(seed)
        expected_rng = np.random.default_rng(seed)
        out = sample_negatives(pool, gold, cfg, rng)
        expected = reference_sample_negatives(pool, gold, cfg, expected_rng)
        assert out.dtype == np.uint64
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_overshooting_draw_takes_last_entry_in_play(self):
        """With weights [0, ~7e-309, 1], the first draw takes the 1.  The
        sum left is subnormal, so u * sum rounds up to it for u just below 1
        and no running sum exceeds the target: the draw must take the last
        entry still in play (id 11), not the already-picked last slot."""
        cfg = TrainingConfig(k_train=4, fixed_fraction=0.0, negative_pool_size=16)
        pool = make_ranked([10, 11, 12], [-2000.0, -709.5, 0.0])
        out = sample_negatives(pool, 99, cfg, AlmostOne())
        assert out.tolist() == [12, 11, 10]
        assert out.tobytes() == reference_sample_negatives(
            pool, 99, cfg, AlmostOne()).tobytes()

    def test_pool_too_small(self):
        pool = make_ranked([1, 2], [1.0, 0.5])
        with pytest.raises(PoolTooSmall):
            sample_negatives(pool, gold_id=1, cfg=self.cfg,
                             rng=np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            TrainingConfig(lambda1=0.0, lambda2=0.0)
        with pytest.raises(InvalidConfig):
            TrainingConfig(k_train=100, negative_pool_size=16)
        with pytest.raises(InvalidConfig):
            TrainingConfig(fixed_fraction=1.5)

    @pytest.mark.parametrize("field, value", [
        ("k_train", 4.5), ("negative_pool_size", 64.0), ("batch_size", 2.5),
        ("epochs", "3"), ("epochs", None)])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
            TrainingConfig(**{field: value})
        default = getattr(TrainingConfig(), field)
        assert getattr(TrainingConfig(**{field: np.int64(default)}), field) == default

    @pytest.mark.parametrize("field, value", [
        ("base_lr", math.nan), ("base_lr", -1e-3), ("base_lr", math.inf),
        ("lambda1", math.nan), ("lambda1", math.inf),
        ("lambda2", math.nan), ("lambda2", math.inf)])
    def test_nonfinite_or_negative_settings_rejected(self, field, value):
        """A NaN learning rate would turn every weight into NaN at step 1."""
        with pytest.raises(InvalidConfig, match="base_lr" if field == "base_lr"
                           else "loss weights"):
            TrainingConfig(**{field: value})


class TestChunkAssembly:
    # No shrink phase: a failing example here takes hypothesis over a minute
    # to shrink, which stalls the suite before it reports.
    @settings(max_examples=80, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(n=st.integers(1, 24), data=st.data(),
           k_train=st.integers(2, 20), extra_pool=st.integers(0, 30),
           fixed_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           spread=st.sampled_from([0.1, 1.0, 30.0, 1000.0, 1e5]),
           integer_scores=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_example_loop(self, n, data, k_train, extra_pool,
                                     fixed_fraction, spread, integer_scores,
                                     seed):
        """One chunk (any size up to the training set, so a partial last
        chunk too) against ``sample_negatives`` and ``rng.integers`` per
        example on a fresh pool search: the same ids, gold slots, row and
        score bytes, and generator state.  Golds sit in or out of their
        pools, integer scores tie, and wide spreads make weights of 0.0
        or subnormal, down to draws where every weight left is 0.0."""
        rng = np.random.default_rng(seed)
        corpus, dim = 60, 4
        ids = np.sort(rng.choice(10_000, corpus, replace=False)).astype(np.uint64)
        matrix = spread * rng.standard_normal((corpus, dim))
        queries = rng.standard_normal((n, dim))
        if integer_scores:
            matrix, queries = np.round(matrix), np.round(queries)
        index = CandidateIndex(ids, matrix.astype(np.float32))
        # The table holds more ids than the index, and each row starts with
        # its id, so table rows differ from index rows and name their id.
        extra = np.arange(10_000, 10_000 + corpus, dtype=np.uint64)
        table_ids = np.concatenate([ids, extra])
        rows = rng.standard_normal((2 * corpus, 3)).astype(np.float32)
        rows[:, 0] = table_ids
        table = EmbeddingTable(table_ids, rows)
        queries = queries.astype(np.float32)
        cfg = TrainingConfig(k_train=k_train, fixed_fraction=fixed_fraction,
                             negative_pool_size=k_train + extra_pool, seed=seed)
        pool_size = min(cfg.negative_pool_size, corpus)
        golds = np.empty(n, dtype=np.uint64)
        for i in range(n):
            ranked = search_topk(index, queries[i], corpus).ids
            # In the pool (when it can spare a slot) or from the bottom.
            in_pool = pool_size > k_train - 1 and data.draw(st.booleans())
            golds[i] = ranked[data.draw(st.integers(0, pool_size - 1)) if in_pool
                              else data.draw(st.integers(pool_size, corpus - 1))]
        members = rng.permutation(n)[:data.draw(st.integers(1, n))]

        pools = NegativePools.search(cfg, queries, golds, index, table)
        chunk_rng = np.random.default_rng(seed)
        batch = assemble_batch_example(queries[members], members, pools, index,
                                       table, cfg, chunk_rng)

        loop_rng = np.random.default_rng(seed)
        expected = []
        for qi in members:
            gold = int(golds[qi])
            pool = search_topk(index, queries[qi], cfg.negative_pool_size)
            negatives = sample_negatives(pool, gold, cfg, loop_rng)
            slot = int(loop_rng.integers(0, cfg.k_train))
            expected.append((slot, np.insert(negatives, slot, np.uint64(gold))))
        slots = [slot for slot, _ in expected]
        expected_ids = np.stack([i for _, i in expected])
        assert batch.gold_position.tolist() == slots
        assert batch.candidates[..., 0].astype(np.uint64).tolist() == expected_ids.tolist()
        assert batch.candidates.tobytes() == np.stack(
            [table.batch(i) for i in expected_ids]).tobytes()
        assert batch.retriever_scores.tobytes() == np.stack(
            [index.scores_for(queries[qi], i)
             for qi, i in zip(members, expected_ids)]).tobytes()
        assert batch.query.tobytes() == queries[members].tobytes()
        assert chunk_rng.bit_generator.state == loop_rng.bit_generator.state


def small_task(seed=0):
    data = generate_synthetic(SyntheticTaskSpec(
        corpus_size=240, confusables=4, surface_dim=12, latent_dim=4, seed=seed))
    index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
    table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
    return data, index, table


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        data, index, table = small_task()
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        before = {n: a.copy() for n, a in params.arrays().items()}
        cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=0.0,
                             epochs=1, batch_size=8, seed=2)
        train(cfg, data.query_embeddings, data.gold_ids, index, table, params)
        for name, arr in params.arrays().items():
            assert arr.tobytes() == before[name].tobytes()

    def test_identical_seeds_give_bit_identical_checkpoints(self, tmp_path):
        outs = []
        for run in range(2):
            data, index, table = small_task()
            params = CmcParams.init(model_dim=16, head_count=2, seed=1)
            cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=1e-3,
                                 epochs=2, batch_size=8, seed=9)
            log = train(cfg, data.query_embeddings, data.gold_ids, index,
                        table, params)
            path = tmp_path / f"run{run}.cmcp"
            params.save(path)
            outs.append((path.read_bytes(), log.to_csv()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_different_seeds_differ(self, tmp_path):
        hashes = []
        for seed in (1, 2):
            data, index, table = small_task()
            params = CmcParams.init(model_dim=16, head_count=2, seed=1)
            cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=1e-3,
                                 epochs=1, batch_size=8, seed=seed)
            train(cfg, data.query_embeddings, data.gold_ids, index, table, params)
            path = tmp_path / f"seed{seed}.cmcp"
            params.save(path)
            hashes.append(path.read_bytes())
        assert hashes[0] != hashes[1]

    def test_one_gradient_buffer_per_call(self, monkeypatch):
        """Every step's backward writes into one buffer made per call."""
        data, index, table = small_task()
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=1e-3,
                             epochs=2, batch_size=8, seed=9)
        made = []
        empty_like = CmcParams.empty_like
        monkeypatch.setattr(CmcParams, "empty_like",
                            lambda self: made.append(empty_like(self)) or made[-1])
        log = train(cfg, data.query_embeddings, data.gold_ids, index, table, params)
        assert len(log.steps) > 2 and len(made) == 1

    def test_empty_dataset_rejected(self):
        data, index, table = small_task()
        params = CmcParams.init(model_dim=16, head_count=2)
        cfg = TrainingConfig(k_train=4, negative_pool_size=16)
        with pytest.raises(InvalidInput):
            train(cfg, np.empty((0, 16), dtype=np.float32), [], index, table,
                  params)

    def test_step_count_and_log_shape(self):
        data, index, table = small_task()
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=1e-4,
                             epochs=2, batch_size=8, seed=3)
        log = train(cfg, data.query_embeddings, data.gold_ids, index, table,
                    params)
        n = len(data.query_embeddings)
        assert len(log.steps) == 2 * math.ceil(n / 8)
        assert log.steps[0].effective_lr == 0.0  # warmup starts at zero
        assert [s.step for s in log.steps] == list(range(1, len(log.steps) + 1))

    def test_loss_decreases_on_synthetic_task(self):
        """Mean loss over the last epoch beats the first epoch on the
        mid-size synthetic task."""
        data = generate_synthetic(SyntheticTaskSpec(
            corpus_size=2000, confusables=8, surface_dim=48, latent_dim=16,
            seed=11))
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
        params = CmcParams.init(model_dim=64, head_count=4, seed=12)
        cfg = TrainingConfig(k_train=16, negative_pool_size=256, base_lr=5e-4,
                             epochs=3, batch_size=4, seed=13)
        log = train(cfg, data.query_embeddings, data.gold_ids, index, table,
                    params)
        assert log.epoch_mean_loss(3) < log.epoch_mean_loss(1)


def reference_train(cfg, queries, gold_ids, index, table, params):
    """The epoch loop with a fresh pool search and a forward and backward
    for every example, built from the public pieces in the same order as
    ``train``."""
    rng = np.random.default_rng(cfg.seed)
    n = len(queries)
    state = OptimizerState(learning_rate=cfg.base_lr,
                           total_steps=cfg.epochs * math.ceil(n / cfg.batch_size))
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            total = np.zeros_like(params.flat)
            batch_loss = 0.0
            for qi in chunk:
                gold = int(gold_ids[qi])
                pool = search_topk(index, queries[qi], cfg.negative_pool_size)
                negatives = sample_negatives(pool, gold, cfg, rng)
                position = int(rng.integers(0, cfg.k_train))
                ids = np.insert(negatives, position, np.uint64(gold))
                tape = cmc_forward_recorded(params, queries[qi][None],
                                            table.batch(ids)[None])
                (loss,), d_scores = compute_loss(
                    cmc_score(tape.ctx).scores, [position],
                    index.scores_for(queries[qi], ids)[None], cfg.lambda1, cfg.lambda2)
                grads, _, _ = tape.backward(d_scores)
                batch_loss += loss
                total += grads.flat
            total *= 1.0 / len(chunk)
            adamw_step(params.flat, total, state)
            losses.append(batch_loss / len(chunk))
    return losses


class TestPoolCache:
    """``train`` searches each query's pool once and reuses it every epoch."""

    def tiny_task(self):
        data = generate_synthetic(SyntheticTaskSpec(
            corpus_size=300, confusables=4, surface_dim=12, latent_dim=4, seed=3))
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
        cfg = TrainingConfig(k_train=8, negative_pool_size=32, base_lr=1e-3,
                             epochs=3, batch_size=4, seed=5)
        return data.query_embeddings[:12], data.gold_ids[:12], index, table, cfg

    def test_one_search_per_query_per_train_call(self, monkeypatch):
        queries, golds, index, table, cfg = self.tiny_task()
        searched = []

        def counting_search(index, query, k):
            searched.append(k)
            return search_topk(index, query, k)

        monkeypatch.setattr(training_module, "search_topk", counting_search)
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        train(cfg, queries, golds, index, table, params)
        assert searched == [cfg.negative_pool_size] * len(queries)

    def test_bit_identical_to_per_example_search(self):
        queries, golds, index, table, cfg = self.tiny_task()
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        reference = params.copy()
        log = train(cfg, queries, golds, index, table, params)
        losses = reference_train(cfg, queries, golds, index, table, reference)
        assert [s.loss for s in log.steps] == losses
        for name, arr in params.arrays().items():
            assert arr.tobytes() == reference.arrays()[name].tobytes(), name

    @pytest.mark.parametrize("batch_size", [1, 3, 5])
    def test_stacked_step_bit_identical_to_per_example_loop(self, batch_size):
        """10 queries: with batch 3 the last step holds one example."""
        queries, golds, index, table, cfg = self.tiny_task()
        cfg = dataclasses.replace(cfg, batch_size=batch_size)
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        reference = params.copy()
        log = train(cfg, queries[:10], golds[:10], index, table, params)
        losses = reference_train(cfg, queries[:10], golds[:10], index, table,
                                 reference)
        assert [s.loss for s in log.steps] == losses
        for name, arr in params.arrays().items():
            assert arr.tobytes() == reference.arrays()[name].tobytes(), name

    def test_small_index_still_raises_pool_too_small(self):
        queries, golds, index, table, cfg = self.tiny_task()
        # The first query's gold plus k_train - 2 other ids: its pool is one
        # short of k_train - 1 negatives.  Train on that query alone, since
        # train resolves every gold in the index before it searches.
        others = index.ids[index.ids != golds[0]][:cfg.k_train - 2]
        keep = np.concatenate([golds[:1].astype(index.ids.dtype), others])
        small = CandidateIndex(keep, index.batch(keep))
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        with pytest.raises(PoolTooSmall):
            train(cfg, queries[:1], golds[:1], small, table, params)


def test_pool_rows_map_golds_and_pooled_rows():
    """The pools of an index under 2**31 rows stay int32."""
    data, index, table = small_task()
    queries, golds = data.query_embeddings[:20], data.gold_ids[:20]
    cfg = TrainingConfig(k_train=4, negative_pool_size=16)
    pools = NegativePools.search(cfg, queries, golds, index, table)
    assert pools.rows.dtype == np.int32


class TestPoolTooSmall:
    def test_raises_before_any_update(self):
        """Pools of k_train - 1 entries: the five queries whose gold is
        outside theirs have negatives enough, and the last one, whose gold
        is inside, has one too few.  With steps of one example, the
        others would update the weights first if the check waited for it."""
        data, index, table = small_task()
        cfg = TrainingConfig(k_train=4, negative_pool_size=3, base_lr=1e-3,
                             epochs=1, batch_size=1, seed=2)
        inside = [int(g) in search_topk(index, q, 3).ids.tolist()
                  for q, g in zip(data.query_embeddings, data.gold_ids)]
        rows = [i for i, v in enumerate(inside) if not v][:5] + [inside.index(True)]
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        before = params.flat.copy()
        with pytest.raises(PoolTooSmall, match="training query row 5: pool has 2 "):
            train(cfg, data.query_embeddings[rows], data.gold_ids[rows], index,
                  table, params)
        assert params.flat.tobytes() == before.tobytes()


class TestTrainMemory:
    def test_growth_per_query_is_below_the_pools(self, monkeypatch):
        """Traced peak of one train call at 100 and at 500 queries: each
        query adds less than twice its pool's own bytes (P int32 rows and P
        float32 scores), so what a step's examples take is set by the chunk.
        Assembling an epoch's examples at once (a chunk as large as the
        training set) adds their (K, d) rows per query and breaks the bound."""
        data = generate_synthetic(SyntheticTaskSpec(
            corpus_size=2400, confusables=4, surface_dim=12, latent_dim=4, seed=3))
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
        cfg = TrainingConfig(k_train=16, negative_pool_size=64, base_lr=1e-3,
                             epochs=1, batch_size=4, seed=1)

        def peak(n):
            queries = data.query_embeddings[:n].copy()
            golds = data.gold_ids[:n].copy()
            params = CmcParams.init(model_dim=16, head_count=2, seed=1)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train(cfg, queries, golds, index, table, params)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        def growth_per_query():
            peak(8)  # first-call allocations
            return (peak(500) - peak(100)) / 400

        pool_bytes = cfg.negative_pool_size * 8
        assert growth_per_query() < 2 * pool_bytes
        monkeypatch.setattr(training_module, "CHUNK_EXAMPLES", 10 ** 6)
        assert growth_per_query() > 2 * pool_bytes


class TestSubnormalFreeBackward:
    def test_no_backward_kernel_gets_a_subnormal_dy(self, subnormal_dy):
        """One float32 epoch on the default-shaped task: listwise losses give
        far-ranked candidates tiny but normal score gradients, and none of
        their downstream products reaches a backward kernel subnormal."""
        data = generate_synthetic(SyntheticTaskSpec(corpus_size=500, seed=29))
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
        params = CmcParams.init(model_dim=data.spec.model_dim, head_count=4,
                                seed=1)
        cfg = TrainingConfig(k_train=16, negative_pool_size=250, base_lr=5e-4,
                             epochs=1, seed=29)
        train(cfg, data.query_embeddings[:40], data.gold_ids[:40], index,
              table, params)
        assert all(subnormal_dy.calls.values())
        assert subnormal_dy.counts() == dict.fromkeys(subnormal_dy.calls, 0)


class TestNonFiniteStep:
    def test_overflowing_forward_stops_before_the_update(self):
        data, index, table = small_task()
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        for arr in params.arrays().values():
            arr *= np.float32(1e30)
        before = {n: a.copy() for n, a in params.arrays().items()}
        calls = []
        cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=1e-3,
                             epochs=2, batch_size=8, seed=2)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="step 1"):
            train(cfg, data.query_embeddings, data.gold_ids, index, table,
                  params, epoch_callback=lambda *args: calls.append(args))
        assert calls == []
        for name, arr in params.arrays().items():
            assert arr.tobytes() == before[name].tobytes(), name


class TestBadInputFailsBeforeAnyUpdate:
    """A bad gold id, pooled negative or query at row 5 of 20 (batch 7 of
    epoch 1) stops ``train`` before its first update, not when that
    example comes up mid-epoch."""

    @pytest.mark.parametrize("fault", ["gold_not_indexed", "gold_not_in_table",
                                       "negative_gold", "nan_query",
                                       "negative_not_in_table"])
    def test_parameters_untouched(self, fault):
        data, index, table = small_task()
        queries = data.query_embeddings[:20].copy()
        golds = data.gold_ids[:20]
        keep = data.candidate_ids != golds[5]
        error, message = MissingCandidate, f"candidate id {golds[5]} "
        if fault == "gold_not_indexed":
            index = CandidateIndex(data.candidate_ids[keep],
                                   data.retriever_embeddings[keep])
        elif fault == "gold_not_in_table":
            table = EmbeddingTable(data.candidate_ids[keep],
                                   data.reranker_embeddings[keep])
        elif fault == "negative_gold":
            golds = golds.astype(np.int64)
            golds[5] = -1
            error, message = InvalidInput, "-1 is negative"
        elif fault == "nan_query":
            queries[5, 0] = np.nan
            error, message = NumericError, "query row 5 "
        else:
            # Row 5's best-scoring non-gold id: always among its fixed negatives.
            pool = search_topk(index, queries[5], 16).ids
            negative = pool[~np.isin(pool, golds)][0]
            keep = data.candidate_ids != negative
            table = EmbeddingTable(data.candidate_ids[keep],
                                   data.reranker_embeddings[keep])
            message = f"candidate id {negative} "
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        before = {n: a.copy() for n, a in params.arrays().items()}
        cfg = TrainingConfig(k_train=4, negative_pool_size=16, base_lr=1e-3,
                             epochs=2, batch_size=2, seed=2)
        with pytest.raises(error, match=message):
            train(cfg, queries, golds, index, table, params)
        for name, arr in params.arrays().items():
            assert arr.tobytes() == before[name].tobytes(), name


def _cpu_model() -> str:
    """The CPU's model name as Linux reports it, else ``platform``'s guess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas() -> str:
    """The BLAS numpy was built against, as "name version"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


class TestPinnedTraining:
    """SHA-256 of the weights a small training run writes, recorded once,
    so that a change which moves the trained bits shows across versions,
    not only run to run.

    The bits depend on numpy's and the BLAS's kernels, and the BLAS picks
    its kernels by CPU, so the constants hold only for the versions and
    the CPU model below; on any other the test skips, naming it.  Summing
    the attention input gradient as q + (v + k) instead of (q + k) + v
    gives flat ``aa7aae344cc0ce49...`` and file ``b81e4f58116ef55d...``.
    An attention forward that always shifts its scores by the row max,
    as every call did before the ``SCORE_MARGIN`` guard, gives flat
    ``49cba16468fc3778...``, file ``a5b5f5d6d4219460...`` and an epoch 2
    loss of 1.1424092337106684.
    """

    NUMPY = "2.4.6"
    BLAS = "scipy-openblas 0.3.31"
    CPU = "Intel(R) Xeon(R) Processor"
    FLAT = "f49346f62daf9aeb94f0e6d218c753798a0732628a0ff38115e4a7d5f30344f2"
    FILE = "7151e0a7023695957d6ca7288ae1ff016f5c08159a9a5e6b335c751d2edc8aa2"
    EPOCH_2_LOSS = 1.1424088113814148

    def test_trained_weights_and_checkpoint(self, tmp_path):
        for what, want, have in (("numpy", self.NUMPY, np.__version__),
                                 ("BLAS", self.BLAS, _blas()),
                                 ("CPU model", self.CPU, _cpu_model())):
            if not have.startswith(want):
                pytest.skip(f"constants recorded on {what} {want!r}, this is {have!r}")
        data = generate_synthetic(SyntheticTaskSpec(corpus_size=600, seed=3))
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
        cfg = TrainingConfig(k_train=8, negative_pool_size=32, epochs=2,
                             batch_size=4, base_lr=5e-4, seed=5)
        params = CmcParams.init(model_dim=64, head_count=4, seed=1)
        log = train(cfg, data.query_embeddings[:40], data.gold_ids[:40], index,
                    table, params)
        path = tmp_path / "trained.cmcp"
        params.save(path)
        assert log.epoch_mean_loss(2) == self.EPOCH_2_LOSS
        assert hashlib.sha256(params.flat.tobytes()).hexdigest() == self.FLAT
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FILE
