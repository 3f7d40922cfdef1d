"""Metrics, the synthetic task construction, and the latency bench."""
import numpy as np
import pytest

from cmcrank.errors import InvalidConfig, InvalidInput, UndefinedMetric
from cmcrank.evaluation import (SyntheticTaskSpec, bench_latency, compute_metrics,
                                generate_synthetic, gold_ranks, metrics_to_csv)
from cmcrank.index import CandidateIndex, search_topk
from cmcrank.reranker import CmcParams


def heldout_split(count: int, every: int = 5):
    """The acceptance suite's split of ``count`` queries: every
    ``every``-th is held out for evaluation, the rest train."""
    idx = np.arange(count)
    eval_idx = idx[::every]
    return np.setdiff1d(idx, eval_idx), eval_idx


def metrics_of(golds, rankings, k_values, in_pool=None, **kwargs):
    return compute_metrics(gold_ranks(rankings, golds), k_values, in_pool=in_pool, **kwargs)


class TestGoldRanks:
    def test_one_based_rank_or_zero(self):
        ranks = gold_ranks([[10, 11, 12], [21, 20], [31, 32], []], [10, 20, 30, 40])
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [1, 2, 0, 0]

    def test_ids_at_and_above_two_to_the_63(self):
        top = 2 ** 64 - 1
        assert gold_ranks([[5, top], [2 ** 63, 7]], [top, 2 ** 63]).tolist() == [2, 1]

    def test_repeated_id_rejected(self):
        with pytest.raises(InvalidInput, match="ranking 1 .* repeats id 3"):
            gold_ranks([[1, 2], [3, 4, 3]], [1, 3])

    @pytest.mark.parametrize("rankings, golds", [
        ([[1, -2]], [1]), ([[1, 2]], [-1]), ([[1.5, 2]], [1])])
    def test_bad_ids_rejected(self, rankings, golds):
        with pytest.raises(InvalidInput):
            gold_ranks(rankings, golds)


class TestMetrics:
    def test_retrieval_footnote_fixture(self):
        """5 queries, gold retrieved for 3, reranker top-1 correct for 1:
        unnormalized 20%, normalized 33.3%."""
        rankings = [
            [10, 11, 12],  # correct
            [21, 20, 22],  # gold present, ranked 2nd
            [31, 32, 30],  # gold present, ranked 3rd
            [41, 42, 43],  # gold missed retrieval
            [51, 52, 53],
        ]
        metrics = metrics_of([10, 20, 30, 40, 50], rankings, [1],
                             in_pool=[True, True, True, False, False])
        assert metrics["accuracy_unnormalized"] == pytest.approx(0.20)
        assert metrics["accuracy_normalized"] == pytest.approx(1 / 3)

    def test_all_correct(self):
        metrics = metrics_of(range(4), [[i, 99 + i] for i in range(4)], [1, 2],
                             in_pool=[True] * 4)
        assert metrics["recall@1"] == 1.0
        assert metrics["recall@2"] == 1.0
        assert metrics["accuracy_unnormalized"] == 1.0
        assert metrics["accuracy_normalized"] == 1.0
        assert metrics["mrr@10"] == 1.0

    def test_gold_always_second(self):
        metrics = metrics_of(range(6), [[99 + i, i] for i in range(6)], [1, 2],
                             in_pool=[True] * 6)
        assert metrics["mrr@10"] == pytest.approx(0.5)
        assert metrics["recall@1"] == 0.0
        assert metrics["recall@2"] == 1.0

    def test_mrr_cutoff_at_ten(self):
        ranked = list(range(100, 112))
        ranked[10] = 7  # gold at rank 11
        metrics = metrics_of([7], [ranked], [1], in_pool=[True])
        assert metrics["mrr@10"] == 0.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        golds, rankings = [], []
        for qid in range(60):
            rankings.append(rng.permutation(30)[:10].tolist())
            golds.append(int(rng.integers(30)))
        ks = [1, 3, 5, 10]
        metrics = metrics_of(golds, rankings, ks, require_normalized=False)
        n = len(golds)
        for k in ks:
            expected = sum(1 for gold, ranked in zip(golds, rankings)
                           if gold in ranked[:k]) / n
            assert metrics[f"recall@{k}"] == pytest.approx(expected)
        expected_mrr = 0.0
        for gold, ranked in zip(golds, rankings):
            if gold in ranked[:10]:
                expected_mrr += 1.0 / (ranked.index(gold) + 1)
        assert metrics["mrr@10"] == pytest.approx(expected_mrr / n)

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            golds, rankings = [], []
            for qid in range(20):
                rankings.append(rng.permutation(40)[:15].tolist())
                golds.append(int(rng.integers(40)))
            metrics = metrics_of(golds, rankings, range(1, 16),
                                 require_normalized=False)
            values = [metrics[f"recall@{k}"] for k in range(1, 16)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_normalized_at_least_unnormalized(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            golds, rankings = [], []
            for qid in range(15):
                rankings.append(rng.permutation(20)[:8].tolist())
                golds.append(int(rng.integers(20)))
            if not any(gold in ranked for gold, ranked in zip(golds, rankings)):
                continue
            metrics = metrics_of(golds, rankings, [1])
            assert metrics["accuracy_normalized"] >= metrics["accuracy_unnormalized"]

    def test_no_records_rejected(self):
        with pytest.raises(InvalidInput):
            compute_metrics(gold_ranks([], []), [1])

    def test_normalized_undefined_without_pool_hits(self):
        with pytest.raises(UndefinedMetric):
            metrics_of([9], [[1, 2]], [1], in_pool=[False])
        metrics = metrics_of([9], [[1, 2]], [1], in_pool=[False], require_normalized=False)
        assert "accuracy_normalized" not in metrics

    @pytest.mark.parametrize("in_pool", [[True], [True, True, False], [[True, True]]])
    def test_in_pool_needs_one_flag_per_rank(self, in_pool):
        with pytest.raises(InvalidInput, match="one flag per rank"):
            compute_metrics(np.array([1, 2]), [1], in_pool=in_pool)

    @pytest.mark.parametrize("k_values", [[0], [-3, 1], [0, -3]])
    def test_cutoff_below_one_rejected(self, k_values):
        with pytest.raises(InvalidConfig, match="below 1"):
            metrics_of([1], [[1, 2]], k_values)

    def test_mrr_is_a_python_sum_in_query_order(self):
        """MRR adds 1/rank as Python floats in query order, then divides."""
        ranks = np.array([3, 0, 7, 1, 2, 9, 11, 6, 0, 5, 10])
        expected = 0.0
        for rank in ranks.tolist():
            if 0 < rank <= 10:
                expected += 1.0 / rank
        assert compute_metrics(ranks, [1])["mrr@10"] == expected / len(ranks)

    def test_csv_shape(self):
        metrics = metrics_of([1], [[1]], [1], in_pool=[True])
        csv = metrics_to_csv(metrics)
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,value"
        assert len(lines) == 1 + len(metrics)


class TestSyntheticTask:
    def test_confusables_tie_the_retriever_and_latents_identify_gold(self):
        """sigma = 0, m = 2: the two confusables get identical retriever
        scores, while the latent dot product picks the gold exactly."""
        spec = SyntheticTaskSpec(corpus_size=40, confusables=2, surface_dim=6,
                                 latent_dim=4, surface_noise=0.0, seed=5)
        data = generate_synthetic(spec)
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        correct = 0
        for qi in range(len(data.query_ids)):
            q = data.query_embeddings[qi]
            group = [2 * qi, 2 * qi + 1]
            scores = index.scores_for(q, group)
            assert scores[0] == pytest.approx(scores[1], abs=1e-5)
            latents = data.reranker_embeddings[group][:, spec.surface_dim:]
            pick = group[int(np.argmax(latents @ q[spec.surface_dim:]))]
            correct += int(pick == int(data.gold_ids[qi]))
        assert correct == len(data.query_ids)

    def test_same_seed_identical(self):
        spec = SyntheticTaskSpec(corpus_size=80, confusables=4, surface_dim=6,
                                 latent_dim=2, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.reranker_embeddings.tobytes() == b.reranker_embeddings.tobytes()
        assert a.retriever_embeddings.tobytes() == b.retriever_embeddings.tobytes()
        assert a.query_embeddings.tobytes() == b.query_embeddings.tobytes()
        assert a.gold_ids.tolist() == b.gold_ids.tolist()

    def test_baseline_measurement_protocol(self):
        """Record the frozen-retriever and latent-oracle recall@1 before any
        training claim; the oracle must dominate the retriever."""
        data = generate_synthetic(SyntheticTaskSpec(
            corpus_size=1000, confusables=8, surface_dim=48, latent_dim=16,
            surface_noise=0.05, seed=6))
        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        retriever_hits = oracle_hits = 0
        for qi in range(len(data.query_ids)):
            q = data.query_embeddings[qi]
            gold = int(data.gold_ids[qi])
            top = search_topk(index, q, 1)
            retriever_hits += int(int(top.ids[0]) == gold)
            full_scores = data.reranker_embeddings @ q
            oracle_hits += int(int(np.argmax(full_scores)) == gold)
        n = len(data.query_ids)
        retriever_recall, oracle_recall = retriever_hits / n, oracle_hits / n
        assert 0.0 <= retriever_recall < oracle_recall <= 1.0
        # confusables share surfaces, so the retriever is near chance 1/m
        assert retriever_recall < 0.5

    def test_bad_dims_rejected(self):
        with pytest.raises(InvalidConfig):
            SyntheticTaskSpec(confusables=1)
        with pytest.raises(InvalidConfig):
            SyntheticTaskSpec(latent_dim=0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_noise_not_finite_and_nonnegative_rejected(self, noise):
        with pytest.raises(InvalidConfig, match="surface_noise"):
            SyntheticTaskSpec(surface_noise=noise)

    @pytest.mark.parametrize("field", ["corpus_size", "confusables", "surface_dim",
                                       "latent_dim", "seed"])
    @pytest.mark.parametrize("value", [5000.0, "8", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match="must be integers"):
            SyntheticTaskSpec(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        spec = SyntheticTaskSpec(corpus_size=np.int64(40), confusables=np.int32(4),
                                 surface_dim=6, latent_dim=2, seed=np.uint64(3))
        assert len(generate_synthetic(spec).query_ids) == 10

    def test_heldout_split_disjoint(self):
        data = generate_synthetic(SyntheticTaskSpec(
            corpus_size=80, confusables=4, surface_dim=6, latent_dim=2, seed=2))
        train_idx, eval_idx = heldout_split(len(data.query_ids))
        assert len(np.intersect1d(train_idx, eval_idx)) == 0
        assert len(train_idx) + len(eval_idx) == len(data.query_ids)


class TestBench:
    def test_single_k(self):
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        report = bench_latency(params, [8], repeats=5, seed=0)
        assert len(report.rows) == 1
        assert report.rows[0].k == 8
        assert report.rows[0].error is None

    def test_p95_at_least_median(self):
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        report = bench_latency(params, [4, 16, 64], repeats=7, seed=0)
        for row in report.rows:
            assert row.p95_us >= row.median_us

    def test_k_must_increase(self):
        params = CmcParams.init(model_dim=16, head_count=2)
        with pytest.raises(InvalidConfig):
            bench_latency(params, [16, 8], repeats=5)

    def test_too_few_repeats(self):
        params = CmcParams.init(model_dim=16, head_count=2)
        with pytest.raises(InvalidConfig):
            bench_latency(params, [8], repeats=3)

    def test_csv_has_header(self):
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        report = bench_latency(params, [4], repeats=5, seed=0)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "k,median_us,p95_us,error"
        assert len(lines) == 2

    def test_missing_threadpoolctl_reported_as_unpinned(self, monkeypatch):
        import cmcrank.evaluation as evaluation_module
        monkeypatch.setattr(evaluation_module, "threadpool_limits", None)
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        report = bench_latency(params, [4], repeats=5, seed=0)
        assert report.pinned is False
        assert "pinned to 1: no" in report.to_table()

    def test_allocation_failure_recorded_not_raised(self, monkeypatch):
        """An out-of-memory row is reported in the table, not a crash."""
        import cmcrank.evaluation as evaluation_module
        real_forward = evaluation_module.cmc_forward

        def failing_forward(params, hq, hc):
            if hc.shape[1] >= 32:
                raise MemoryError("simulated allocation failure")
            return real_forward(params, hq, hc)

        monkeypatch.setattr(evaluation_module, "cmc_forward", failing_forward)
        params = CmcParams.init(model_dim=16, head_count=2, seed=1)
        report = bench_latency(params, [8, 32], repeats=5, seed=0)
        assert report.rows[0].error is None
        assert report.rows[1].error is not None
        assert "failed" in report.to_table()
