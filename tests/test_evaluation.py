"""Metrics, the synthetic task construction, and the latency bench."""
import numpy as np
import pytest

from cmcrank.errors import InvalidConfig, InvalidInput, UndefinedMetric
from cmcrank.evaluation import (EvalRecord, SyntheticTaskSpec, bench_latency,
                                compute_metrics, generate_synthetic,
                                metrics_to_csv)
from cmcrank.index import CandidateIndex, search_topk
from cmcrank.reranker import CmcParams


def heldout_split(count: int, every: int = 5):
    """The acceptance suite's split of ``count`` queries: every
    ``every``-th is held out for evaluation, the rest train."""
    idx = np.arange(count)
    eval_idx = idx[::every]
    return np.setdiff1d(idx, eval_idx), eval_idx


def record(qid, gold, ranked, in_pool):
    return EvalRecord(query_id=qid, gold_id=gold, ranked_ids=tuple(ranked),
                      gold_in_pool=in_pool)


class TestMetrics:
    def test_retrieval_footnote_fixture(self):
        """5 queries, gold retrieved for 3, reranker top-1 correct for 1:
        unnormalized 20%, normalized 33.3%."""
        records = [
            record(0, 10, [10, 11, 12], True),   # correct
            record(1, 20, [21, 20, 22], True),   # gold present, ranked 2nd
            record(2, 30, [31, 32, 30], True),   # gold present, ranked 3rd
            record(3, 40, [41, 42, 43], False),  # gold missed retrieval
            record(4, 50, [51, 52, 53], False),
        ]
        metrics = compute_metrics(records, [1])
        assert metrics["accuracy_unnormalized"] == pytest.approx(0.20)
        assert metrics["accuracy_normalized"] == pytest.approx(1 / 3)

    def test_all_correct(self):
        records = [record(i, i, [i, 99 + i], True) for i in range(4)]
        metrics = compute_metrics(records, [1, 2])
        assert metrics["recall@1"] == 1.0
        assert metrics["recall@2"] == 1.0
        assert metrics["accuracy_unnormalized"] == 1.0
        assert metrics["accuracy_normalized"] == 1.0
        assert metrics["mrr@10"] == 1.0

    def test_gold_always_second(self):
        records = [record(i, i, [99 + i, i], True) for i in range(6)]
        metrics = compute_metrics(records, [1, 2])
        assert metrics["mrr@10"] == pytest.approx(0.5)
        assert metrics["recall@1"] == 0.0
        assert metrics["recall@2"] == 1.0

    def test_mrr_cutoff_at_ten(self):
        ranked = list(range(100, 112))
        ranked[10] = 7  # gold at rank 11
        metrics = compute_metrics([record(0, 7, ranked, True)], [1])
        assert metrics["mrr@10"] == 0.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        records = []
        for qid in range(60):
            ranked = rng.permutation(30)[:10].tolist()
            gold = int(rng.integers(30))
            records.append(record(qid, gold, ranked, gold in ranked))
        ks = [1, 3, 5, 10]
        metrics = compute_metrics(records, ks, require_normalized=False)
        n = len(records)
        for k in ks:
            expected = sum(1 for r in records
                           if r.gold_id in r.ranked_ids[:k]) / n
            assert metrics[f"recall@{k}"] == pytest.approx(expected)
        expected_mrr = 0.0
        for r in records:
            if r.gold_id in r.ranked_ids[:10]:
                expected_mrr += 1.0 / (list(r.ranked_ids).index(r.gold_id) + 1)
        assert metrics["mrr@10"] == pytest.approx(expected_mrr / n)

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            records = []
            for qid in range(20):
                ranked = rng.permutation(40)[:15].tolist()
                gold = int(rng.integers(40))
                records.append(record(qid, gold, ranked, gold in ranked))
            metrics = compute_metrics(records, range(1, 16),
                                      require_normalized=False)
            values = [metrics[f"recall@{k}"] for k in range(1, 16)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_normalized_at_least_unnormalized(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            records = []
            for qid in range(15):
                ranked = rng.permutation(20)[:8].tolist()
                gold = int(rng.integers(20))
                records.append(record(qid, gold, ranked, gold in ranked))
            if not any(r.gold_in_pool for r in records):
                continue
            metrics = compute_metrics(records, [1])
            assert metrics["accuracy_normalized"] >= metrics["accuracy_unnormalized"]

    def test_no_records_rejected(self):
        with pytest.raises(InvalidInput):
            compute_metrics([], [1])

    def test_normalized_undefined_without_pool_hits(self):
        records = [record(0, 9, [1, 2], False)]
        with pytest.raises(UndefinedMetric):
            compute_metrics(records, [1])
        metrics = compute_metrics(records, [1], require_normalized=False)
        assert "accuracy_normalized" not in metrics

    def test_csv_shape(self):
        metrics = compute_metrics([record(0, 1, [1], True)], [1])
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
