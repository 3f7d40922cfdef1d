"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py``; a PASS/FAIL line per
criterion is printed in the terminal summary.  The slow criteria (7 and 9)
dominate the runtime; the whole module stays within a few minutes on
commodity hardware.
"""
import math
import time

import numpy as np
import pytest

from cmcrank.encoders import EmbeddingTable, save_embedding_file
from cmcrank.evaluation import (SyntheticTaskSpec, bench_latency, compute_metrics,
                                generate_synthetic, gold_ranks, metrics_to_csv)
from cmcrank.index import CandidateIndex, build_index, open_index, search_topk
from cmcrank.nn import finite_difference_gradient
from cmcrank.pipeline import Pipeline, PipelineConfig, gold_oracle_scorer
from cmcrank.reranker import (CmcParams, cmc_forward, cmc_forward_recorded,
                              cmc_score, rerank)
from cmcrank.training import TrainingConfig, compute_loss, sample_negatives, train
from test_evaluation import heldout_split
from test_gradcheck import full_loss, make_instance, params_as_float64

REL_TOL = 1e-2
ABS_TOL = 1e-4


# -------------------------------------------------------------------- 1


def test_criterion_01_gradient_correctness(acceptance):
    """Analytic gradients of the full listwise loss match central finite
    differences (h = 1e-3 on the float32 parameters) with rel <= 1e-2 or
    abs <= 1e-4 per coordinate, on 20 random small instances."""
    rec = acceptance(1, "gradient correctness")
    started = time.monotonic()
    rng = np.random.default_rng(20240501)
    checked = attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts <= 200, "could not draw 20 smooth instances"
        params, hq, hc, retr, gold = make_instance(rng, model_dim=8, k=4)
        tape = cmc_forward_recorded(params, hq, hc)
        scores = cmc_score(tape.ctx).scores
        # redraw instances whose probabilities approach the 1e-12 log
        # clamp: finite differences must not straddle the clamp kink
        p = np.exp(scores - scores.max())
        if (p / p.sum()).min() <= 1e-9:
            continue
        checked += 1
        instance = checked
        _, d_scores = compute_loss(scores, gold, retr, 0.5, 0.5)
        analytic, d_q, d_c = tape.backward(d_scores)
        analytic = dict(analytic.arrays())
        analytic["input.query"] = d_q
        analytic["input.candidates"] = d_c

        def loss64() -> float:
            return full_loss(params_as_float64(params),
                             hq.astype(np.float64), hc.astype(np.float64),
                             retr, gold)

        arrays = dict(params.arrays())
        arrays["input.query"] = hq
        arrays["input.candidates"] = hc
        numeric = finite_difference_gradient(loss64, arrays, h=1e-3)
        for name, a in analytic.items():
            err = np.abs(np.asarray(a, dtype=np.float64) - numeric[name])
            scale = np.maximum(np.abs(a), np.abs(numeric[name]))
            ok = (err <= ABS_TOL) | (err <= REL_TOL * scale)
            assert ok.all(), (
                f"instance {instance}, {name}: worst abs {err.max():.2e}")
    assert time.monotonic() - started <= 120.0
    rec.passed()


# -------------------------------------------------------------------- 2


def test_criterion_02_permutation_suite(acceptance):
    """1000 random trials: permuting the candidates permutes the score
    vector exactly (<= 1e-5 per entry) and the top-1 candidate identity is
    unchanged."""
    rec = acceptance(2, "permutation invariance")
    started = time.monotonic()
    rng = np.random.default_rng(7)
    k = 8
    for _ in range(1000):
        params, hq, _, _, _ = make_instance(rng, model_dim=8, k=k)
        hc = (0.5 * rng.standard_normal((k, 8))).astype(np.float32)
        base = cmc_score(cmc_forward(params, hq, hc[None]))
        perm = rng.permutation(k)
        permuted = cmc_score(cmc_forward(params, hq, hc[perm][None]))
        assert np.abs(permuted.scores[0] - base.scores[0][perm]).max() <= 1e-5
        assert perm[permuted.argmax_index[0]] == base.argmax_index[0]
    assert time.monotonic() - started <= 60.0
    rec.passed()


# -------------------------------------------------------------------- 3


def test_criterion_03_loss_identities(acceptance):
    rec = acceptance(3, "loss identities")
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(2, 65))
        scores = (3 * rng.standard_normal(k)).astype(np.float32)
        retr = (3 * rng.standard_normal(k)).astype(np.float32)
        gold = int(rng.integers(k))
        l1, l2 = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))

        # lambda2 = 0 reduces to lambda1 * cross-entropy
        (ce_loss,), _ = compute_loss(scores[None], [gold], retr[None], l1, 0.0)
        s64 = scores.astype(np.float64)
        p = np.exp(s64 - s64.max())
        p /= p.sum()
        assert abs(ce_loss - l1 * (-math.log(p[gold]))) <= 1e-6

        # matching distributions kill the KL term
        (kl_same,), _ = compute_loss(scores[None], [gold], scores[None], 0.0, l2)
        assert abs(kl_same) <= 1e-6

        # decomposition additivity
        (kl_loss,), _ = compute_loss(scores[None], [gold], retr[None], 0.0, l2)
        (both,), _ = compute_loss(scores[None], [gold], retr[None], l1, l2)
        assert abs(both - (ce_loss + kl_loss)) <= 1e-6

        # KL nonnegativity
        assert kl_loss >= -1e-9
    rec.passed()


# -------------------------------------------------------------------- 4


def test_criterion_04_metric_oracle(acceptance):
    rec = acceptance(4, "metric oracle")
    fixture = gold_ranks([(10, 11, 12), (21, 20, 22), (31, 32, 30), (41, 42, 43),
                          (51, 52, 53)], [10, 20, 30, 40, 50])
    metrics = compute_metrics(fixture, [1], in_pool=[True, True, True, False, False])
    assert metrics["accuracy_unnormalized"] == 0.20
    assert metrics["accuracy_normalized"] == pytest.approx(1 / 3, abs=1e-12)

    rng = np.random.default_rng(13)
    for _ in range(100):
        golds, rankings = [], []
        for qid in range(25):
            rankings.append(tuple(rng.permutation(50)[:12].tolist()))
            golds.append(int(rng.integers(50)))
        table = compute_metrics(gold_ranks(rankings, golds), range(1, 13),
                                require_normalized=False)
        values = [table[f"recall@{k}"] for k in range(1, 13)]
        assert all(b >= a for a, b in zip(values, values[1:]))
    rec.passed()


# -------------------------------------------------------------------- 5


def test_criterion_05_negative_sampling_distribution(acceptance):
    rec = acceptance(5, "negative sampling")
    from cmcrank.index import RankedList
    pool = RankedList(ids=np.array([0, 1, 2], dtype=np.uint64),
                      scores=np.log(np.array([1.0, 2.0, 3.0],
                                             dtype=np.float32)))
    cfg = TrainingConfig(k_train=2, fixed_fraction=0.0, negative_pool_size=8)
    rng = np.random.default_rng(17)
    counts = np.zeros(3)
    trials = 100_000
    for _ in range(trials):
        counts[int(sample_negatives(pool, 99, cfg, rng)[0])] += 1
    np.testing.assert_allclose(counts / trials, [1 / 6, 2 / 6, 3 / 6],
                               atol=0.01)

    fixed_cfg = TrainingConfig(k_train=3, fixed_fraction=1.0,
                               negative_pool_size=8)
    ordered = RankedList(ids=np.array([5, 9, 2, 7], dtype=np.uint64),
                         scores=np.array([4.0, 3.0, 2.0, 1.0], dtype=np.float32))
    for _ in range(10):
        out = sample_negatives(ordered, 7, fixed_cfg, rng)
        assert out.tolist() == [5, 9]
    rec.passed()


# -------------------------------------------------------------------- 6


def test_criterion_06_search_exactness(acceptance, tmp_path):
    rec = acceptance(6, "search exactness")
    rng = np.random.default_rng(19)
    for trial in range(100):
        n = int(rng.integers(50, 10_001))
        dim = int(rng.choice([8, 16, 32, 64]))
        ids = rng.choice(10 ** 7, size=n, replace=False)
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        index = CandidateIndex(ids, matrix)
        q = rng.standard_normal(dim).astype(np.float32)
        k = int(rng.integers(1, min(n, 128) + 1))
        got = search_topk(index, q, k)

        scores = np.asarray(index.matrix) @ q
        order = np.lexsort((index.ids, -scores.astype(np.float64)))[:k]
        assert got.ids.tolist() == index.ids[order].tolist()
        np.testing.assert_array_equal(got.scores, scores[order])

    # persistence: bit-exact round-trip and the exact payload size
    for count, dim in ((1, 8), (257, 64), (1000, 16)):
        ids = np.arange(count)
        matrix = rng.standard_normal((count, dim)).astype(np.float32)
        path = tmp_path / f"acc6_{count}.cmci"
        built = build_index(ids, matrix, path)
        from cmcrank.encoders import HEADER_BYTES
        assert path.stat().st_size == HEADER_BYTES + count * 8 + count * dim * 4
        reopened = open_index(path)
        assert np.asarray(reopened.matrix).tobytes() == built.matrix.tobytes()
        assert reopened.ids.tolist() == built.ids.tolist()
    rec.passed()


# -------------------------------------------------------------------- 7 & 8


@pytest.fixture(scope="module")
def trained_world():
    """Default synthetic task with measured retriever baselines and a
    trained reranker (k_train 16, 3 epochs, fixed seed)."""
    data = generate_synthetic(SyntheticTaskSpec())  # the default task
    index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
    table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
    train_idx, eval_idx = heldout_split(len(data.query_ids))

    # frozen-retriever baselines on the held-out queries
    retriever_r1 = retriever_r16 = 0
    for qi in eval_idx:
        q = data.query_embeddings[qi]
        gold = int(data.gold_ids[qi])
        top = search_topk(index, q, 16)
        retriever_r1 += int(int(top.ids[0]) == gold)
        retriever_r16 += int(gold in top.ids.tolist())
    n_eval = len(eval_idx)
    baselines = {"recall@1": retriever_r1 / n_eval,
                 "recall@16": retriever_r16 / n_eval}

    params = CmcParams.init(model_dim=data.spec.model_dim, head_count=4, seed=29)
    cfg = TrainingConfig(k_train=16, negative_pool_size=512, base_lr=5e-4,
                         batch_size=4, epochs=3, seed=29)
    log = train(cfg, data.query_embeddings[train_idx], data.gold_ids[train_idx],
                index, table, params)
    return data, index, table, params, eval_idx, baselines, log


def test_criterion_07_synthetic_gain(acceptance, trained_world):
    """Held-out reranker recall@1 beats the frozen retriever's by at least
    5 points, and reranker recall@16 over a 64-candidate pool is no worse
    than retriever recall@16."""
    rec = acceptance(7, "end-to-end synthetic gain")
    started = time.monotonic()
    data, index, table, params, eval_idx, baselines, log = trained_world

    cmc_r1 = cmc_r16 = 0
    for qi in eval_idx:
        q = data.query_embeddings[qi]
        gold = int(data.gold_ids[qi])
        pool = search_topk(index, q, 64)
        reranked = rerank(params, q, pool, table, min(16, len(pool)))
        cmc_r1 += int(int(reranked.ids[0]) == gold)
        cmc_r16 += int(gold in reranked.ids.tolist())
    n_eval = len(eval_idx)
    cmc_recall1, cmc_recall16 = cmc_r1 / n_eval, cmc_r16 / n_eval

    assert log.epoch_mean_loss(3) < log.epoch_mean_loss(1)
    assert cmc_recall1 >= baselines["recall@1"] + 0.05, (
        f"reranker {cmc_recall1:.3f} vs retriever {baselines['recall@1']:.3f}")
    assert cmc_recall16 >= baselines["recall@16"], (
        f"reranker {cmc_recall16:.3f} vs retriever {baselines['recall@16']:.3f}")
    assert time.monotonic() - started <= 900.0
    rec.passed()


def test_criterion_08_intermediate_reranker_logic(acceptance, trained_world):
    """With the gold-oracle final scorer, end-to-end accuracy equals the
    stage-2 recall@K' exactly for K' in {4, 8, 16}."""
    rec = acceptance(8, "intermediate reranker logic")
    data, index, table, params, eval_idx, baselines, _ = trained_world
    pipe = Pipeline(index, params, table)
    golds = {int(data.query_ids[qi]): int(data.gold_ids[qi]) for qi in eval_idx}
    queries = [(int(data.query_ids[qi]), data.query_embeddings[qi])
               for qi in eval_idx]
    for k_prime in (4, 8, 16):
        cfg = PipelineConfig(k_retrieve=64, k_prime=k_prime,
                             mode="intermediate",
                             final_scorer=gold_oracle_scorer(golds))
        results, metrics, errors = pipe.run_batch(cfg, queries,
                                                  gold_by_query=golds)
        assert not errors
        stage2_recall = float(np.mean(
            [golds[r.query_id] in r.reranked.ids.tolist() for r in results]))
        assert metrics["accuracy_end_to_end"] == stage2_recall
    rec.passed()


# -------------------------------------------------------------------- 9


def test_criterion_09_scalability(acceptance):
    """Forward completes at K = 16384 (model_dim 64) and bench medians are
    monotone nondecreasing across the doubling ladder.  Absolute times are
    reported, never asserted."""
    rec = acceptance(9, "scalability to 16384 candidates")
    params = CmcParams.init(model_dim=64, head_count=4, seed=31)
    ks = [128, 256, 512, 1024, 2048, 4096, 8192, 16384]
    report = bench_latency(params, ks, repeats=5, seed=31)
    assert [row.k for row in report.rows] == ks
    assert all(row.error is None for row in report.rows)
    medians = [row.median_us for row in report.rows]
    assert all(b >= a for a, b in zip(medians, medians[1:])), medians
    print("\n" + report.to_table())
    rec.passed()


# -------------------------------------------------------------------- 10


def test_criterion_10_determinism(acceptance, tmp_path):
    """Same seeds, two runs: byte-identical synthetic datasets, training
    checkpoints, and evaluation outputs."""
    rec = acceptance(10, "seeded determinism")
    artifacts = []
    for run_name in ("first", "second"):
        spec = SyntheticTaskSpec(corpus_size=1000, confusables=4,
                                 surface_dim=24, latent_dim=8, seed=37)
        data = generate_synthetic(spec)
        dataset_path = tmp_path / f"{run_name}.cmce"
        save_embedding_file(dataset_path, data.candidate_ids,
                            data.reranker_embeddings)

        index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
        table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
        params = CmcParams.init(model_dim=spec.model_dim, head_count=4, seed=41)
        cfg = TrainingConfig(k_train=8, negative_pool_size=64, base_lr=3e-4,
                             batch_size=8, epochs=2, seed=41)
        train_idx, eval_idx = heldout_split(len(data.query_ids))
        train(cfg, data.query_embeddings[train_idx], data.gold_ids[train_idx],
              index, table, params)
        ckpt_path = tmp_path / f"{run_name}.cmcp"
        params.save(ckpt_path)

        pipe = Pipeline(index, params, table)
        golds = {int(data.query_ids[i]): int(data.gold_ids[i]) for i in eval_idx}
        queries = [(int(data.query_ids[i]), data.query_embeddings[i])
                   for i in eval_idx]
        _, metrics, _ = pipe.run_batch(
            PipelineConfig(k_retrieve=32, k_prime=8, mode="final"),
            queries, gold_by_query=golds)
        artifacts.append((dataset_path.read_bytes(), ckpt_path.read_bytes(),
                          metrics_to_csv(metrics)))
    assert artifacts[0][0] == artifacts[1][0], "synthetic dataset differs"
    assert artifacts[0][1] == artifacts[1][1], "checkpoint differs"
    assert artifacts[0][2] == artifacts[1][2], "evaluation output differs"
    rec.passed()
