"""Pipeline orchestration: subset chain, oracle equivalences, parallelism."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcrank.encoders import EmbeddingTable
from cmcrank.errors import (DuplicateId, InvalidConfig, InvalidInput, InvalidShape,
                            NumericError)
from cmcrank.evaluation import SyntheticTaskSpec, generate_synthetic
from cmcrank import parallel
from cmcrank.index import CandidateIndex, _block_rows
from cmcrank.nn.attention import SPLIT_MIN_BLOCKS
from cmcrank.pipeline import (Pipeline, PipelineConfig, gold_oracle_scorer,
                              noisy_oracle_scorer)
from cmcrank.reranker import CmcParams, cmc_forward, cmc_score
from test_training import _blas, _cpu_model


@pytest.fixture(scope="module")
def world():
    data = generate_synthetic(SyntheticTaskSpec(
        corpus_size=320, confusables=4, surface_dim=12, latent_dim=4, seed=21))
    index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
    table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
    params = CmcParams.init(model_dim=16, head_count=4, seed=22)
    pipe = Pipeline(index, params, table)
    golds = {int(q): int(g) for q, g in zip(data.query_ids, data.gold_ids)}
    queries = list(zip((int(q) for q in data.query_ids), data.query_embeddings))
    return data, pipe, golds, queries


class TestConfig:
    def test_k_prime_bounded_by_k_retrieve(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(k_retrieve=8, k_prime=16)

    def test_intermediate_requires_scorer(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(k_retrieve=8, k_prime=4, mode="intermediate")

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(mode="telepathy")

    @pytest.mark.parametrize("counts", [
        {"k_retrieve": 10.5}, {"k_prime": 4.0}, {"k_retrieve": "16"}])
    def test_non_integer_counts_rejected(self, counts):
        """A float count would reach ``np.argpartition`` as a ``TypeError``,
        which per-query isolation does not catch; numpy integers are counts."""
        with pytest.raises(InvalidConfig, match="integers"):
            PipelineConfig(**{"k_retrieve": 16, "k_prime": 4, **counts})
        cfg = PipelineConfig(k_retrieve=np.int64(16), k_prime=np.uint32(4))
        assert (cfg.k_retrieve, cfg.k_prime) == (16, 4)

    def test_parts_of_different_dims_rejected(self, world):
        """A dim mismatch is one configuration error, not a data error in
        every query."""
        _, pipe, _, _ = world
        narrow = EmbeddingTable([1, 2], np.eye(2, dtype=np.float32))
        for index, params, candidates in [
                (pipe.index, CmcParams.init(model_dim=8, head_count=2, seed=1),
                 pipe.candidates),
                (pipe.index, pipe.params, narrow),
                (CandidateIndex([1, 2], np.eye(2, dtype=np.float32)), pipe.params,
                 pipe.candidates)]:
            with pytest.raises(InvalidShape, match="differ"):
                Pipeline(index, params, candidates)


class TestRunQuery:
    def test_no_truncation_equals_global_argmax(self, world):
        """k_retrieve = k_prime = corpus size: the answer is the reranker
        argmax over the entire corpus."""
        data, pipe, golds, queries = world
        n = len(data.candidate_ids)
        cfg = PipelineConfig(k_retrieve=n, k_prime=n, mode="final")
        for qid, q in queries[:5]:
            result = pipe.run_query(cfg, qid, q)
            ctx = cmc_forward(pipe.params, q[None], pipe.candidates.matrix[None])
            scores = cmc_score(ctx).scores[0]
            order = sorted(range(n), key=lambda j: (-scores[j], j))
            assert result.top1_id == order[0]

    def test_subset_chain(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=32, k_prime=8, mode="final")
        for qid, q in queries[:25]:
            r = pipe.run_query(cfg, qid, q)
            retrieved = set(r.retrieved.ids.tolist())
            reranked = set(r.reranked.ids.tolist())
            assert reranked <= retrieved
            assert r.top1_id in reranked
            assert len(r.reranked) == 8

    def test_gold_oracle_accuracy_equals_stage2_recall(self, world):
        """With the gold-oracle final scorer, end-to-end accuracy is exactly
        the fraction of queries whose gold survives the stage-2 cut."""
        data, pipe, golds, queries = world
        for k_prime in (4, 8, 16):
            cfg = PipelineConfig(k_retrieve=32, k_prime=k_prime,
                                 mode="intermediate",
                                 final_scorer=gold_oracle_scorer(golds))
            results, metrics, errors = pipe.run_batch(cfg, queries,
                                                      gold_by_query=golds)
            assert not errors
            survived = np.mean([golds[r.query_id] in r.reranked.ids.tolist()
                                for r in results])
            assert metrics["accuracy_end_to_end"] == pytest.approx(survived)
            assert metrics[f"recall@{k_prime}"] == pytest.approx(survived)

    def test_timings_recorded(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        r = pipe.run_query(cfg, *queries[0])
        assert set(r.timings_us) == {"retrieve", "rerank", "final"}
        assert r.timings_us["retrieve"] >= 0
        assert r.timings_us["final"] == 0.0  # final mode has no stage 3


class TestPinnedServing:
    """SHA-256 of what ``run_query`` serves for a small task, recorded once,
    so that a change which moves the served bits shows across versions.

    At K = 512 the reranker runs one 513-row sequence per query, which the
    attention walks in 9 row blocks.  As for ``TestPinnedTraining``, the
    bits depend on numpy, the BLAS and the CPU model; on any other than
    those below the test skips, naming it.  An attention forward that
    always shifts its scores by the row max, as every call did before the
    ``SCORE_MARGIN`` guard, serves ``03ee39d0cbc7432c...``.
    """

    NUMPY = "2.4.6"
    BLAS = "scipy-openblas 0.3.31"
    CPU = "Intel(R) Xeon(R) Processor"
    SERVED = "3c21c6f09afa0a5c3055f560c7c7673b8d7245563ed4f3bb17d569fee7e4faf9"

    def test_reranked_ids_and_scores(self):
        for what, want, have in (("numpy", self.NUMPY, np.__version__),
                                 ("BLAS", self.BLAS, _blas()),
                                 ("CPU model", self.CPU, _cpu_model())):
            if not have.startswith(want):
                pytest.skip(f"constants recorded on {what} {want!r}, this is {have!r}")
        data = generate_synthetic(SyntheticTaskSpec(corpus_size=600, seed=3))
        pipe = Pipeline(CandidateIndex(data.candidate_ids, data.retriever_embeddings),
                        CmcParams.init(model_dim=64, head_count=4, seed=1),
                        EmbeddingTable(data.candidate_ids, data.reranker_embeddings))
        cfg = PipelineConfig(k_retrieve=512, k_prime=64)
        served = hashlib.sha256()
        for qid, q in zip(data.query_ids[:8], data.query_embeddings[:8]):
            reranked = pipe.run_query(cfg, int(qid), q).reranked
            assert len(reranked) == 64
            served.update(reranked.ids.tobytes())
            served.update(reranked.scores.tobytes())
        assert served.hexdigest() == self.SERVED


class TestRunBatch:
    def test_empty_batch(self, world):
        data, pipe, golds, _ = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        results, metrics, errors = pipe.run_batch(cfg, [], gold_by_query=golds)
        assert results == [] and metrics == {} and errors == {}

    def test_retriever_recall_at_the_reported_cutoffs(self, world):
        """``retriever_recall@k`` counts golds among the first k retrieved
        ids, next to the reranked list's ``recall@k`` at the same k."""
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=32, k_prime=8, mode="final")
        results, metrics, errors = pipe.run_batch(cfg, queries, gold_by_query=golds)
        assert not errors
        for k in (1, 8):
            assert metrics[f"retriever_recall@{k}"] == pytest.approx(np.mean(
                [golds[r.query_id] in r.retrieved.ids[:k].tolist() for r in results]))
            assert metrics[f"recall@{k}"] == pytest.approx(np.mean(
                [golds[r.query_id] in r.reranked.ids[:k].tolist() for r in results]))
        assert sorted(m for m in metrics if "recall@" in m) == [
            "recall@1", "recall@8", "retriever_recall@1", "retriever_recall@8"]

    @pytest.mark.parametrize("mode", ["final", "intermediate"])
    def test_normalized_accuracy_counts_golds_in_the_retrieved_pool(self, world, mode):
        """``accuracy_normalized`` is the reranked top-1 accuracy over the
        queries whose gold is among the K retrieved ids, not the K'
        survivors; this world has golds that the rerank drops."""
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=32, k_prime=4, mode=mode,
                             final_scorer=noisy_oracle_scorer(golds, seed=1))
        results, metrics, errors = pipe.run_batch(cfg, queries, gold_by_query=golds)
        assert not errors
        in_pool = [r for r in results if golds[r.query_id] in r.retrieved.ids.tolist()]
        survived = [r for r in in_pool if golds[r.query_id] in r.reranked.ids.tolist()]
        assert len(survived) < len(in_pool)
        top1 = [int(r.reranked.ids[0]) == golds[r.query_id] for r in in_pool]
        assert metrics["accuracy_normalized"] == sum(top1) / len(in_pool)
        assert metrics["accuracy_normalized"] != sum(top1) / len(survived)

    def test_batch_of_one_equals_run_query(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        single = pipe.run_query(cfg, *queries[3])
        results, _, _ = pipe.run_batch(cfg, [queries[3]])
        assert results[0].top1_id == single.top1_id
        assert results[0].reranked.ids.tolist() == single.reranked.ids.tolist()

    def test_parallel_equals_serial(self, world):
        """Any worker count gives identical rankings and metrics."""
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=32, k_prime=8, mode="final")
        serial, m_serial, _ = pipe.run_batch(cfg, queries, gold_by_query=golds)
        threaded, m_threaded, _ = pipe.run_batch(cfg, queries,
                                                 gold_by_query=golds, threads=4)
        assert m_serial == m_threaded
        for a, b in zip(serial, threaded):
            assert a.query_id == b.query_id
            assert a.top1_id == b.top1_id
            assert a.reranked.ids.tolist() == b.reranked.ids.tolist()
            assert np.array_equal(a.reranked.scores, b.reranked.scores)

    def test_500_query_batch_parallelism_levels_agree(self):
        """Aggregate metrics are identical at every parallelism level."""
        data = generate_synthetic(SyntheticTaskSpec(
            corpus_size=2000, confusables=4, surface_dim=12, latent_dim=4,
            seed=77))
        pipe = Pipeline(CandidateIndex(data.candidate_ids,
                                       data.retriever_embeddings),
                        CmcParams.init(model_dim=16, head_count=4, seed=78),
                        EmbeddingTable(data.candidate_ids,
                                       data.reranker_embeddings))
        golds = {int(q): int(g) for q, g in zip(data.query_ids, data.gold_ids)}
        queries = list(zip((int(q) for q in data.query_ids),
                           data.query_embeddings))
        assert len(queries) == 500
        cfg = PipelineConfig(k_retrieve=32, k_prime=8, mode="final")
        baseline = None
        for threads in (1, 2, 4):
            results, metrics, errors = pipe.run_batch(
                cfg, queries, gold_by_query=golds, threads=threads)
            assert not errors
            tops = [r.top1_id for r in results]
            if baseline is None:
                baseline = (tops, metrics)
            else:
                assert (tops, metrics) == baseline

    def test_per_query_errors_collected(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        bad = [(999, np.zeros(3, dtype=np.float32))]  # wrong dim
        results, _, errors = pipe.run_batch(cfg, queries[:2] + bad)
        assert len(results) == 2
        assert 999 in errors

    def test_nonfinite_query_reported_as_error(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        bad = np.array(queries[2][1], dtype=np.float32)
        bad[0] = np.inf
        results, _, errors = pipe.run_batch(cfg, queries[:2] + [(queries[2][0], bad)])
        assert [r.query_id for r in results] == [q for q, _ in queries[:2]]
        assert isinstance(errors[queries[2][0]], NumericError)

    def test_duplicate_query_ids_rejected(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        repeated = (queries[0][0], queries[1][1])
        with pytest.raises(DuplicateId, match=f"query id {queries[0][0]} "):
            pipe.run_batch(cfg, queries[:3] + [repeated], gold_by_query=golds)

    def test_final_scorer_nan_is_ignored(self, world):
        """A NaN final score never wins over finite ones."""
        data, pipe, golds, queries = world

        def scorer(query_id, query, candidate_ids, rows):
            return [float("nan")] + [0.5] * (len(candidate_ids) - 1)

        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="intermediate",
                             final_scorer=scorer)
        for qid, q in queries[:5]:
            result = pipe.run_query(cfg, qid, q)
            assert result.top1_id == min(result.reranked.ids[1:].tolist())

    def test_final_scorer_tie_goes_to_lowest_id(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="intermediate",
                             final_scorer=lambda qid, q, ids, rows: [0.5] * len(ids))
        for qid, q in queries[:5]:
            result = pipe.run_query(cfg, qid, q)
            assert result.top1_id == min(result.reranked.ids.tolist())

    def test_all_nan_final_scores_reported_as_error(self, world):
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="intermediate",
                             final_scorer=lambda qid, q, ids, rows: np.full(len(ids), np.nan))
        results, _, errors = pipe.run_batch(cfg, queries[:2])
        assert results == []
        assert all(isinstance(errors[q], NumericError) for q, _ in queries[:2])

    def test_programming_error_propagates(self, world):
        """Only data errors are collected per query; a bug ends the batch."""
        data, pipe, golds, queries = world

        def broken_scorer(query_id, query, candidate_ids, rows):
            raise TypeError("scorer bug")

        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="intermediate",
                             final_scorer=broken_scorer)
        for threads in (1, 2):
            with pytest.raises(TypeError, match="scorer bug"):
                pipe.run_batch(cfg, queries[:3], threads=threads)

    def test_final_scorer_called_once_per_query(self, world):
        """One call per query, with the encoded query and the K' survivors'
        ids and rows in reranked order."""
        data, pipe, golds, queries = world
        calls = []

        def scorer(query_id, query, candidate_ids, rows):
            calls.append((query_id, query, candidate_ids, rows))
            return np.zeros(len(candidate_ids))

        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="intermediate",
                             final_scorer=scorer)
        results, _, errors = pipe.run_batch(cfg, queries[:6])
        assert not errors
        assert [c[0] for c in calls] == [q for q, _ in queries[:6]]
        for (qid, query, ids, rows), r, (_, q) in zip(calls, results, queries):
            assert query.dtype == np.float32 and np.array_equal(query, q)
            assert ids.dtype == np.uint64 and ids.tolist() == r.reranked.ids.tolist()
            assert rows.dtype == np.float32
            assert np.array_equal(rows, pipe.candidates.batch(ids))

    @pytest.mark.parametrize("make", [lambda n: np.zeros(n - 1), lambda n: [0.5] * (n + 1),
                                      lambda n: np.zeros((n, 1)), lambda n: 0.5],
                             ids=["short", "long", "column", "scalar"])
    def test_wrong_number_of_final_scores_ends_the_batch(self, world, make):
        """A scorer that does not return one score per candidate is a bug,
        so the ``ValueError`` propagates out of the batch."""
        data, pipe, golds, queries = world
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="intermediate",
                             final_scorer=lambda qid, q, ids, rows: make(len(ids)))
        for threads in (1, 2):
            with pytest.raises(ValueError, match="final scorer returned shape"):
                pipe.run_batch(cfg, queries[:3], threads=threads)

    def test_query_without_gold_rejected_before_any_query_runs(self, world):
        data, pipe, golds, queries = world
        calls = []
        cfg = PipelineConfig(
            k_retrieve=16, k_prime=4, mode="intermediate",
            final_scorer=lambda qid, q, ids, rows: calls.append(qid) or [0.0] * len(ids))
        missing = queries[2][0]
        partial = {q: g for q, g in golds.items() if q != missing}
        for threads in (1, 2):
            with pytest.raises(InvalidInput, match=f"query id {missing} has no gold"):
                pipe.run_batch(cfg, queries[:5], gold_by_query=partial, threads=threads)
        assert calls == []

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected_before_any_query_runs(self, world, threads):
        data, pipe, golds, queries = world
        calls = []
        cfg = PipelineConfig(
            k_retrieve=16, k_prime=4, mode="intermediate",
            final_scorer=lambda qid, q, ids, rows: calls.append(qid) or [0.0] * len(ids))
        with pytest.raises(InvalidConfig, match=f"threads must be 1 or more, got {threads}"):
            pipe.run_batch(cfg, queries[:5], threads=threads)
        assert calls == []


# With "scan", searches an index of ``blocks`` scan blocks plus 3 rows at
# dim ``dim``; with "attention", runs the attention forward over a
# sequence of ``blocks`` query-row blocks at dim ``dim``.  Prints the
# thread count before and after; with "fork", it runs once, forks, and the
# child runs and prints; with "busy", every CPU but the caller's is held
# as if by other splits.
SPLIT_SCRIPT = """
import os, sys, threading
import numpy as np
from cmcrank import parallel
from cmcrank.index import CandidateIndex, _block_rows, search_topk
from cmcrank.nn import attention
from cmcrank.reranker import CmcParams
kind, dim, blocks = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(0)
if kind == "scan":
    n = blocks * _block_rows(dim) + 3
    index = CandidateIndex(np.arange(n), rng.standard_normal((n, dim)).astype(np.float32))
    query = rng.standard_normal(dim).astype(np.float32)
    run = lambda: search_topk(index, query, 5)
else:
    x = rng.standard_normal((blocks * attention._BLOCK_ROWS, dim)).astype(np.float32)
    layer = CmcParams.init(model_dim=dim, head_count=4).layers[0]
    run = lambda: attention.multi_head_self_attention(x, layer)
if sys.argv[4:] == ["fork"]:
    run()
    if os.fork():
        sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
if sys.argv[4:] == ["busy"]:
    parallel._cpus_held = parallel.usable_cpus() - 1
before = threading.active_count()
run()
print(before, threading.active_count())
"""


def split_threads(kind: str, dim: int, blocks: int, *mode: str,
                  blas_threads: str = "1") -> tuple[int, int]:
    """Thread counts around one search or attention forward in a new
    interpreter, which must exit within the timeout: idle helpers may not
    hold it open."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas_threads)
    done = subprocess.run(
        [sys.executable, "-c", SPLIT_SCRIPT, kind, str(dim), str(blocks), *mode],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    before, after = done.stdout.split()
    return int(before), int(after)


class TestSplitScan:
    def test_threaded_batch_equals_serial_over_many_blocks(self):
        """run_batch on 2 threads returns exactly the 1-thread results over
        an index whose serial scans split (and, with more than 2 CPUs, whose
        threaded scans share the helpers)."""
        rng = np.random.default_rng(31)
        n = 2 * _block_rows(16) + 5
        ids = np.arange(n, dtype=np.uint64) * 3
        matrix = rng.standard_normal((n, 16)).astype(np.float32)
        pipe = Pipeline(CandidateIndex(ids, matrix),
                        CmcParams.init(model_dim=16, head_count=4, seed=32),
                        EmbeddingTable(ids, matrix))
        queries = [(q, v) for q, v in enumerate(rng.standard_normal((12, 16)).astype(np.float32))]
        golds = {q: int(ids[rng.integers(n)]) for q, _ in queries}
        cfg = PipelineConfig(k_retrieve=16, k_prime=4, mode="final")
        serial, m_serial, _ = pipe.run_batch(cfg, queries, gold_by_query=golds)
        threaded, m_threaded, _ = pipe.run_batch(cfg, queries, gold_by_query=golds, threads=2)
        assert m_serial == m_threaded and len(serial) == len(threaded) == 12
        for a, b in zip(serial, threaded):
            assert a.query_id == b.query_id and a.top1_id == b.top1_id
            for x, y in ((a.retrieved, b.retrieved), (a.reranked, b.reranked)):
                assert x.ids.tolist() == y.ids.tolist()
                assert x.scores.tobytes() == y.scores.tobytes()

    def test_batch_workers_leave_no_cpu_for_helpers(self, monkeypatch):
        """On two CPUs, run_batch at 2 threads holds the CPU of the worker
        that is not scanning, so no scan asks for a helper; run serially,
        every scan asks for one."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        granted, hold = [], parallel.hold_cpus

        def recorded(cpus, blocks):
            pool, helpers = hold(cpus, blocks)
            granted.append(helpers)
            return pool, helpers

        monkeypatch.setattr(parallel, "hold_cpus", recorded)
        rng = np.random.default_rng(33)
        n = 2 * _block_rows(16) + 1
        ids = np.arange(n, dtype=np.uint64)
        matrix = rng.standard_normal((n, 16)).astype(np.float32)
        pipe = Pipeline(CandidateIndex(ids, matrix),
                        CmcParams.init(model_dim=16, head_count=4, seed=34),
                        EmbeddingTable(ids, matrix))
        queries = [(q, v) for q, v in enumerate(rng.standard_normal((8, 16)).astype(np.float32))]
        cfg = PipelineConfig(k_retrieve=8, k_prime=4, mode="final")
        pipe.run_batch(cfg, queries, threads=2)
        assert granted == [0] * 8
        granted.clear()
        pipe.run_batch(cfg, queries)
        assert granted == [1] * 8

    @pytest.mark.parametrize("dim, blocks", [(64, 1), (15, 2)],
                             ids=["one-block", "dim-below-floor"])
    def test_unsplit_scan_starts_no_helper(self, dim, blocks):
        before, after = split_threads("scan", dim, blocks)
        assert after == before

    def test_multithreaded_blas_keeps_one_product(self):
        """With BLAS on two threads the one product already uses two CPUs,
        and a split on top of it was slower, so the scan stays whole."""
        before, after = split_threads("scan", 64, 2, blas_threads="2")
        assert after == before

    def test_no_helper_for_cpus_other_scans_hold(self):
        """Scans already running (run_batch workers, say) and their helpers
        hold the other CPUs, so this scan runs whole on its own thread."""
        before, after = split_threads("scan", 64, 2, "busy")
        assert after == before

    @pytest.mark.parametrize("fork", [(), ("fork",)], ids=["process", "forked-child"])
    def test_split_scan_starts_a_helper_and_exits(self, fork):
        """A forked child, which has none of its parent's helpers, starts
        its own instead of queueing blocks for threads that do not exist."""
        before, after = split_threads("scan", 64, 2, *fork)
        assert after == before + (parallel.usable_cpus() > 1)


class TestSplitAttention:
    """The served attention forward splits its query-row blocks under the
    scan's rules: the same pool, the same CPU ledger."""

    def test_batch_workers_leave_no_cpu_for_attention_helpers(self, monkeypatch):
        """On two CPUs, run_batch at 2 threads holds the CPU of the worker
        that is not in a forward, so no K = 512 forward asks for a helper;
        run serially, every forward asks for one."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "blas_single_threaded", lambda: True)
        granted, hold = [], parallel.hold_cpus

        def recorded(cpus, blocks):
            pool, helpers = hold(cpus, blocks)
            granted.append(helpers)
            return pool, helpers

        monkeypatch.setattr(parallel, "hold_cpus", recorded)
        rng = np.random.default_rng(35)
        n = 600  # one scan block: only the forwards ask for helpers
        ids = np.arange(n, dtype=np.uint64)
        matrix = rng.standard_normal((n, 16)).astype(np.float32)
        params = CmcParams.init(model_dim=16, head_count=4, seed=36)
        pipe = Pipeline(CandidateIndex(ids, matrix), params, EmbeddingTable(ids, matrix))
        queries = [(q, v) for q, v in enumerate(rng.standard_normal((6, 16)).astype(np.float32))]
        cfg = PipelineConfig(k_retrieve=512, k_prime=4, mode="final")
        threaded, _, _ = pipe.run_batch(cfg, queries, threads=2)
        assert granted == [0] * (6 * len(params.layers))
        granted.clear()
        serial, _, _ = pipe.run_batch(cfg, queries)
        assert granted == [1] * (6 * len(params.layers))
        for a, b in zip(serial, threaded):
            assert a.reranked.ids.tolist() == b.reranked.ids.tolist()
            assert a.reranked.scores.tobytes() == b.reranked.scores.tobytes()

    def test_below_the_floor_starts_no_helper(self):
        before, after = split_threads("attention", 16, SPLIT_MIN_BLOCKS - 1)
        assert after == before

    @pytest.mark.parametrize("fork", [(), ("fork",)], ids=["process", "forked-child"])
    def test_split_starts_a_helper_and_exits(self, fork):
        """At the floor a forward splits; a forked child starts its own
        helpers and exits.  A helper that finds no block left may be
        reused, so more than two CPUs may start fewer than one each."""
        before, after = split_threads("attention", 16, SPLIT_MIN_BLOCKS, *fork)
        assert (after > before) == (parallel.usable_cpus() > 1)
        assert after - before <= parallel.usable_cpus() - 1

    def test_no_helper_for_cpus_other_splits_hold(self):
        before, after = split_threads("attention", 16, SPLIT_MIN_BLOCKS, "busy")
        assert after == before


class TestStageLatency:
    def test_rerank_overhead_bounded_on_reference_corpus(self):
        """Warm-cache bound: retrieval plus reranking costs at most 1.5x
        retrieval alone (k_retrieve 512, k_prime 64, dim 64) on a corpus
        big enough that stage 1 is scan-dominated, mirroring the regime of
        million-scale knowledge bases.  Median of 5 runs, warm-up excluded."""
        rng = np.random.default_rng(99)
        n = 2_000_000
        ids = np.arange(n, dtype=np.uint64)
        matrix = rng.standard_normal((n, 64)).astype(np.float32)
        pipe = Pipeline(CandidateIndex(ids, matrix),
                        CmcParams.init(model_dim=64, head_count=4, seed=1),
                        EmbeddingTable(ids, matrix))
        cfg = PipelineConfig(k_retrieve=512, k_prime=64, mode="final")
        query = rng.standard_normal(64).astype(np.float32)
        pipe.run_query(cfg, 0, query)  # warm-up
        stage1, stage2 = [], []
        for _ in range(5):
            r = pipe.run_query(cfg, 0, query)
            stage1.append(r.timings_us["retrieve"])
            stage2.append(r.timings_us["rerank"])
        m1, m2 = np.median(stage1), np.median(stage2)
        assert (m1 + m2) <= 1.5 * m1, f"stage1 {m1:.0f}us stage2 {m2:.0f}us"


def reference_splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def reference_gold_score(gold_by_query, query_id, candidate_id):
    """The gold oracle's per-pair formula."""
    return 1.0 if gold_by_query.get(query_id) == candidate_id else 0.0


def reference_noisy_score(gold_by_query, seed, query_id, candidate_id):
    """The noisy oracle's per-pair formula."""
    if gold_by_query.get(query_id) == candidate_id:
        return 1.0
    mixed = reference_splitmix64(seed ^ reference_splitmix64(query_id)
                                 ^ reference_splitmix64(candidate_id * 0x9E3779B97F4A7C15))
    return mixed / 2.0 ** 64


ID = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63 - 2, 2**63 + 2),
               st.integers(2**64 - 3, 2**64 - 1), st.integers(0, 20))


class TestScorers:
    def test_noisy_oracle_deterministic_and_bounded(self):
        scorer = noisy_oracle_scorer({5: 77}, seed=3)
        q = np.zeros(1, dtype=np.float32)
        ids = np.array([77, 78], dtype=np.uint64)
        rows = np.zeros((2, 1), dtype=np.float32)
        gold, first = scorer(5, q, ids, rows)
        assert gold == 1.0
        assert 0.0 <= first < 1.0
        assert scorer(5, q, ids, rows)[1] == first
        assert noisy_oracle_scorer({5: 77}, seed=3)(5, q, ids[1:], rows[1:])[0] == first
        assert noisy_oracle_scorer({5: 77}, seed=4)(5, q, ids, rows)[1] != first

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), query_id=st.one_of(ID, st.integers(-2**63, -1)),
           seed=st.one_of(st.integers(-2**64, 2**64), st.integers(-3, 3)),
           ids=st.lists(ID, min_size=1, max_size=12, unique=True),
           gold_case=st.sampled_from(["in list", "not in list", "no gold"]))
    def test_oracles_equal_per_pair_formula(self, data, query_id, seed, ids, gold_case):
        """Both oracles score a whole list bit for bit as the per-pair
        formulas do, for ids at and above 2**63, negative seeds, and the
        gold in the list, outside it, or absent."""
        gold_by_query = {query_id + 1: ids[0]}
        if gold_case == "in list":
            gold_by_query[query_id] = data.draw(st.sampled_from(ids))
        elif gold_case == "not in list":
            gold_by_query[query_id] = data.draw(ID.filter(lambda g: g not in ids))
        cids = np.array(ids, dtype=np.uint64)
        q = np.zeros(3, dtype=np.float32)
        rows = np.zeros((len(ids), 3), dtype=np.float32)
        for got, want in [
                (gold_oracle_scorer(gold_by_query)(query_id, q, cids, rows),
                 [reference_gold_score(gold_by_query, query_id, c) for c in ids]),
                (noisy_oracle_scorer(gold_by_query, seed)(query_id, q, cids, rows),
                 [reference_noisy_score(gold_by_query, seed, query_id, c) for c in ids])]:
            assert np.asarray(got, dtype=np.float64).tobytes() == np.array(want).tobytes()
