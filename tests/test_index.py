"""Candidate index: exactness against a full-scan oracle, persistence."""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cmcrank import index as index_module
from cmcrank import parallel
from cmcrank.encoders import (HEADER_BYTES, load_embedding_file,
                              save_embedding_file)
from cmcrank.errors import (DuplicateId, FormatError, InvalidInput, InvalidShape,
                            NumericError)
from cmcrank.index import (SPLIT_MIN_DIM, CandidateIndex, _block_rows, build_index,
                           open_index, rank_by_score, search_topk)


def naive_topk(ids, matrix, query, k):
    """Full-scan oracle: score everything, sort by (-score, id), cut at k."""
    scores = [float(np.dot(row, query)) for row in matrix]
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(int(ids[i]), scores[i]) for i in order[:k]]


class TestBuild:
    def test_empty_index_is_searchable(self, tmp_path):
        index = build_index([], np.empty((0, 4), dtype=np.float32),
                            tmp_path / "empty.cmci")
        result = search_topk(index, np.zeros(4, dtype=np.float32), 5)
        assert len(result) == 0
        reopened = open_index(tmp_path / "empty.cmci")
        assert len(reopened) == 0 and reopened.dim == 4

    def test_single_candidate_file_size(self, tmp_path):
        path = tmp_path / "one.cmci"
        build_index([42], np.ones((1, 3), dtype=np.float32), path)
        assert path.stat().st_size == HEADER_BYTES + 8 + 3 * 4

    def test_payload_bytes_per_candidate(self, tmp_path):
        """Single-vector storage: matrix region is exactly count*dim*4 bytes."""
        rng = np.random.default_rng(0)
        for count, dim in ((5, 8), (17, 64)):
            path = tmp_path / f"idx_{count}.cmci"
            build_index(np.arange(count), rng.standard_normal(
                (count, dim)).astype(np.float32), path)
            assert path.stat().st_size == HEADER_BYTES + count * 8 + count * dim * 4

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ids = rng.choice(10 ** 9, size=10_000, replace=False)
        matrix = rng.standard_normal((10_000, 64)).astype(np.float32)
        path = tmp_path / "big.cmci"
        built = build_index(ids, matrix, path)
        reopened = open_index(path)
        assert reopened.ids.tolist() == built.ids.tolist()
        assert np.asarray(reopened.matrix).tobytes() == built.matrix.tobytes()

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(DuplicateId):
            build_index([1, 1], np.zeros((2, 2), dtype=np.float32),
                        tmp_path / "dup.cmci")

    def test_dim_mismatch_rejected(self, tmp_path):
        with pytest.raises(InvalidShape):
            build_index([1], np.zeros(3, dtype=np.float32), tmp_path / "bad.cmci")


class TestOpen:
    def test_open_matches_in_memory_search(self, tmp_path):
        rng = np.random.default_rng(2)
        ids = np.arange(200)
        matrix = rng.standard_normal((200, 16)).astype(np.float32)
        built = build_index(ids, matrix, tmp_path / "idx.cmci")
        reopened = open_index(tmp_path / "idx.cmci")
        for _ in range(10):
            q = rng.standard_normal(16).astype(np.float32)
            a = search_topk(built, q, 7)
            b = search_topk(reopened, q, 7)
            assert a.ids.tolist() == b.ids.tolist()
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_tampered_payload_detected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "tamper.cmci"
        build_index(np.arange(50),
                    rng.standard_normal((50, 8)).astype(np.float32), path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            open_index(path)

    def test_opened_matrix_is_read_only(self, tmp_path):
        path = tmp_path / "ro.cmci"
        build_index([1, 2], np.ones((2, 2), dtype=np.float32), path)
        index = open_index(path)
        with pytest.raises((ValueError, RuntimeError)):
            index.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("count", [1, 3, 5, 7, 100])
    def test_mapped_regions_are_aligned(self, tmp_path, count):
        """Any id count leaves the float32 matrix aligned in the map."""
        path = tmp_path / f"al_{count}.cmci"
        build_index(np.arange(count), np.ones((count, 3), dtype=np.float32), path)
        ids, matrix = load_embedding_file(path)
        for arr in (ids, matrix, open_index(path).matrix):
            assert arr.flags.aligned and arr.ctypes.data % 8 == 0

    def test_unsorted_embedding_file_opens_as_index(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = rng.permutation(300) * 7 + 1
        matrix = rng.standard_normal((300, 8)).astype(np.float32)
        path = tmp_path / "unsorted.cmce"
        save_embedding_file(path, ids, matrix)
        reopened = open_index(path)
        in_memory = CandidateIndex(ids, matrix)
        for q in rng.standard_normal((10, 8)).astype(np.float32):
            a, b = search_topk(in_memory, q, 9), search_topk(reopened, q, 9)
            assert a.ids.tolist() == b.ids.tolist()
            np.testing.assert_array_equal(a.scores, b.scores)

    @settings(max_examples=50, deadline=None)
    @given(ids=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                        max_size=200, unique=True),
           dim=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_round_trip_property(self, tmp_path_factory, ids, dim, seed):
        """save -> load keeps the file order; open_index sorts by id;
        both are bit-exact."""
        ids = np.array(ids, dtype=np.uint64)
        matrix = np.random.default_rng(seed).standard_normal(
            (len(ids), dim)).astype(np.float32)
        path = tmp_path_factory.mktemp("prop") / "rt.cmce"
        save_embedding_file(path, ids, matrix)
        loaded_ids, loaded = load_embedding_file(path)
        assert loaded_ids.tolist() == ids.tolist()
        assert loaded.shape == (len(ids), dim)
        assert loaded.tobytes() == matrix.tobytes()
        index = open_index(path)
        order = np.argsort(ids)
        assert index.ids.tolist() == ids[order].tolist()
        assert np.asarray(index.matrix).tobytes() == matrix[order].tobytes()

    def test_concurrent_readers_identical(self, tmp_path):
        """Two independently opened readers, searched from a thread pool,
        agree with each other and with serial execution."""
        rng = np.random.default_rng(4)
        path = tmp_path / "conc.cmci"
        build_index(np.arange(500),
                    rng.standard_normal((500, 32)).astype(np.float32), path)
        readers = [open_index(path), open_index(path)]
        queries = rng.standard_normal((40, 32)).astype(np.float32)

        def run(job):
            reader, q = job
            result = search_topk(reader, q, 10)
            return result.ids.tolist(), result.scores.tolist()

        serial = [run((readers[0], q)) for q in queries]
        for reader in readers:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, ((reader, q) for q in queries)))
            assert serial == threaded


class TestSearch:
    def test_unit_vector_ranks_first(self):
        basis = np.eye(5, dtype=np.float32)
        index = CandidateIndex(np.arange(5), basis)
        result = search_topk(index, basis[3], 2)
        assert int(result.ids[0]) == 3
        assert result.scores[0] == pytest.approx(1.0)

    def test_k_zero_empty(self):
        index = CandidateIndex([1], np.ones((1, 2), dtype=np.float32))
        assert len(search_topk(index, np.ones(2, dtype=np.float32), 0)) == 0

    def test_negative_k_rejected(self):
        """Exactly ``min(k, n)`` entries or an error: k = -1 raises in
        both, and k = 0 gives no entries."""
        index = CandidateIndex([1, 2], np.eye(2, dtype=np.float32))
        query = np.ones(2, dtype=np.float32)
        with pytest.raises(InvalidShape, match="nonnegative"):
            search_topk(index, query, -1)
        with pytest.raises(InvalidShape, match="nonnegative"):
            rank_by_score(index.ids, [0.5, 0.25], -1)
        assert len(rank_by_score(index.ids, [0.5, 0.25], 0)) == 0
        assert len(search_topk(index, query, 0)) == 0

    @pytest.mark.parametrize("k", [3.0, 1.5, "3", None])
    def test_non_integer_k_rejected(self, k):
        index = CandidateIndex([1, 2], np.eye(2, dtype=np.float32))
        with pytest.raises(InvalidShape, match="integer"):
            search_topk(index, np.ones(2, dtype=np.float32), k)
        with pytest.raises(InvalidShape, match="integer"):
            rank_by_score(index.ids, [0.5, 0.25], k)

    @pytest.mark.parametrize("ids", [np.array([-1, 5]), [-1, 5], [0.5, 5]])
    def test_bad_ids_rejected_not_wrapped(self, ids):
        """Ids are validated like every other id: -1 is not 2**64 - 1."""
        with pytest.raises(InvalidInput, match="candidate id"):
            rank_by_score(ids, np.array([1.0, 0.5]), 2)

    @pytest.mark.parametrize("id_shape, score_shape", [
        ((10,), (5,)), ((5,), (10,)), ((8,), (4, 2)), ((4,), (4, 1)),
        ((0,), (1,)), ((4, 2), (4, 2))])
    def test_ids_and_scores_of_different_shapes_rejected(self, id_shape, score_shape):
        """Scores must pair one for one with 1-D ids: extra ids are not
        silently dropped, and no numpy error escapes in place of ``InvalidShape``."""
        ids = np.arange(np.prod(id_shape)).reshape(id_shape)
        scores = np.arange(np.prod(score_shape), dtype=np.float32).reshape(score_shape)
        with pytest.raises(InvalidShape, match="scores"):
            rank_by_score(ids, scores, 3)

    def test_k_exceeding_count_returns_all(self):
        rng = np.random.default_rng(5)
        index = CandidateIndex(np.arange(7),
                               rng.standard_normal((7, 3)).astype(np.float32))
        result = search_topk(index, rng.standard_normal(3).astype(np.float32), 99)
        assert len(result) == 7

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(6)
        ids = rng.choice(10 ** 6, size=1000, replace=False)
        matrix = rng.standard_normal((1000, 64)).astype(np.float32)
        index = CandidateIndex(ids, matrix)
        q = rng.standard_normal(64).astype(np.float32)
        got = search_topk(index, q, 64)
        expected = naive_topk(index.ids, np.asarray(index.matrix), q, 64)
        assert got.ids.tolist() == [i for i, _ in expected]
        np.testing.assert_allclose(got.scores, [s for _, s in expected], rtol=1e-6)

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(7)
        index = CandidateIndex(np.arange(100),
                               rng.standard_normal((100, 8)).astype(np.float32))
        q = rng.standard_normal(8).astype(np.float32)
        for k in range(1, 30):
            small = search_topk(index, q, k).ids.tolist()
            large = search_topk(index, q, k + 1).ids.tolist()
            assert large[:k] == small

    def test_ties_break_by_ascending_id(self):
        matrix = np.ones((6, 2), dtype=np.float32)
        index = CandidateIndex([9, 3, 7, 1, 5, 2], matrix)
        result = search_topk(index, np.ones(2, dtype=np.float32), 4)
        assert result.ids.tolist() == [1, 2, 3, 5]

    def test_nan_scores_raise_instead_of_truncating(self):
        """rank_by_score returns exactly min(k, n) entries or raises."""
        ids = np.arange(5)
        scores = np.array([np.nan, np.nan, np.nan, 1.0, 2.0], dtype=np.float32)
        with pytest.raises(NumericError):
            rank_by_score(ids, scores, 3)
        assert rank_by_score(ids, scores, 2).ids.tolist() == [4, 3]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           ids=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                        unique=True, max_size=40),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_exact_topk_under_ties_property(self, data, ids, dtype):
        """Dense ties and NaNs: exactly min(k, n) entries in (score desc,
        id asc) order over the comparable scores, or NumericError."""
        n = len(ids)
        scores = np.array(data.draw(st.lists(
            st.sampled_from([-1.0, 0.0, 0.5, 2.0, np.nan]), min_size=n, max_size=n)),
            dtype=dtype)
        k = data.draw(st.integers(min_value=0, max_value=n + 3))
        ids = np.array(ids, dtype=np.uint64)
        finite = ~np.isnan(scores)
        order = np.lexsort((ids[finite], -scores[finite].astype(np.float64)))
        expected = ids[finite][order][:k]
        if len(expected) < min(k, n):
            with pytest.raises(NumericError):
                rank_by_score(ids, scores, k)
            return
        result = rank_by_score(ids, scores, k)
        assert result.ids.tolist() == expected.tolist()
        assert np.array_equal(result.scores, scores[finite][order][:k].astype(np.float32))

    def test_nan_scores_raise_when_every_entry_is_kept(self):
        """k >= n keeps no NaN entry either."""
        scores = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(NumericError):
            rank_by_score(np.arange(2), scores, 2)

    def test_dim_mismatch(self):
        index = CandidateIndex([1], np.ones((1, 2), dtype=np.float32))
        with pytest.raises(InvalidShape):
            search_topk(index, np.ones(3, dtype=np.float32), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_rejected_before_any_scan(self, monkeypatch, bad):
        """A NaN or infinite query entry is a NumericError up front, not
        NaN scores (or, in part, silently wrong ones) from the scan."""
        monkeypatch.setattr(index_module, "_scan", lambda *args: pytest.fail("scanned"))
        index = CandidateIndex(np.arange(3), np.eye(3, dtype=np.float32))
        with pytest.raises(NumericError, match="query"):
            search_topk(index, np.array([1.0, bad, 0.0], dtype=np.float32), 2)


SPLIT_DIMS = list(range(1, 25)) + [32, 48, 64, 65, 128]
# n one row below, at and one row above the edge of two or three blocks,
# or past that edge by a multiple of 4 rows and 1 to 3 more.
EDGES = ("below", "at", "above", "odd")


def search_split_and_whole(index, query, k, rows=None):
    """``search_topk`` with the scan forced to split (two CPUs, one BLAS
    thread; blocks of ``rows`` rows if given) and forced to one product
    (one CPU), after checking that the split selected per block."""
    results, selected = [], []
    select = index_module._block_top
    for cpus in (2, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "usable_cpus", lambda: cpus)
            mp.setattr(parallel, "blas_single_threaded", lambda: True)
            mp.setattr(index_module, "_block_top",
                       lambda *args: selected.append(cpus) or select(*args))
            if rows is not None:
                mp.setattr(index_module, "_block_rows", lambda dim: rows)
            try:
                results.append(search_topk(index, query, k))
            except NumericError as exc:
                results.append(exc)
    assert set(selected) == {2}
    return results


def assert_exact_and_deterministic(index, query, k, rows=None):
    """Split and whole scans give the float64 lexsort's top k over
    ``matrix @ query``, ids and score bytes alike."""
    scores = index.matrix @ query
    order = np.lexsort((index.ids, -scores.astype(np.float64)))[:k]
    for got in search_split_and_whole(index, query, k, rows):
        assert got.ids.tolist() == index.ids[order].tolist()
        assert got.scores.tobytes() == scores[order].tobytes()


def tied_case(rng, n, dim, rows, values, block):
    """A matrix and query whose scores tie across blocks: ``values`` is
    "normal", "integer" (entries in -2..2, so scores are exact and tie in
    bulk) or "zero-query" (integer rows, every score 0).  Block ``block``
    holds a group of copies of one top-scoring row at random positions,
    which a k below the group's size cuts through, and rows are copied
    onto both sides of every block edge."""
    draw = rng.standard_normal if values == "normal" else (
        lambda shape: rng.integers(-2, 3, size=shape))
    matrix, query = draw((n, dim)).astype(np.float32), draw(dim).astype(np.float32)
    if values == "zero-query":
        query[:] = 0
    lo = rows * block
    hi = n if lo + 2 * rows > n else lo + rows
    group = rng.choice(np.arange(lo, hi), size=int(rng.integers(1, hi - lo + 1)), replace=False)
    matrix[group] = 4 * query if values == "normal" else 2 * np.sign(query)
    for edge in range(rows, n - rows + 1, rows):
        for row in rng.choice(n, size=2, replace=False):
            matrix[edge - 1:edge + 1] = matrix[row]
    return matrix, query


VALUES = ("normal", "integer", "zero-query")


class TestBlockSelect:
    """Each scan block keeps its own top k; the survivors are ranked once."""

    @pytest.mark.parametrize("scores, k, bound, kept, next_bound", [
        ([3, 1, 2, 2, 0], 2, None, [0, 2, 3], 2),
        ([2, 2, 2, 2, 2], 3, None, [0, 1, 2, 3, 4], 2),
        ([1, 2, 3], 3, None, [0, 1, 2], None),
        ([np.nan, 5, np.nan, 4], 3, None, [0, 1, 2, 3], None),
        ([0, 1, 5, 1, 1], 2, 1, [1, 2, 3, 4], 1),
        ([0, 0, 0, 0, 0, 0], 2, 0, [0, 1, 2, 3, 4, 5], 0),
        ([0, 4, 1, 3, 3, 3], 2, 1, [1, 3, 4, 5], 3),
        ([0, 1, np.nan, 2], 5, 1, [1, 3], 1)],
        ids=["ties-at-kth", "all-tied", "k-at-length", "nan-kth",
             "few-candidates", "all-tied-under-bound", "bound-raised", "nan-under-bound"])
    def test_keeps_every_row_tied_with_the_cut(self, scores, k, bound, kept, next_bound):
        """One block's select, without a bound (a thread's first block)
        and under one: rows tied with the cut are kept, a NaN k-th keeps
        the block, and rows under the bound are not candidates."""
        scores = np.array(scores, dtype=np.float32)
        keep, got = index_module._block_top(scores, np.empty_like(scores), k,
                                            None if bound is None else np.float32(bound))
        assert keep.tolist() == kept
        assert got == next_bound

    # Without the shrink phase a failure reports in seconds, not minutes.
    @settings(max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(data=st.data())
    def test_exact_and_deterministic_across_block_edges(self, data):
        """Small blocks (any multiple of 4 rows) and every k from 0 to n."""
        rows = 4 * data.draw(st.integers(min_value=1, max_value=6), label="rows / 4")
        n = data.draw(st.integers(min_value=2 * rows, max_value=5 * rows + 3), label="n")
        dim = data.draw(st.sampled_from([SPLIT_MIN_DIM, 17, 31, 64]), label="dim")
        values = data.draw(st.sampled_from(VALUES), label="values")
        block = data.draw(st.integers(min_value=0, max_value=n // rows - 1), label="block")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        matrix, query = tied_case(rng, n, dim, rows, values, block)
        index = CandidateIndex(rng.choice(10 ** 6, size=n, replace=False), matrix)
        k = data.draw(st.integers(min_value=0, max_value=n), label="k")
        assert_exact_and_deterministic(index, query, k, rows)

    @pytest.mark.parametrize("block", [0, 2], ids=["group-in-first-block", "group-in-last"])
    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("k", [1, 32, 512])
    def test_exact_and_deterministic_at_the_real_block_size(self, values, k, block):
        """Three blocks: the last is a later block of the thread that
        claims it, so it is selected under that thread's bound."""
        rng = np.random.default_rng(k)
        rows = _block_rows(64)
        n = 3 * rows + 7
        matrix, query = tied_case(rng, n, 64, rows, values, block)
        index = CandidateIndex(np.cumsum(rng.integers(1, 4, size=n)), matrix)
        assert_exact_and_deterministic(index, query, k)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("block", [0, 2])
    def test_overflow_in_one_block_equals_ranking_every_score(self, block):
        """A finite index whose products overflow in one block only (six
        NaN scores, one +inf and one -inf), the first block a thread
        scans or a later one: for every k the split scan returns what
        ranking every score returns, and raises NumericError exactly
        when that does."""
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((35, 16)).astype(np.float32)
        big, lo = np.float32(3e38), 8 * block
        matrix[lo:lo + 8] = 0
        matrix[lo:lo + 6, :2] = (big, -big)
        matrix[lo + 6, :2] = (big, big)
        matrix[lo + 7, :2] = (-big, -big)
        index = CandidateIndex(np.arange(35) * 5, matrix)
        query = np.full(16, 2, dtype=np.float32)
        scores = index.matrix @ query
        assert np.isnan(scores[lo:lo + 6]).all()
        assert scores[lo + 6] == np.inf and scores[lo + 7] == -np.inf
        for k in range(len(index) + 1):
            try:
                expected = rank_by_score(index.ids, scores, k)
            except NumericError:
                expected = None
            for got in search_split_and_whole(index, query, k, rows=8):
                if expected is None:
                    assert isinstance(got, NumericError), k
                else:
                    assert got.ids.tolist() == expected.ids.tolist(), k
                    assert got.scores.tobytes() == expected.scores.tobytes(), k


class TestSplitScan:
    """Scans of two row blocks or more, on both sides of every block edge."""

    @pytest.mark.parametrize("dim, edge", [(dim, EDGES[i % 4]) for i, dim in enumerate(SPLIT_DIMS)])
    def test_equals_one_product_bit_for_bit(self, tmp_path, dim, edge):
        """Every score has the bits of ``matrix @ q``, in memory and in a
        map only 8-byte aligned, and the order is the float64 lexsort's.
        Where the scan splits, k = n checks every row, so no block may
        leave a row unwritten."""
        rng = np.random.default_rng(1000 + dim)
        rows = _block_rows(dim)
        assert rows % 4 == 0
        n = int(rng.integers(2, 4)) * rows + {
            "below": -1, "at": 0, "above": 1,
            "odd": 4 * int(rng.integers(0, rows // 4)) + int(rng.integers(1, 4))}[edge]
        ids = np.cumsum(rng.integers(1, 4, size=n))
        built = build_index(ids, rng.standard_normal((n, dim)).astype(np.float32),
                            tmp_path / "split.cmci")
        mapped = open_index(tmp_path / "split.cmci")
        assert mapped.matrix.ctypes.data % 8 == 0
        q = rng.standard_normal(dim).astype(np.float32)
        scores = built.matrix @ q
        k = n if dim >= SPLIT_MIN_DIM else 128
        order = np.lexsort((built.ids, -scores.astype(np.float64)))[:k]
        for index in (built, mapped):
            got = search_topk(index, q, k)
            assert got.ids.tolist() == built.ids[order].tolist()
            assert got.scores.tobytes() == scores[order].tobytes()

    def test_concurrent_split_scans_equal_serial(self):
        """More scanning threads than CPUs, switching every microsecond and
        sharing the helpers, each get every score of their serial scan."""
        rng = np.random.default_rng(7)
        n = 2 * _block_rows(16) + 3
        index = CandidateIndex(np.arange(n), rng.standard_normal((n, 16)).astype(np.float32))
        queries = rng.standard_normal((8, 16)).astype(np.float32)
        serial = [search_topk(index, q, n) for q in queries]
        interval = sys.getswitchinterval()
        pool = ThreadPoolExecutor(max_workers=4)
        sys.setswitchinterval(1e-6)
        try:
            futures = [pool.submit(search_topk, index, q, n) for q in queries]
            threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False, cancel_futures=True)
        for a, b in zip(serial, threaded):
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.scores.tobytes() == b.scores.tobytes()
