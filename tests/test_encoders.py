"""Encoders: query shape check, the embedding file format, id lookup."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcrank.encoders import (HEADER_BYTES, EmbeddingTable, encode,
                              load_embedding_file, load_embedding_text,
                              save_embedding_file)
from cmcrank.errors import (DuplicateId, FormatError, InvalidInput,
                            InvalidShape, MissingCandidate, NumericError)
from cmcrank.index import CandidateIndex, open_index


class TestEncode:
    def test_precomputed_passthrough(self):
        v = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
        np.testing.assert_array_equal(encode(v, 4), v)

    def test_precomputed_dim_mismatch(self):
        with pytest.raises(InvalidShape):
            encode(np.zeros(5, dtype=np.float32), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_rejected(self, bad):
        with pytest.raises(NumericError):
            encode(np.array([1.0, bad, 0.0], dtype=np.float32), 3)


class TestEmbeddingFile:
    def test_empty_file_preserves_dim(self, tmp_path):
        path = tmp_path / "empty.cmce"
        save_embedding_file(path, [], np.empty((0, 3), dtype=np.float32))
        ids, matrix = load_embedding_file(path)
        assert len(ids) == 0
        assert matrix.shape == (0, 3)

    @pytest.mark.parametrize("ids, shape", [([1, 2], (2,)), ([1, 2], (3, 4)),
                                            ([], (0,))])
    def test_matrix_must_have_one_row_per_id(self, tmp_path, ids, shape):
        with pytest.raises(InvalidShape):
            save_embedding_file(tmp_path / "bad.cmce", ids,
                                np.zeros(shape, dtype=np.float32))
        assert not (tmp_path / "bad.cmce").exists()

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.cmce"
        save_embedding_file(path, [7], np.array([[1.0, 0.0]], dtype=np.float32))
        ids, matrix = load_embedding_file(path)
        assert ids.tolist() == [7]
        np.testing.assert_array_equal(matrix, [[1.0, 0.0]])

    def test_round_trip_1000_vectors_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        ids = rng.choice(10 ** 6, size=1000, replace=False)
        matrix = rng.standard_normal((1000, 24)).astype(np.float32)
        path = tmp_path / "many.cmce"
        save_embedding_file(path, ids, matrix)
        loaded_ids, loaded = load_embedding_file(path)
        assert loaded_ids.tolist() == ids.tolist()
        assert loaded.tobytes() == matrix.tobytes()

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.cmce"
        with pytest.raises(DuplicateId):
            save_embedding_file(path, [1, 1],
                                np.zeros((2, 2), dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cmce"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_embedding_file(path)

    @pytest.mark.parametrize("size", [4, 5])
    def test_header_cut_before_the_version(self, tmp_path, size):
        path = tmp_path / "short.cmce"
        path.write_bytes(b"CMCE\x02"[:size])
        with pytest.raises(FormatError,
                           match=f"truncated CMCE header: {size} of {HEADER_BYTES} bytes"):
            load_embedding_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.cmce"
        save_embedding_file(path, [1, 2], np.ones((2, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FormatError):
            load_embedding_file(path)

    def test_matrix_byte_flip_detected(self, tmp_path):
        path = tmp_path / "flip.cmce"
        save_embedding_file(path, np.arange(20), np.ones((20, 8), dtype=np.float32))
        data = bytearray(path.read_bytes())
        data[HEADER_BYTES + 20 * 8 + 37] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum"):
            load_embedding_file(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "trail.cmce"
        save_embedding_file(path, [1, 2], np.ones((2, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_embedding_file(path)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "ro.cmce"
        save_embedding_file(path, [4, 2], np.ones((2, 3), dtype=np.float32))
        ids, matrix = load_embedding_file(path)
        assert not matrix.flags.writeable and not ids.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0

    def test_version_1_and_old_index_files_rejected(self, tmp_path):
        """Files in the retired layouts must be regenerated, not misread."""
        record = struct.pack("<Q2f", 7, 1.0, 2.0)
        v1 = tmp_path / "v1.cmce"
        v1.write_bytes(b"CMCE" + struct.pack("<HIQ", 1, 2, 3) + record * 3)
        old_index = tmp_path / "v1.cmci"
        old_index.write_bytes(b"CMCI" + struct.pack("<HIQI", 1, 2, 1, 0)
                              + struct.pack("<Q2f", 7, 1.0, 2.0))
        for path in (v1, old_index):
            with pytest.raises(FormatError):
                load_embedding_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_row_rejected_on_load(self, tmp_path, bad):
        """The loader checks the container; the table built on it checks
        the rows, and names the file and the row's id."""
        path = tmp_path / "nan.cmce"
        matrix = np.ones((5, 3), dtype=np.float32)
        matrix[3, 1] = bad
        save_embedding_file(path, [10, 20, 30, 40, 50], matrix)
        assert load_embedding_file(path)[1].tobytes() == matrix.tobytes()
        for load in (EmbeddingTable.from_file, open_index):
            with pytest.raises(NumericError) as raised:
                load(path)
            assert str(raised.value) == f"{path}: embedding of candidate id 40 is not finite"

    def test_text_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1 1,2\n2 nan,0\n")
        with pytest.raises(NumericError, match="id 2 "):
            EmbeddingTable(*load_embedding_text(path))

    def test_text_import(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("# comment\n3 1.5,2.5\n9 -1,0\n")
        ids, matrix = load_embedding_text(path)
        assert ids.tolist() == [3, 9]
        np.testing.assert_allclose(matrix, [[1.5, 2.5], [-1.0, 0.0]])

    def test_text_import_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 1,2\n2 1,2,3\n")
        with pytest.raises(FormatError):
            load_embedding_text(path)

    @pytest.mark.parametrize("text, error, where", [
        ("# comment\n1 1,2\n\n2 1,2,3\n", FormatError, ":4: 3 values, expected 2"),
        ("1 1,2\n-2 3,4\n", InvalidInput, ":2: id -2 is not in [0, 2**64)"),
        ("1 1,2\n1.5 3,4\n", InvalidInput, ":2: id '1.5' is not an integer"),
        ("1 1,2\n2\n", FormatError, ":2: expected 'id values', got '2'"),
        ("1 1,x\n", FormatError, ":1: could not convert string to float"),
        ("# only a comment\n\n", FormatError, ": text embedding file has no records"),
    ])
    def test_text_import_errors_name_path_and_line(self, tmp_path, text, error, where):
        """Lines are counted in the file, comments and blank lines included."""
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_embedding_text(path)
        assert str(info.value).startswith(f"{path}{where}")

    def test_text_import_repeated_id_rejected(self, tmp_path):
        """As in the binary loader, ids must be distinct."""
        path = tmp_path / "dup.txt"
        path.write_text("1 1,2\n1 3,4\n")
        with pytest.raises(DuplicateId, match="candidate id 1 appears more than once"):
            load_embedding_text(path)


class TestEmbeddingTable:
    def test_lookup_and_batch(self):
        ids = [10, 20, 30]
        matrix = np.arange(9, dtype=np.float32).reshape(3, 3)
        table = EmbeddingTable(ids, matrix)
        np.testing.assert_array_equal(table.batch([20]), matrix[[1]])
        np.testing.assert_array_equal(table.batch([30, 10]), matrix[[2, 0]])
        assert table._rows([20]).tolist() == [1]
        with pytest.raises(MissingCandidate):
            table._rows([99])
        with pytest.raises(MissingCandidate):
            table.batch([10, 99])

    @pytest.mark.parametrize("table_type", [EmbeddingTable, CandidateIndex])
    @pytest.mark.parametrize("ids", [[10, 20, 30, 40], [40, 10, 30, 20]])
    def test_nonfinite_row_rejected_in_memory(self, table_type, ids):
        """Built in memory, sorted or reordered, a NaN row is named by its
        id; an index that took it would never return that id."""
        matrix = np.ones((4, 3), dtype=np.float32)
        matrix[2, 0] = np.nan
        with pytest.raises(NumericError, match="id 30 "):
            table_type(ids, matrix)

    @pytest.mark.parametrize("table_type", [EmbeddingTable, CandidateIndex])
    def test_ids_must_be_one_dimensional(self, tmp_path, table_type):
        """A (5, 2) id array for 5 rows is rejected where a table is built
        or a file written, while (C, K) lookups keep working."""
        ids = np.arange(10).reshape(5, 2)
        matrix = np.zeros((5, 3), dtype=np.float32)
        with pytest.raises(InvalidShape, match="1-D"):
            table_type(ids, matrix)
        with pytest.raises(InvalidShape, match="1-D"):
            save_embedding_file(tmp_path / "bad.cmce", ids, matrix)
        assert not (tmp_path / "bad.cmce").exists()
        table = table_type(ids.reshape(-1), np.zeros((10, 3), dtype=np.float32))
        assert table.batch(ids).shape == (5, 2, 3)

    def test_sorted_input_is_aliased_not_copied(self):
        matrix = np.arange(6, dtype=np.float32).reshape(3, 2)
        assert EmbeddingTable([1, 2, 3], matrix).matrix is matrix
        table = EmbeddingTable([3, 1, 2], matrix)
        assert table.ids.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(table.matrix, matrix[[1, 2, 0]])

    @pytest.mark.parametrize("table_type", [EmbeddingTable, CandidateIndex])
    def test_negative_and_non_integer_ids_rejected(self, table_type):
        matrix = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(InvalidInput):
            table_type(np.array([-1, 2]), matrix)
        with pytest.raises(InvalidInput):
            table_type([1.5, 2.0], matrix)
        table = table_type([1, 2], matrix)
        with pytest.raises(InvalidInput):
            table.batch([-1])
        assert len(table_type([], np.empty((0, 2), dtype=np.float32))) == 0

    def test_ids_above_2_pow_53_resolve_exactly(self):
        """An int64 needle would be compared in float64, where 2**53 + 1
        rounds to 2**53 and resolves to the wrong row."""
        ids = np.array([2 ** 53, 2 ** 53 + 1], dtype=np.uint64)
        table = EmbeddingTable(ids, np.array([[0.0], [1.0]], dtype=np.float32))
        assert table.batch(np.array([2 ** 53 + 1], dtype=np.int64)).tolist() == [[1.0]]
        with pytest.raises(MissingCandidate):
            table._rows([2 ** 53 + 2])

    def test_list_mixing_ids_above_2_pow_63_with_small_ones(self):
        """numpy types such a list as float64; it must still resolve exactly."""
        table = EmbeddingTable([5, 2 ** 64 - 1], np.array([[0.0], [1.0]], dtype=np.float32))
        assert table.batch([2 ** 64 - 1, 5]).tolist() == [[1.0], [0.0]]


ID_LISTS = st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                    min_size=1, max_size=40, unique=True)


class TestIdLookupProperties:
    """Every id-addressed store agrees with a dict built from its input."""

    @settings(max_examples=60, deadline=None)
    @given(ids=ID_LISTS, absent=st.integers(min_value=0, max_value=2 ** 64 - 1),
           data=st.data())
    def test_lookups_match_dict_oracle(self, ids, absent, data):
        rng = np.random.default_rng(len(ids))
        matrix = rng.standard_normal((len(ids), 3)).astype(np.float32)
        oracle = {cid: matrix[i] for i, cid in enumerate(ids)}
        query = rng.standard_normal(3).astype(np.float32)
        wanted = data.draw(st.lists(st.sampled_from(ids), max_size=20))
        needles = np.array(wanted, dtype=np.uint64)
        expected = np.array([oracle[c] for c in wanted],
                            dtype=np.float32).reshape(len(wanted), 3)
        # Neighbours of stored ids probe both sides of every binary-search step.
        probes = {absent} | {c + d for c in ids for d in (-1, 1) if 0 <= c + d < 2 ** 64}
        index = CandidateIndex(np.array(ids, dtype=np.uint64), matrix)
        for table in (EmbeddingTable(np.array(ids, dtype=np.uint64), matrix), index):
            np.testing.assert_array_equal(table.batch(needles), expected)
            for probe in probes:
                if probe in oracle:
                    np.testing.assert_array_equal(
                        table.matrix[table._rows([probe])], [oracle[probe]])
                else:
                    with pytest.raises(MissingCandidate):
                        table._rows([probe])
                    with pytest.raises(MissingCandidate):
                        table.batch(np.append(needles, np.uint64(probe)))
        np.testing.assert_array_equal(index.scores_for(query, needles), expected @ query)

    @settings(max_examples=40, deadline=None)
    @given(ids=ID_LISTS, data=st.data())
    def test_repeated_id_is_named(self, ids, data):
        repeated = data.draw(st.sampled_from(ids))
        with_dup = np.array(ids + [repeated], dtype=np.uint64)
        with_dup = with_dup[np.random.default_rng(len(ids)).permutation(len(with_dup))]
        matrix = np.zeros((len(with_dup), 2), dtype=np.float32)
        for table_type in (EmbeddingTable, CandidateIndex):
            with pytest.raises(DuplicateId, match=f"id {repeated} "):
                table_type(with_dup, matrix)
