"""Checkpoint file format (CMCP v2): round-trips and corruption handling."""
import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from cmcrank.errors import FormatError, InvalidConfig, InvalidShape, NumericError
from cmcrank.fileio import write_checked
from cmcrank.nn import OptimizerState, adamw_step
from cmcrank.reranker import CmcParams
from test_gradcheck import params_as_float64

# magic, version, extra_skip, model_dim, ffn_dim, head_count, crc32
HEADER = struct.Struct("<4sHHIIII")


def saved(tmp_path, name="model.cmcp", **init):
    init = {"model_dim": 8, "head_count": 2, "seed": 4, **init}
    path = tmp_path / name
    CmcParams.init(**init).save(path)
    return path


def assert_packed(params):
    """Every field is the next consecutive view of ``params.flat``."""
    assert params.flat.flags.c_contiguous and params.flat.ndim == 1
    at = 0
    for name, arr in params.arrays().items():
        assert arr.ctypes.data == params.flat[at:].ctypes.data, name
        at += arr.size
    assert at == params.flat.size


def patch_header(path, **changes):
    """Rewrite header fields in place; the CRC covers only the payload."""
    raw = path.read_bytes()
    names = ("magic", "version", "extra_skip", "model_dim", "ffn_dim",
             "head_count", "crc")
    fields = dict(zip(names, HEADER.unpack_from(raw)))
    fields.update(changes)
    path.write_bytes(HEADER.pack(*fields.values()) + raw[HEADER.size:])


def assert_same_weights(a, b):
    assert [l.head_count for l in a.layers] == [l.head_count for l in b.layers]
    assert list(a.arrays()) == list(b.arrays())
    for name, arr in a.arrays().items():
        assert b.arrays()[name].shape == arr.shape
        assert b.arrays()[name].tobytes() == arr.tobytes()


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        params = CmcParams.init(model_dim=12, head_count=3, ffn_dim=20, seed=0)
        path = tmp_path / "test.cmcp"
        params.save(path)
        assert HEADER.unpack_from(path.read_bytes())[1:6] == (2, 1, 12, 20, 3)
        assert_same_weights(params, CmcParams.load(path))

    def test_reserialization_is_byte_identical(self, tmp_path):
        first = saved(tmp_path, "first.cmcp", seed=1)
        second = tmp_path / "second.cmcp"
        CmcParams.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_layout_is_header_then_float32_arrays(self, tmp_path):
        params = CmcParams.init(model_dim=8, head_count=2, ffn_dim=12, seed=2)
        path = tmp_path / "layout.cmcp"
        params.save(path)
        raw = path.read_bytes()
        payload = b"".join(a.astype("<f4").tobytes() for a in params.arrays().values())
        assert HEADER.unpack_from(raw)[:6] == (b"CMCP", 2, 1, 8, 12, 2)
        assert raw[HEADER.size:] == payload
        assert raw[HEADER.size:] == params.flat.astype("<f4").tobytes()

    def test_bad_magic(self, tmp_path):
        path = saved(tmp_path)
        patch_header(path, magic=b"XXXX")
        with pytest.raises(FormatError, match="magic"):
            CmcParams.load(path)

    def test_bad_version(self, tmp_path):
        path = saved(tmp_path)
        patch_header(path, version=99)
        with pytest.raises(FormatError, match="version 99"):
            CmcParams.load(path)

    def test_version_1_rejected(self, tmp_path):
        """The named-buffer layout must be regenerated, not misread."""
        path = tmp_path / "v1.cmcp"
        path.write_bytes(b"CMCP" + struct.pack("<HIH", 1, 1, 1) + b"w"
                         + bytes([1]) + struct.pack("<I", 2)
                         + np.ones(2, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="regenerate"):
            CmcParams.load(path)

    @pytest.mark.parametrize("size", [4, 5])
    def test_header_cut_before_the_version(self, tmp_path, size):
        path = tmp_path / "short.cmcp"
        path.write_bytes(b"CMCP\x02"[:size])
        with pytest.raises(FormatError,
                           match=f"truncated CMCP header: {size} of {HEADER.size} bytes"):
            CmcParams.load(path)

    def test_truncated_payload(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            CmcParams.load(path)

    def test_trailing_garbage(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            CmcParams.load(path)

    def test_payload_byte_flip_detected(self, tmp_path):
        path = saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[HEADER.size + 4 * 200 + 1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum"):
            CmcParams.load(path)

    def test_nan_weight_rejected(self, tmp_path):
        """A NaN payload with a valid CRC (``save`` refuses to write one)."""
        params = CmcParams.init(model_dim=8, head_count=2, seed=5)
        params.layers[1].w_1[2, 3] = np.nan
        path = tmp_path / "nan.cmcp"
        write_checked(path, HEADER, b"CMCP", 2,
                      (1, params.model_dim, params.ffn_dim, params.head_count),
                      [np.ascontiguousarray(a, dtype="<f4")
                       for a in params.arrays().values()])
        with pytest.raises(NumericError, match="layers.1.w_1"):
            CmcParams.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_nonfinite_weight(self, tmp_path, bad):
        path = saved(tmp_path)
        before = path.read_bytes()
        params = CmcParams.init(model_dim=8, head_count=2, seed=5)
        params.layers[0].ln2_bias[1] = bad
        with pytest.raises(NumericError, match="layers.0.ln2_bias"):
            params.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize("changes", [
        {"head_count": 0}, {"extra_skip": 2}, {"extra_skip": 0}, {"head_count": 3},
        {"model_dim": 0, "head_count": 1}, {"ffn_dim": 0},
    ])
    def test_inconsistent_header_rejected(self, tmp_path, changes):
        path = saved(tmp_path)
        patch_header(path, **changes)
        with pytest.raises(FormatError, match="inconsistent checkpoint header"):
            CmcParams.load(path)


class TestRerankerCheckpoint:
    def test_params_round_trip(self, tmp_path):
        params = CmcParams.init(model_dim=16, head_count=4, seed=3)
        path = tmp_path / "params.cmcp"
        params.save(path)
        loaded = CmcParams.load(path)
        assert loaded.layers[0].head_count == 4
        assert_same_weights(params, loaded)

    def test_missing_buffer_rejected(self, tmp_path):
        """A payload holding only the first layer's arrays is rejected."""
        path = saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:HEADER.size + (len(raw) - HEADER.size) // 2])
        with pytest.raises(FormatError):
            CmcParams.load(path)

    def test_loaded_arrays_are_writable_and_train(self, tmp_path):
        loaded = CmcParams.load(saved(tmp_path))
        arrays = loaded.arrays()
        assert all(a.flags.writeable for a in arrays.values())
        before = loaded.copy().arrays()
        # Two steps of a 2-step schedule: the first is warmup step 0.
        state = OptimizerState(learning_rate=1e-3, total_steps=2)
        for _ in range(2):
            adamw_step(loaded.flat, np.ones_like(loaded.flat), state)
        assert all(not np.array_equal(before[n], a) for n, a in arrays.items())


    def test_every_constructor_packs_into_flat(self, tmp_path):
        """``init``, ``copy``, ``load`` and the float64 conversion all give
        fields that are consecutive views of ``flat``; a copy's ``flat`` is
        its own."""
        params = CmcParams.init(model_dim=8, head_count=2, ffn_dim=12, seed=6)
        path = tmp_path / "flat.cmcp"
        params.save(path)
        copied, loaded = params.copy(), CmcParams.load(path)
        wide = params_as_float64(params)
        for p in (params, copied, loaded, wide):
            assert_packed(p)
        assert wide.flat.dtype == np.float64
        assert not np.shares_memory(copied.flat, params.flat)
        assert not np.shares_memory(wide.flat, params.flat)
        assert copied.flat.tobytes() == params.flat.tobytes()

    def test_construction_checks_the_dims_and_flat(self):
        """Dims that describe no model raise ``InvalidConfig``; a ``flat``
        of the wrong length, or one that views could not alias, raises
        ``InvalidShape``."""
        params = CmcParams.init(model_dim=8, head_count=2, seed=7)
        for dims in ({"head_count": 3}, {"ffn_dim": 0}, {"model_dim": 0}):
            with pytest.raises(InvalidConfig):
                dataclasses.replace(params, **dims)
        with pytest.raises(InvalidConfig):
            CmcParams.init(model_dim=-4, head_count=2)
        strided = np.zeros(2 * params.flat.size, dtype=np.float32)[::2]
        for flat in (params.flat[:-1], np.append(params.flat, 0.0), strided):
            with pytest.raises(InvalidShape):
                dataclasses.replace(params, flat=flat)

    def test_layer_fields_cannot_be_rebound(self):
        """A layer's fields stay views of ``flat``: rebinding one raises,
        while writing into it reaches ``flat``."""
        params = CmcParams.init(model_dim=8, head_count=2, seed=7)
        layer = params.layers[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.w_q = np.zeros((8, 8), dtype=np.float32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.head_count = 4
        layer.w_q[0, 0] = 5.0
        assert params.flat[0] == 5.0
        assert_packed(params)

    def test_equality_and_hashing_are_by_identity(self):
        """Comparing models or layers never compares their arrays, which
        would raise; equal weights compare through ``flat``."""
        params = CmcParams.init(model_dim=8, head_count=2, seed=7)
        twin = params.copy()
        assert params == params and params != twin
        assert params.flat.tobytes() == twin.flat.tobytes()
        layer = params.layers[0]
        assert layer == layer and layer != twin.layers[0]
        assert {layer, params.layers[1], layer} == {layer, params.layers[1]}
        assert len({params, twin}) == 2


class TestPinnedBytes:
    """SHA-256 of the initial weights and of a saved checkpoint, recorded
    once, so that a change to init or to the file format shows across
    versions, not only run to run."""

    @pytest.mark.parametrize("init, digest", [
        ({"model_dim": 64, "head_count": 4, "seed": 1},
         "a04450562c8634443cb3436ab4a0135408b9cc814151289f1c742c18a37c40d6"),
        ({"model_dim": 8, "head_count": 2, "ffn_dim": 12, "seed": 3},
         "4761290e0239c1c3483e09becc33a43ddea6b5b2c1efc49a7352cb436b4f4e06"),
        ({"model_dim": 12, "head_count": 3, "ffn_dim": 20, "seed": 0},
         "3484b906c67d419bb189ebf4480f3e58c4f98ae02ef5e5e9ebadeecb05173001"),
    ])
    def test_init_weights(self, init, digest):
        flat = CmcParams.init(**init).flat
        assert flat.dtype == np.float32
        assert hashlib.sha256(flat.tobytes()).hexdigest() == digest

    def test_checkpoint_file(self, tmp_path):
        path = tmp_path / "pinned.cmcp"
        CmcParams.init(model_dim=64, head_count=4, seed=1).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f6a9827a23bfe303c4203c98ad77335b4d3c1211060e0874c4449b22a984eaf2")
