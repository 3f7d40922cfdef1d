"""Parameter checkpoint file format.

Layout (all little-endian):

    magic   4 bytes  b"CMCP"
    version u16      currently 1
    count   u32      number of named buffers
    then per buffer:
        name_len u16, name utf-8
        ndim     u8,  dims ndim x u32
        data     prod(dims) x f32

Buffers are written float32, so save -> load round-trips bit-exact.
"""
from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import FormatError
from ..fileio import (atomic_write, expect_magic, pack_u16, pack_u32,
                      read_exact, read_u16, read_u32)

MAGIC = b"CMCP"
VERSION = 1


def serialize_buffers(buffers: Mapping[str, np.ndarray]) -> bytes:
    chunks = [MAGIC, pack_u16(VERSION), pack_u32(len(buffers))]
    for name, arr in buffers.items():
        # asarray keeps 0-d buffers 0-d (ascontiguousarray would promote)
        data = np.asarray(arr, dtype="<f4", order="C")
        encoded = name.encode("utf-8")
        chunks.append(pack_u16(len(encoded)))
        chunks.append(encoded)
        chunks.append(bytes([data.ndim]))
        for dim in data.shape:
            chunks.append(pack_u32(dim))
        chunks.append(data.tobytes())
    return b"".join(chunks)


def save_checkpoint(path: str | Path, buffers: Mapping[str, np.ndarray]) -> None:
    atomic_write(path, serialize_buffers(buffers))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        expect_magic(fh, MAGIC)
        version = read_u16(fh, "version")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        count = read_u32(fh, "buffer count")
        buffers: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = read_u16(fh, "name length")
            name = read_exact(fh, name_len, "buffer name").decode("utf-8")
            if name in buffers:
                raise FormatError(f"duplicate buffer name {name!r}")
            ndim = read_exact(fh, 1, "ndim")[0]
            shape = tuple(read_u32(fh, "dim") for _ in range(ndim))
            n_values = 1
            for dim in shape:
                n_values *= dim
            raw = read_exact(fh, 4 * n_values, f"data of {name!r}")
            buffers[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after last buffer")
    return buffers
