"""Low-level helpers for the binary file formats and atomic output.

Every on-disk artifact (checkpoints and embedding files, of which an index
file is one) is little-endian and starts with a 4-byte magic plus a u16
format version.  Writers go through :func:`atomic_write` so a crash never
leaves a half-written file behind.
"""
from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO

from .errors import FormatError


def atomic_write(path: str | Path, *chunks) -> None:
    """Write the chunks (bytes or contiguous arrays, written as their
    buffers without a copy) to ``path`` via a temp file in the same
    directory."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write(path, text.encode("utf-8"))


def read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise FormatError (truncated file)."""
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}: "
                          f"wanted {n} bytes, got {len(data)}")
    return data


def expect_magic(fh: BinaryIO, magic: bytes) -> None:
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")


def read_u16(fh: BinaryIO, what: str = "u16") -> int:
    return struct.unpack("<H", read_exact(fh, 2, what))[0]


def read_u32(fh: BinaryIO, what: str = "u32") -> int:
    return struct.unpack("<I", read_exact(fh, 4, what))[0]


def pack_u16(value: int) -> bytes:
    return struct.pack("<H", value)


def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value)
