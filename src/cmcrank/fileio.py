"""One checked container for every binary file, one text reader, atomic output.

Every binary file (embedding files, of which an index file is one, and
checkpoints) is a little-endian fixed header followed by a payload.  The
header starts with a 4-byte magic and a u16 format version and ends with
the CRC32 of the payload; the fields in between are the format's own.  A
format module supplies its header ``struct.Struct`` and a function giving
the exact payload size from those fields.  :func:`read_checked` checks the
magic, the version and the file size before touching the payload, then
maps the file read-only and streams the checksum over the map.  Writers go
through :func:`atomic_write` so a crash never leaves a half-written file
behind.  Every text input is read by :func:`text_records`.
"""
from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .errors import FormatError

CHUNK_BYTES = 4 << 20


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


def text_records(path: str | Path) -> Iterator[tuple[str, str]]:
    """``("path:line", stripped line)`` per UTF-8 line not blank or a ``#``
    comment; a line that is not UTF-8 raises ``FormatError`` naming it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: not UTF-8 (byte "
                                  f"{raw[exc.start]:#04x} at column {exc.start + 1})") from None
            if (line := line.strip()) and not line.startswith("#"):
                yield f"{path}:{lineno}", line


def write_checked(path: str | Path, header: struct.Struct, magic: bytes,
                  version: int, fields: Sequence[int], chunks: Sequence) -> None:
    """Write ``header`` (magic, version, fields, CRC32 of the chunks) and
    then the chunks, which are contiguous buffers written without a copy."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    atomic_write(path, header.pack(magic, version, *fields, crc), *chunks)


def read_checked(path: str | Path, header: struct.Struct, magic: bytes,
                 version: int, payload_bytes: Callable[..., int]):
    """Map a file written by :func:`write_checked` read-only and verify it.

    ``payload_bytes(*fields)`` gives the exact payload size for the header
    fields between the version and the CRC; it may raise ``FormatError``
    for fields that contradict each other.  Every ``FormatError`` raised
    here starts with ``path``.  Returns ``(fields, map)``.
    """
    kind = magic.decode()
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if raw[:4] != magic:
            raise FormatError(f"{path}: bad magic: expected {magic!r}, got {raw[:4]!r}")
        got = int.from_bytes(raw[4:6], "little")
        if len(raw) >= 6 and got != version:
            raise FormatError(f"{path}: unsupported {kind} version {got}; "
                              "regenerate the file")
        if len(raw) != header.size:
            raise FormatError(f"{path}: truncated {kind} header: "
                              f"{len(raw)} of {header.size} bytes")
        _, _, *fields, stored_crc = header.unpack(raw)
        try:
            expected = header.size + payload_bytes(*fields)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatError(f"{path}: {kind} file is {size} bytes, expected {expected} "
                              f"for header fields {tuple(fields)}")
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    crc = 0
    with memoryview(buf) as view:
        for lo in range(header.size, size, CHUNK_BYTES):
            crc = zlib.crc32(view[lo:lo + CHUNK_BYTES], crc)
    if crc != stored_crc:
        raise FormatError(f"{path}: {kind} file checksum mismatch (corrupt payload)")
    return tuple(fields), buf
