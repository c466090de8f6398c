"""Low-level binary helpers: atomic file writes and named tensor records.

Tensor records are the on-disk unit shared by checkpoints and stats
sidecars: u32 name length, UTF-8 name, u32 rank, u32 dims, then
row-major little-endian float32 data.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A binary file does not match its declared layout."""


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write `data` to `path` via a temp file + rename, never leaving a partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def pack_tensor_record(name: str, array: np.ndarray) -> bytes:
    """Encode one named float32 tensor record."""
    arr = np.asarray(array, dtype="<f4")
    if arr.ndim:  # ascontiguousarray would promote 0-d to 1-d
        arr = np.ascontiguousarray(arr)
    name_bytes = name.encode("utf-8")
    parts = [struct.pack("<I", len(name_bytes)), name_bytes]
    parts.append(struct.pack("<I", arr.ndim))
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(arr.tobytes())
    return b"".join(parts)


def _read_exact(buf: memoryview, offset: int, count: int, what: str) -> tuple[memoryview, int]:
    if offset + count > len(buf):
        raise FormatError(f"truncated file: expected {count} bytes for {what}")
    return buf[offset : offset + count], offset + count


def unpack_tensor_records(buf: memoryview) -> dict[str, np.ndarray]:
    """Decode consecutive tensor records until the buffer is exhausted."""
    records: dict[str, np.ndarray] = {}
    offset = 0
    while offset < len(buf):
        raw, offset = _read_exact(buf, offset, 4, "record name length")
        (name_len,) = struct.unpack("<I", raw)
        raw, offset = _read_exact(buf, offset, name_len, "record name")
        try:
            name = bytes(raw).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"record name {bytes(raw)!r} is not UTF-8") from None
        raw, offset = _read_exact(buf, offset, 4, "record rank")
        (rank,) = struct.unpack("<I", raw)
        raw, offset = _read_exact(buf, offset, 4 * rank, "record dims")
        dims = struct.unpack(f"<{rank}I", raw)
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw, offset = _read_exact(buf, offset, 4 * count, f"data of record {name!r}")
        records[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    return records
