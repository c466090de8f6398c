"""Low-level binary helpers: atomic file writes and the container format.

A container is the layout of checkpoints and stats sidecars: 8-byte
magic, u16 format version, u32-length-prefixed UTF-8 JSON metadata, then
named tensor records until the end of the file. A tensor record is u32
name length, UTF-8 name, u32 rank, u32 dims, then row-major
little-endian float32 data.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class FormatError(ValueError):
    """A binary file does not match its declared layout."""


def atomic_write_bytes(path: str | os.PathLike, data: bytes | np.ndarray) -> None:
    """Write bytes or a 1-D uint8 array to `path` via a temp file + rename, never partially.

    The file gets mode 0o666 less the umask, as open(path, "wb") would give it.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def pack_tensor_record(name: str, array: np.ndarray) -> bytes:
    """Encode one named float32 tensor record."""
    arr = np.asarray(array, dtype="<f4")
    name_bytes = name.encode("utf-8")
    parts = [struct.pack("<I", len(name_bytes)), name_bytes]
    parts.append(struct.pack("<I", arr.ndim))
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(arr.tobytes())
    return b"".join(parts)


def unpack_tensor_records(buf: memoryview, where: str = "") -> dict[str, np.ndarray]:
    """Decode consecutive tensor records until the buffer is exhausted.

    Each FormatError message starts with `where`.
    """
    records: dict[str, np.ndarray] = {}
    offset = 0

    def take(count: int, what: str) -> memoryview:
        nonlocal offset
        if offset + count > len(buf):
            raise FormatError(f"{where}truncated file: expected {count} bytes for {what}")
        offset += count
        return buf[offset - count : offset]

    while offset < len(buf):
        (name_len,) = struct.unpack("<I", take(4, "record name length"))
        raw = take(name_len, "record name")
        try:
            name = bytes(raw).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{where}record name {bytes(raw)!r} is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4, "record rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "record dims"))
        count = math.prod(dims)  # a Python int: an int64 product of u32 dims can wrap
        raw = take(4 * count, f"data of record {name!r}")
        records[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    return records


def write_container(
    path: str | os.PathLike, magic: bytes, meta: dict, records: list[tuple[str, np.ndarray]]
) -> None:
    """Atomically write a container: header, JSON metadata, then one record per (name, array)."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = magic + struct.pack("<HI", FORMAT_VERSION, len(meta_bytes)) + meta_bytes
    packed = [pack_tensor_record(name, arr) for name, arr in records]
    atomic_write_bytes(path, b"".join([header, *packed]))


def read_container(
    path: str | os.PathLike, magic: bytes, what: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """Metadata and tensor records of a container; `what` names the file kind in errors.

    Every layout error, and a record holding NaN or inf, is a FormatError
    that starts with the path.
    """
    data = Path(path).read_bytes()
    where = f"{path}: "
    if data[:8] != magic:
        raise FormatError(f"{where}bad {what} magic {data[:8]!r}")
    if len(data) < 14:
        raise FormatError(f"{where}truncated {what} header")
    version, meta_len = struct.unpack("<HI", data[8:14])
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{where}unsupported {what} format version {version} (this build reads {FORMAT_VERSION})"
        )
    if len(data) < 14 + meta_len:
        raise FormatError(f"{where}truncated {what} metadata")
    try:
        meta = json.loads(data[14 : 14 + meta_len].decode("utf-8"))
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise FormatError(f"{where}unreadable {what} metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{where}{what} metadata is not a JSON object")
    records = unpack_tensor_records(memoryview(data)[14 + meta_len :], where)
    for name, arr in records.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"{where}record {name!r} holds non-finite values")
    return meta, records
