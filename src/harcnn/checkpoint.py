"""Model checkpoint and normalization-stats files.

Checkpoint layout: 8-byte magic, u16 format version, u32-length-prefixed
UTF-8 JSON metadata (a `CheckpointMeta`: architecture, Welch config,
stream order, seed, epoch, epsilon), then one named float32 tensor
record per weight and bias, named and ordered by `model.param_shapes`,
then the normalization arrays. Loading rebuilds the parameter table
from the same `param_shapes`, so a missing or wrong-shaped record is
rejected with the path and the array's name. The stats sidecar reuses
the same record codec under its own magic.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, atomic_write_bytes, pack_tensor_record, unpack_tensor_records
from .config import from_json, to_json
from .dataset import STREAM_NAMES
from .dsp import WelchConfig
from .features import NormStats, check_epsilon
from .model import ModelParams, ModelSpec, param_shapes

CHECKPOINT_MAGIC = b"HARMCNN1"
NORM_MAGIC = b"HARNORM1"
FORMAT_VERSION = 1


class CheckpointError(FormatError):
    """A checkpoint or stats file is unreadable or version-incompatible."""


# NormStats arrays, each stored as the tensor record "norm.<name>".
_NORM_ARRAYS = ("freq_mean", "freq_std", "power_mean", "power_std")


def _norm_records(norm: NormStats) -> list[tuple[str, np.ndarray]]:
    return [(f"norm.{name}", getattr(norm, name)) for name in _NORM_ARRAYS]


def _norm_stats(records: dict[str, np.ndarray], epsilon: object) -> NormStats:
    """Stats from the "norm.*" records.

    KeyError names a missing record; ValueError a bad epsilon or a negative std.
    """
    check_epsilon("epsilon", epsilon)
    norm = NormStats(**{name: records[f"norm.{name}"] for name in _NORM_ARRAYS}, epsilon=epsilon)
    for name in ("freq_std", "power_std"):
        if (getattr(norm, name) < 0).any():
            raise ValueError(f"record 'norm.{name}' holds a negative std")
    return norm


def _header(magic: bytes, meta: dict) -> bytes:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<H", FORMAT_VERSION) + struct.pack("<I", len(meta_bytes)) + meta_bytes


def _read_header(data: bytes, magic: bytes, what: str) -> tuple[dict, int]:
    if data[:8] != magic:
        raise CheckpointError(f"bad {what} magic {data[:8]!r}")
    if len(data) < 14:
        raise CheckpointError(f"truncated {what} header")
    (version,) = struct.unpack("<H", data[8:10])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported {what} format version {version} (this build reads {FORMAT_VERSION})"
        )
    (meta_len,) = struct.unpack("<I", data[10:14])
    if len(data) < 14 + meta_len:
        raise CheckpointError(f"truncated {what} metadata")
    try:
        meta = json.loads(data[14 : 14 + meta_len].decode("utf-8"))
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise CheckpointError(f"unreadable {what} metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{what} metadata is not a JSON object")
    return meta, 14 + meta_len


def _write_file(path: str | Path, magic: bytes, meta: dict, records: list) -> None:
    """Atomically write a header and (name, array) tensor records; see _read_file."""
    packed = [pack_tensor_record(name, arr) for name, arr in records]
    atomic_write_bytes(path, b"".join([_header(magic, meta), *packed]))


def _read_file(path: str | Path, magic: bytes, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header metadata and tensor records of a checkpoint or stats file.

    Every layout error, and a record holding NaN or inf, is raised as a
    CheckpointError that starts with the path.
    """
    data = Path(path).read_bytes()
    try:
        meta, offset = _read_header(data, magic, what)
        records = unpack_tensor_records(memoryview(data)[offset:])
    except FormatError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    for name, arr in records.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: record {name!r} holds non-finite values")
    return meta, records


@dataclass(frozen=True)
class CheckpointMeta:
    """A checkpoint's JSON metadata: everything inference needs besides the arrays."""

    architecture: ModelSpec
    freq_bins: int
    power_bins: int
    welch: WelchConfig
    stream_order: tuple[str, ...]
    seed: int
    epoch: int
    # Exact float64 epsilon; the stat arrays themselves are float32 records.
    norm_epsilon: float | None


def save_checkpoint(path: str | Path, params: ModelParams, welch: WelchConfig, epoch: int) -> None:
    """Atomically serialize model parameters plus everything inference needs."""
    meta = CheckpointMeta(
        architecture=params.spec, freq_bins=params.freq_bins, power_bins=params.power_bins,
        welch=welch, stream_order=STREAM_NAMES, seed=params.rng_seed, epoch=epoch,
        norm_epsilon=params.norm.epsilon if params.norm is not None else None,
    )
    norm_records = _norm_records(params.norm) if params.norm is not None else []
    _write_file(path, CHECKPOINT_MAGIC, to_json(meta), [*params.arrays.items(), *norm_records])


def load_checkpoint(path: str | Path) -> tuple[ModelParams, WelchConfig, dict]:
    """Rebuild (params, welch config, metadata); rejects version and stream-order mismatches."""
    meta, records = _read_file(path, CHECKPOINT_MAGIC, "checkpoint")
    try:
        info = from_json(CheckpointMeta, meta, "metadata")
        shapes = param_shapes(info.architecture, info.freq_bins, info.power_bins)
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed checkpoint metadata: {exc}") from None
    if info.stream_order != STREAM_NAMES:
        order, expected = list(info.stream_order), list(STREAM_NAMES)
        raise CheckpointError(f"{path}: checkpoint stream order {order} differs from {expected}")
    try:
        arrays = {name: records[name] for name in shapes}
        has_norm = info.norm_epsilon is not None or "norm.freq_mean" in records
        norm = _norm_stats(records, info.norm_epsilon) if has_norm else None
        spec, freq_bins, power_bins = info.architecture, info.freq_bins, info.power_bins
        params = ModelParams(spec, freq_bins, power_bins, arrays, rng_seed=info.seed, norm=norm)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing tensor record {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: inconsistent checkpoint: {exc}") from None
    return params, info.welch, meta


def save_norm_stats(path: str | Path, norm: NormStats) -> None:
    _write_file(path, NORM_MAGIC, {"epsilon": norm.epsilon}, _norm_records(norm))


def load_norm_stats(path: str | Path) -> NormStats:
    meta, records = _read_file(path, NORM_MAGIC, "stats sidecar")
    try:
        return _norm_stats(records, meta.get("epsilon"))
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing stats record {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: inconsistent stats sidecar: {exc}") from None
