"""Model checkpoint and normalization-stats files.

Checkpoint layout: 8-byte magic, u16 format version, u32-length-prefixed
UTF-8 JSON metadata (architecture, Welch config, stream order, seed,
epoch, normalizer epsilon), then named float32 tensor records for every
weight, bias, and normalization array. The stats sidecar reuses the same
record codec under its own magic.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .binio import FormatError, atomic_write_bytes, pack_tensor_record, unpack_tensor_records
from .dataset import STREAM_NAMES
from .dsp import WelchConfig
from .features import NormStats
from .model import ChannelParams, DenseLayerSpec, ModelParams, ModelSpec

CHECKPOINT_MAGIC = b"HARMCNN1"
NORM_MAGIC = b"HARNORM1"
FORMAT_VERSION = 1


class CheckpointError(FormatError):
    """A checkpoint or stats file is unreadable or version-incompatible."""


def _norm_records(norm: NormStats) -> list[tuple[str, np.ndarray]]:
    return [
        ("norm.freq_mean", norm.freq_mean),
        ("norm.freq_std", norm.freq_std),
        ("norm.power_mean", norm.power_mean),
        ("norm.power_std", norm.power_std),
    ]


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
    except ValueError as exc:
        raise CheckpointError(f"unreadable {what} metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{what} metadata is not a JSON object")
    return meta, 14 + meta_len


def _read_file(path: str | Path, magic: bytes, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header metadata and tensor records of a checkpoint or stats file.

    Every layout error is re-raised as a CheckpointError that starts with the path.
    """
    data = Path(path).read_bytes()
    try:
        meta, offset = _read_header(data, magic, what)
        records = unpack_tensor_records(memoryview(data)[offset:])
    except FormatError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return meta, records


def save_checkpoint(path: str | Path, params: ModelParams, welch: WelchConfig, epoch: int) -> None:
    """Atomically serialize model parameters plus everything inference needs."""
    meta = {
        "architecture": params.spec.to_json_dict(),
        "freq_bins": params.freq_bins,
        "power_bins": params.power_bins,
        "welch": asdict(welch),
        "stream_order": list(STREAM_NAMES),
        "seed": params.rng_seed,
        "epoch": epoch,
        # Exact float64 epsilon; the stat arrays themselves are float32 records.
        "norm_epsilon": params.norm.epsilon if params.norm is not None else None,
    }
    parts = [_header(CHECKPOINT_MAGIC, meta)]
    for name, arr in params.named_arrays():
        parts.append(pack_tensor_record(name, arr))
    if params.norm is not None:
        for name, arr in _norm_records(params.norm):
            parts.append(pack_tensor_record(name, arr))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, WelchConfig, dict]:
    """Rebuild (params, welch config, metadata); rejects version mismatches."""
    meta, records = _read_file(path, CHECKPOINT_MAGIC, "checkpoint")
    has_norm = "norm.freq_mean" in records
    try:
        spec = ModelSpec.from_json_dict(meta["architecture"])
        freq_bins = int(meta["freq_bins"])
        power_bins = int(meta["power_bins"])
        seed = int(meta["seed"])
        norm_epsilon = float(meta["norm_epsilon"]) if has_norm else None
        welch = WelchConfig(**meta["welch"])
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint metadata lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint metadata: {exc}") from None

    def take(name: str) -> np.ndarray:
        if name not in records:
            raise CheckpointError(f"{path}: missing tensor record {name!r}")
        return records[name]

    def channel(prefix: str, bins: int) -> ChannelParams:
        conv_weights = [take(f"{prefix}.conv{i}.w") for i in range(len(spec.convs))]
        conv_biases = [take(f"{prefix}.conv{i}.b") for i in range(len(spec.convs))]
        return ChannelParams(
            conv_weights=conv_weights,
            conv_biases=conv_biases,
            dense_spec=DenseLayerSpec(spec.flat_dim(bins), spec.dense_units, spec.dense_activation),
            dense_weights=take(f"{prefix}.dense.w"),
            dense_bias=take(f"{prefix}.dense.b"),
        )

    norm = None
    if has_norm:
        norm = NormStats(
            freq_mean=take("norm.freq_mean"),
            freq_std=take("norm.freq_std"),
            power_mean=take("norm.power_mean"),
            power_std=take("norm.power_std"),
            epsilon=norm_epsilon,
        )
    try:
        params = ModelParams(
            spec=spec,
            freq_bins=freq_bins,
            power_bins=power_bins,
            freq=channel("freq", freq_bins),
            power=channel("power", power_bins),
            fusion_spec=DenseLayerSpec(2 * spec.dense_units, spec.classes, "identity"),
            fusion_weights=take("fusion.w"),
            fusion_bias=take("fusion.b"),
            rng_seed=seed,
            norm=norm,
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: inconsistent checkpoint: {exc}") from exc
    return params, welch, meta


def save_norm_stats(path: str | Path, norm: NormStats) -> None:
    meta = {"epsilon": norm.epsilon}
    parts = [_header(NORM_MAGIC, meta)]
    for name, arr in _norm_records(norm):
        parts.append(pack_tensor_record(name, arr))
    atomic_write_bytes(path, b"".join(parts))


def load_norm_stats(path: str | Path) -> NormStats:
    meta, records = _read_file(path, NORM_MAGIC, "stats sidecar")
    try:
        return NormStats(
            freq_mean=records["norm.freq_mean"],
            freq_std=records["norm.freq_std"],
            power_mean=records["norm.power_mean"],
            power_std=records["norm.power_std"],
            epsilon=float(meta["epsilon"]),
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing stats record {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed stats metadata: {exc}") from None
