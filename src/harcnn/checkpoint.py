"""Model checkpoint and normalization-stats files, both `binio` containers.

A checkpoint's metadata is a `CheckpointMeta` (architecture, Welch
config, stream order, seed, epoch, epsilon). Its tensor records are one
per weight and bias, named and ordered by `model.param_shapes`, then the
normalization arrays. Loading rebuilds the parameter table from the same
`param_shapes`, so a missing or wrong-shaped record is rejected with the
path and the array's name. The stats sidecar holds only the
normalization arrays and epsilon, under its own magic. Every error is a
`binio.FormatError` that starts with the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, read_container, write_container
from .config import from_json, to_json
from .dataset import STREAM_NAMES
from .dsp import WelchConfig
from .features import NormStats, check_epsilon
from .model import ModelParams, ModelSpec, param_shapes

CHECKPOINT_MAGIC = b"HARMCNN1"
NORM_MAGIC = b"HARNORM1"

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
    norm_epsilon: float


def save_checkpoint(path: str | Path, params: ModelParams, welch: WelchConfig, epoch: int) -> None:
    """Atomically serialize model parameters plus everything inference needs."""
    meta = CheckpointMeta(
        architecture=params.spec, freq_bins=params.freq_bins, power_bins=params.power_bins,
        welch=welch, stream_order=STREAM_NAMES, seed=params.rng_seed, epoch=epoch,
        norm_epsilon=params.norm.epsilon,
    )
    records = [*params.arrays.items(), *_norm_records(params.norm)]
    write_container(path, CHECKPOINT_MAGIC, to_json(meta), records)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, WelchConfig, dict]:
    """Rebuild (params, welch config, metadata); rejects version and stream-order mismatches."""
    meta, records = read_container(path, CHECKPOINT_MAGIC, "checkpoint")
    try:
        info = from_json(CheckpointMeta, meta, "metadata")
        shapes = param_shapes(info.architecture, info.freq_bins, info.power_bins)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed checkpoint metadata: {exc}") from None
    if info.stream_order != STREAM_NAMES:
        order, expected = list(info.stream_order), list(STREAM_NAMES)
        raise FormatError(f"{path}: checkpoint stream order {order} differs from {expected}")
    try:
        arrays = {name: records[name] for name in shapes}
        norm = _norm_stats(records, info.norm_epsilon)
        spec, freq_bins, power_bins = info.architecture, info.freq_bins, info.power_bins
        params = ModelParams(spec, freq_bins, power_bins, arrays, rng_seed=info.seed, norm=norm)
    except KeyError as exc:
        raise FormatError(f"{path}: missing tensor record {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent checkpoint: {exc}") from None
    return params, info.welch, meta


def save_norm_stats(path: str | Path, norm: NormStats) -> None:
    write_container(path, NORM_MAGIC, {"epsilon": norm.epsilon}, _norm_records(norm))


def load_norm_stats(path: str | Path) -> NormStats:
    meta, records = read_container(path, NORM_MAGIC, "stats sidecar")
    try:
        return _norm_stats(records, meta.get("epsilon"))
    except KeyError as exc:
        raise FormatError(f"{path}: missing stats record {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent stats sidecar: {exc}") from None
