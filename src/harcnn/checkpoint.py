"""Model checkpoint and normalization-stats files, both `binio` containers.

A checkpoint's metadata is a `CheckpointMeta` (architecture, Welch
config, stream order, seed, epoch). Its tensor records are one per
weight and bias, named and ordered by `model.param_shapes`, then the
normalization arrays. The stats fix the input widths, which must be the
FFT's and the Welch config's, and loading rebuilds the parameter table
from `param_shapes` on those widths, so a missing or wrong-shaped record
is rejected with the path and the array's name. The stats sidecar holds
the normalization arrays under its own magic; its metadata is the
extraction record that `extract` writes and `train` checks its caches
against. Every error is a `binio.FormatError` that starts with the path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .binio import FormatError, read_container, write_container
from .config import from_json, to_json
from .dataset import STREAM_NAMES
from .dsp import WelchConfig
from .features import FREQ_BINS, NormStats
from .model import ModelParams, ModelSpec, param_shapes

CHECKPOINT_MAGIC = b"HARMCNN1"
NORM_MAGIC = b"HARNORM1"


def _norm_records(norm: NormStats) -> list[tuple[str, np.ndarray]]:
    return [(f"norm.{f.name}", getattr(norm, f.name)) for f in fields(NormStats)]


def _norm_stats(records: dict[str, np.ndarray]) -> NormStats:
    """Stats from the "norm.*" records; KeyError names a missing one, ValueError a bad one."""
    return NormStats(**{f.name: records[f"norm.{f.name}"] for f in fields(NormStats)})


@dataclass(frozen=True)
class CheckpointMeta:
    """A checkpoint's JSON metadata: everything inference needs besides the arrays."""

    architecture: ModelSpec
    welch: WelchConfig
    stream_order: tuple[str, ...]
    seed: int
    epoch: int


def save_checkpoint(path: str | Path, params: ModelParams, welch: WelchConfig, epoch: int) -> None:
    """Atomically serialize model parameters plus everything inference needs."""
    meta = CheckpointMeta(architecture=params.spec, welch=welch, stream_order=STREAM_NAMES,
                          seed=params.rng_seed, epoch=epoch)
    records = [*params.arrays.items(), *_norm_records(params.norm)]
    write_container(path, CHECKPOINT_MAGIC, to_json(meta), records)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, WelchConfig, dict]:
    """Rebuild (params, welch config, metadata); rejects version and stream-order mismatches."""
    meta, records = read_container(path, CHECKPOINT_MAGIC, "checkpoint")
    try:
        info = from_json(CheckpointMeta, meta, "metadata")
    except ValueError as exc:
        raise FormatError(f"{path}: malformed checkpoint metadata: {exc}") from None
    if info.stream_order != STREAM_NAMES:
        order, expected = list(info.stream_order), list(STREAM_NAMES)
        raise FormatError(f"{path}: checkpoint stream order {order} differs from {expected}")
    try:
        norm = _norm_stats(records)
        welch_bins = (FREQ_BINS, info.welch.n_bins)
        if norm.bins != welch_bins:
            raise ValueError(f"stats for {norm.bins} bins, welch gives {welch_bins}")
        arrays = {name: records[name] for name in param_shapes(info.architecture, *norm.bins)}
        params = ModelParams(info.architecture, arrays, rng_seed=info.seed, norm=norm)
    except KeyError as exc:
        raise FormatError(f"{path}: missing tensor record {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent checkpoint: {exc}") from None
    return params, info.welch, meta


def save_norm_stats(path: str | Path, norm: NormStats, record: dict) -> None:
    write_container(path, NORM_MAGIC, record, _norm_records(norm))


def load_norm_stats(path: str | Path) -> tuple[dict, NormStats]:
    """A sidecar's (metadata, stats): the extraction record it was saved with, and its stats."""
    record, records = read_container(path, NORM_MAGIC, "stats sidecar")
    try:
        return record, _norm_stats(records)
    except KeyError as exc:
        raise FormatError(f"{path}: missing stats record {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent stats sidecar: {exc}") from None
