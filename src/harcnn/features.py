"""Two-channel feature extraction and train-set normalization.

Every inertial window becomes a frequency matrix (per-stream one-sided
FFT magnitudes, 9x65) and a power matrix (per-stream Welch PSD values,
9x33 under the default config). The two matrices stay separate: they
feed separate CNN channels and their bin counts differ.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, atomic_write_bytes
from .config import to_json
from .dataset import N_CLASSES, N_STREAMS, SPLITS, WINDOW_LEN, SplitManifest, split_files
from .dsp import WelchConfig, rfft, welch_psd
from .parallel import map_blocks

FREQ_BINS = WINDOW_LEN // 2 + 1  # 65
# Added to every std before dividing, so a constant position maps to 0.
EPSILON = 1e-8
# Windows per FFT/Welch pass in extract_features_batch. At 32 each FFT
# buffer is about 0.4 MB and stays in cache. Over the train split on a
# 2-core host (median over rounds of each round's best run), 16/32/64/128
# took 0.46/0.41/0.42/0.48 s on one thread and 0.52/0.33/0.27/0.29 s on two.
# Every thread holds one block's temporaries, and 64 cost 3.3 MB (2%) of
# ingest peak RSS for 3-8% of its op time, so the block stays at 32.
BLOCK_WINDOWS = 32

CACHE_MAGIC = b"HARFEAT1"
# Bump whenever extraction changes a feature's bits, so caches written
# before the change no longer match their extraction record.
FEATURES_VERSION = 2


@dataclass
class NormStats:
    """Per-position z-score statistics fitted on the training split.

    Arrays are float32 so checkpointed stats reproduce in-memory ones
    bit-for-bit; the normalization math itself runs in float64.
    """

    freq_mean: np.ndarray
    freq_std: np.ndarray
    power_mean: np.ndarray
    power_std: np.ndarray

    def __post_init__(self) -> None:
        for prefix in ("freq", "power"):
            mean, std = getattr(self, f"{prefix}_mean"), getattr(self, f"{prefix}_std")
            if mean.ndim != 2 or mean.shape[0] != N_STREAMS or std.shape != mean.shape:
                raise ValueError(f"{prefix} stats have shapes {mean.shape}/{std.shape}, "
                                 f"not one ({N_STREAMS}, bins) shape")
            if (std < 0).any():
                raise ValueError(f"{prefix}_std holds a negative std")

    @property
    def bins(self) -> tuple[int, int]:
        """(freq, power) widths of the arrays, which are the model's input widths."""
        return self.freq_mean.shape[1], self.power_mean.shape[1]

    def check_shapes(self, freq, power) -> None:
        """Raise ValueError unless (n,9,F)/(n,9,P) stacks have these stats' widths."""
        got = np.shape(freq)[1:], np.shape(power)[1:]
        want = self.freq_mean.shape, self.power_mean.shape
        if got != want:
            raise ValueError(f"feature shapes {got[0]}/{got[1]} do not match stats "
                             f"{want[0]}/{want[1]}")


@dataclass
class FeatureSet:
    """Raw stacked features of one split: freq (n,9,F), power (n,9,P), labels (n,) in 1..6."""

    freq: np.ndarray
    power: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.freq.shape[0]


def extract_features_batch(
    windows: np.ndarray, cfg: WelchConfig = WelchConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized extraction over (n, 9, 128) windows; returns (freq, power) stacks.

    Windows go through the FFT and Welch in blocks of BLOCK_WINDOWS, so
    every temporary stays a few MB and cache-resident whatever n is. The
    blocks run on every available CPU (see parallel.map_blocks), each
    writing its own rows of the outputs.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3 or w.shape[1:] != (N_STREAMS, WINDOW_LEN):
        raise ValueError(f"windows shape must be (n, {N_STREAMS}, {WINDOW_LEN}), got {w.shape}")
    n = w.shape[0]
    freq = np.empty((n, N_STREAMS, FREQ_BINS))
    power = np.empty((n, N_STREAMS, cfg.n_bins))

    def fill(block: slice) -> None:
        freq[block] = np.abs(rfft(w[block]))
        power[block] = welch_psd(w[block], cfg)

    map_blocks(fill, [slice(start, start + BLOCK_WINDOWS) for start in range(0, n, BLOCK_WINDOWS)])
    return freq, power


def extract_split(manifest: SplitManifest, cfg: WelchConfig = WelchConfig()) -> FeatureSet:
    """Feature set of a whole split, labels carried through."""
    freq, power = extract_features_batch(manifest.windows, cfg)
    return FeatureSet(freq=freq, power=power, labels=manifest.labels.copy())


def _stamp(path: Path) -> list:
    try:
        st = path.stat()
    except OSError:  # load_split names the missing file
        return [path.name, None, None]
    return [path.name, st.st_size, st.st_mtime_ns]


def extraction_record(root, welch: WelchConfig, subset: int | None) -> dict:
    """What each split's features are extracted from, as JSON: code version, settings, file stamps.

    Each dataset file is stamped with its name, size and mtime in ns. The
    dataset root is left out, so a copy that keeps the mtimes still matches.
    """
    return {split: {"features_version": FEATURES_VERSION, "welch": to_json(welch), "subset": subset,
                    "files": [_stamp(path) for path in split_files(root, split)]}
            for split in SPLITS}


def fit_normalizer_arrays(freq: np.ndarray, power: np.ndarray) -> NormStats:
    """Per-position mean and population std over the first axis of (n,9,F)/(n,9,P) stacks."""
    if freq.shape[0] == 0:
        raise ValueError("cannot fit a normalizer on an empty sequence")
    freq = np.asarray(freq, dtype=np.float64)
    power = np.asarray(power, dtype=np.float64)
    return NormStats(
        freq_mean=freq.mean(axis=0).astype(np.float32),
        freq_std=freq.std(axis=0).astype(np.float32),
        power_mean=power.mean(axis=0).astype(np.float32),
        power_std=power.std(axis=0).astype(np.float32),
    )


def normalize_set(freq, power, stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean) / (std + EPSILON) of raw (n,9,F)/(n,9,P) stacks, as float64 copies.

    Each stack is copied to float64 once and normalized in place, so no
    full-size temporary is made. The caller's arrays are left unchanged.
    """
    stats.check_shapes(freq, power)
    freq = np.array(freq, dtype=np.float64)
    power = np.array(power, dtype=np.float64)
    freq -= stats.freq_mean.astype(np.float64)
    freq /= stats.freq_std.astype(np.float64) + EPSILON
    power -= stats.power_mean.astype(np.float64)
    power /= stats.power_std.astype(np.float64) + EPSILON
    return freq, power


def _record_dtype(freq_bins: int, power_bins: int) -> np.dtype:
    return np.dtype(
        [
            ("label", "u1"),
            ("freq", "<f4", (N_STREAMS, freq_bins)),
            ("power", "<f4", (N_STREAMS, power_bins)),
        ]
    )


def write_feature_cache(path: str | Path, features: FeatureSet) -> None:
    """Serialize a feature set to the binary cache format (atomic write).

    Layout: magic, u32 sample count, u32 freq bins, u32 power bins, then per
    sample a u8 class id followed by the freq and power matrices as
    little-endian float32, row-major.
    """
    n = len(features)
    records = np.empty(n, dtype=_record_dtype(features.freq.shape[-1], features.power.shape[-1]))
    records["label"] = features.labels
    records["freq"] = features.freq
    records["power"] = features.power
    header = CACHE_MAGIC + struct.pack(
        "<III", n, features.freq.shape[-1], features.power.shape[-1]
    )
    # join copies the records once; header + records.tobytes() held two copies.
    atomic_write_bytes(path, b"".join((header, records.data)))


def read_feature_cache(path: str | Path) -> FeatureSet:
    """Read a feature cache back; values come out float32 exactly as stored.

    A layout mismatch, a label outside 1..6 or a non-finite value raises a
    FormatError that starts with the path.
    """
    data = Path(path).read_bytes()
    if data[:8] != CACHE_MAGIC:
        raise FormatError(f"{path}: bad feature cache magic {data[:8]!r}")
    if len(data) < 20:
        raise FormatError(f"{path}: truncated feature cache header")
    n, freq_bins, power_bins = struct.unpack("<III", data[8:20])
    dtype = _record_dtype(freq_bins, power_bins)
    expected = 20 + n * dtype.itemsize
    if len(data) != expected:
        raise FormatError(f"{path}: cache size {len(data)} != expected {expected}")
    records = np.frombuffer(data, dtype=dtype, count=n, offset=20)
    labels = records["label"]
    bad = (labels < 1) | (labels > N_CLASSES)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise FormatError(
            f"{path}: record {i} has label {labels[i]}, not a class id in 1..{N_CLASSES}"
        )
    if not (np.isfinite(records["freq"]).all() and np.isfinite(records["power"]).all()):
        raise FormatError(f"{path}: feature cache holds non-finite values")
    return FeatureSet(
        freq=records["freq"].copy(),
        power=records["power"].copy(),
        labels=labels.astype(np.int64),
    )
