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
from .dataset import N_STREAMS, SAMPLE_RATE_HZ, WINDOW_LEN, SplitManifest
from .dsp import WelchConfig, fft_real, magnitude_onesided, welch_psd
from .parallel import map_blocks

DEFAULT_WELCH = WelchConfig(segment_len=64, overlap=32, window_kind="hamming")
FREQ_BINS = WINDOW_LEN // 2 + 1  # 65
DEFAULT_EPSILON = 1e-8
# Windows per FFT/Welch pass in extract_features_batch. At 32 each FFT
# buffer is about 0.5 MB and stays in cache; a sweep over a whole split
# found 32 as fast as 64, and 128 and 256 slower. Every thread holds one
# block's temporaries, so the smaller block also keeps the peak RSS down.
BLOCK_WINDOWS = 32

CACHE_MAGIC = b"HARFEAT1"


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
    epsilon: float = DEFAULT_EPSILON


@dataclass
class FeatureSet:
    """Stacked features of one split: freq (n,9,F), power (n,9,P), labels (n,) in 1..6."""

    freq: np.ndarray
    power: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.freq.shape[0]


def extract_features_batch(
    windows: np.ndarray, cfg: WelchConfig = DEFAULT_WELCH
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
        freq[block] = magnitude_onesided(fft_real(w[block]))
        power[block] = welch_psd(w[block], cfg, SAMPLE_RATE_HZ).values

    map_blocks(fill, [slice(start, start + BLOCK_WINDOWS) for start in range(0, n, BLOCK_WINDOWS)])
    return freq, power


def extract_split(manifest: SplitManifest, cfg: WelchConfig = DEFAULT_WELCH) -> FeatureSet:
    """Feature set of a whole split, labels carried through."""
    freq, power = extract_features_batch(manifest.windows, cfg)
    return FeatureSet(freq=freq, power=power, labels=manifest.labels.copy())


def fit_normalizer_arrays(
    freq: np.ndarray, power: np.ndarray, epsilon: float = DEFAULT_EPSILON
) -> NormStats:
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
        epsilon=float(epsilon),
    )


def normalize_set(features: FeatureSet, stats: NormStats) -> FeatureSet:
    """Normalized copy of a whole feature set: (x - mean) / (std + epsilon) in float64.

    Each stack is copied to float64 once and normalized in place, so no
    full-size temporary is made.
    """
    freq_shape, power_shape = np.shape(features.freq)[-2:], np.shape(features.power)[-2:]
    if freq_shape != stats.freq_mean.shape or power_shape != stats.power_mean.shape:
        raise ValueError(
            f"feature shapes {freq_shape}/{power_shape} do not match stats "
            f"{stats.freq_mean.shape}/{stats.power_mean.shape}"
        )
    freq = np.array(features.freq, dtype=np.float64)
    power = np.array(features.power, dtype=np.float64)
    eps = stats.epsilon
    freq -= stats.freq_mean.astype(np.float64)
    freq /= stats.freq_std.astype(np.float64) + eps
    power -= stats.power_mean.astype(np.float64)
    power /= stats.power_std.astype(np.float64) + eps
    return FeatureSet(freq=freq, power=power, labels=features.labels.copy())


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
    """Read a feature cache back; values come out float32 exactly as stored."""
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
    return FeatureSet(
        freq=records["freq"].copy(),
        power=records["power"].copy(),
        labels=records["label"].astype(np.int64),
    )
