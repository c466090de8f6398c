"""Two-channel feature extraction and train-set normalization.

Every inertial window becomes a frequency matrix (per-stream one-sided
FFT magnitudes, 9x65) and a power matrix (per-stream Welch PSD values,
9x33 under the default config). The two matrices stay separate: they
feed separate CNN channels and their bin counts differ.

A stream's features depend on that stream's samples alone. So
extract_features, which `extract`, `train` and `evaluate` all use,
handles a split one signal file at a time and keeps only float32
features, and the split's float64 windows and feature stacks never exist
whole. extract_split and extract_features_batch derive the same features
from a loaded split's windows; tests hold extract_features to them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import FormatError, atomic_write_bytes
from .config import to_json
from .dataset import (
    N_CLASSES, N_STREAMS, SPLITS, WINDOW_LEN, SplitManifest, check_split, parse_signal_file,
    split_files,
)
from .dsp import WelchConfig, rfft, welch_psd
from .parallel import map_blocks

FREQ_BINS = WINDOW_LEN // 2 + 1  # 65
# Added to every std before dividing, so a constant position maps to 0.
EPSILON = 1e-8
# An FFT/Welch pass in _rows_features takes BLOCK_WINDOWS * N_STREAMS rows
# of one stream, as many signals as BLOCK_WINDOWS windows hold. At 32 each
# FFT buffer is about 0.4 MB and stays in cache. Over the train split on a
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


def _rows_features(rows: np.ndarray, cfg: WelchConfig) -> tuple[np.ndarray, np.ndarray]:
    """The float64 freq and power features of (k, 128) signal rows.

    The rows go through the FFT and Welch in blocks of BLOCK_WINDOWS *
    N_STREAMS, so every temporary stays a few MB and cache-resident
    whatever k is. Each value is computed from its own row alone.
    """
    freq = np.empty((len(rows), FREQ_BINS))
    power = np.empty((len(rows), cfg.n_bins))
    step = BLOCK_WINDOWS * N_STREAMS
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        freq[block] = np.abs(rfft(rows[block]))
        power[block] = welch_psd(rows[block], cfg)
    return freq, power


def extract_features_batch(
    windows: np.ndarray, cfg: WelchConfig = WelchConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 (freq, power) stacks of (n, 9, 128) windows, one stream at a time.

    The reference that tests hold extract_features to: every feature has
    the bits of that stream's row in the per-stream path.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3 or w.shape[1:] != (N_STREAMS, WINDOW_LEN):
        raise ValueError(f"windows shape must be (n, {N_STREAMS}, {WINDOW_LEN}), got {w.shape}")
    freq = np.empty((w.shape[0], N_STREAMS, FREQ_BINS))
    power = np.empty((w.shape[0], N_STREAMS, cfg.n_bins))
    for s in range(N_STREAMS):
        freq[:, s], power[:, s] = _rows_features(w[:, s], cfg)
    return freq, power


def extract_split(manifest: SplitManifest, cfg: WelchConfig = WelchConfig()) -> FeatureSet:
    """Feature set of a whole split, labels carried through."""
    freq, power = extract_features_batch(manifest.windows, cfg)
    return FeatureSet(freq=freq, power=power, labels=manifest.labels.copy())


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std over the first axis, in float64.

    numpy reduces a C-ordered array's first axis one row at a time, so
    the moments of one stream's (n, bins) rows are bit for bit that
    stream's slice of the moments of the (n, 9, bins) stack.
    """
    return x.mean(axis=0), x.std(axis=0)


def _stream_features(path: Path, cfg: WelchConfig, subset: int | None, fit: bool):
    """One signal file as (rows, features): its row count, and of its first `subset` rows
    the float32 freq and power features and, with fit, their float64 moments (else None).

    An overflow in the transforms or in the float32 casts (a finite power
    can exceed float32) is returned in place of the features, to be raised
    after the split's checks.
    """
    rows = parse_signal_file(path)
    n_rows = len(rows)
    try:
        freq, power = _rows_features(rows[:subset], cfg)
        del rows  # the parsed file, before the float32 copies are made
        moments = (*_moments(freq), *_moments(power)) if fit and len(freq) else None
        return n_rows, (freq.astype(np.float32), power.astype(np.float32), moments)
    except FloatingPointError as exc:
        return n_rows, exc


def extract_features(
    root, split: str, cfg: WelchConfig = WelchConfig(), *,
    subset: int | None = None, strict_counts: bool = True, fit: bool = False,
) -> tuple[FeatureSet, NormStats | None]:
    """The float32 features of one split's first `subset` windows, and with fit their stats.

    The stats are bit for bit fit_normalizer_arrays' of the extract_split
    stacks. Each signal file is one task on map_blocks: it is parsed, cut
    to `subset` rows and transformed, and only its float32 features (and
    float64 moments) are kept. So neither the split's (n, 9, 128) windows
    nor its float64 feature stacks ever exist. A fault is reported as
    load_split reports it, and an overflow in the transforms only after the
    split's checks, as extract_split's was. Nothing is written.
    """
    streams = map_blocks(lambda p: _stream_features(p, cfg, subset, fit),
                         split_files(root, split)[:N_STREAMS])
    labels, _ = check_split(root, split, [rows for rows, _ in streams], strict_counts)
    for _, result in streams:
        if isinstance(result, FloatingPointError):
            raise result
    labels = labels[:subset]
    if fit and not len(labels):
        raise ValueError("cannot fit a normalizer on an empty sequence")
    freq, power, moments = zip(*(result for _, result in streams))
    features = FeatureSet(np.stack(freq, axis=1), np.stack(power, axis=1), labels)
    if not fit:
        return features, None
    return features, NormStats(*(np.stack(column).astype(np.float32) for column in zip(*moments)))


def _stamp(path: Path) -> list:
    try:
        st = path.stat()
    except OSError:  # parse_signal_file names the missing file
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
    freq_mean, freq_std = _moments(np.asarray(freq, dtype=np.float64))
    power_mean, power_std = _moments(np.asarray(power, dtype=np.float64))
    return NormStats(
        freq_mean=freq_mean.astype(np.float32),
        freq_std=freq_std.astype(np.float32),
        power_mean=power_mean.astype(np.float32),
        power_std=power_std.astype(np.float32),
    )


def normalize(x, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(x - mean) / (std + EPSILON) of a raw (n,9,bins) stack, as a float64 copy.

    The stack is copied to float64 once and normalized in place, so no
    full-size temporary is made. The caller's array is left unchanged.
    """
    x = np.array(x, dtype=np.float64)
    x -= mean.astype(np.float64)
    x /= std.astype(np.float64) + EPSILON
    return x


def normalize_set(freq, power, stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
    """Both raw (n,9,F)/(n,9,P) stacks normalized with `stats` (see normalize)."""
    stats.check_shapes(freq, power)
    return (normalize(freq, stats.freq_mean, stats.freq_std),
            normalize(power, stats.power_mean, stats.power_std))


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
    little-endian float32, row-major. The records are filled in the file's
    own buffer, so the file is never joined into a second copy.
    """
    freq_bins, power_bins = features.freq.shape[-1], features.power.shape[-1]
    header = CACHE_MAGIC + struct.pack("<III", len(features), freq_bins, power_bins)
    dtype = _record_dtype(freq_bins, power_bins)
    data = np.empty(len(header) + len(features) * dtype.itemsize, dtype=np.uint8)
    data[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    records = data[len(header) :].view(dtype)
    records["label"] = features.labels
    records["freq"] = features.freq
    records["power"] = features.power
    atomic_write_bytes(path, data)


def read_feature_cache(path: str | Path) -> FeatureSet:
    """Read a feature cache back; values come out float32 exactly as stored.

    freq and power are read-only views over the file's bytes, so the
    stacks are never held twice; labels are an int64 copy. A layout
    mismatch, a label outside 1..6 or a non-finite value raises a
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
    return FeatureSet(freq=records["freq"], power=records["power"], labels=labels.astype(np.int64))
