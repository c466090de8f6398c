"""Two-channel feature extraction and train-set normalization.

Every inertial window becomes a frequency matrix (per-stream one-sided
FFT magnitudes, 9x65) and a power matrix (per-stream Welch PSD values,
9x33 under the default config). The two matrices stay separate: they
feed separate CNN channels and their bin counts differ.

A stream's features depend on that stream's samples alone. So
extract_features, which `extract`, `train` and `evaluate` all use, reads
a split through dataset.read_split with one task per signal file. The
task takes its file from dataset.signal_blocks in blocks of BLOCK_ROWS
rows, transforms each block in its own dsp.Workspace, casts the
features to float32 in one reused buffer and writes them at their rows'
offset in its stream's scratch file (a spill) before the next block is
parsed. For the train split's normalizer it adds each block's float64
features to a running mean and variance. So a task writes each block
into the buffers the last one used and holds no parsed file and no copy
of its features, and no split-sized feature stack exists.
SpilledFeatures then builds the cache's records CACHE_CHUNK_WINDOWS at a
time from the nine spills, a transpose from stream-major to window-major
(an out-of-core transpose, as in external-memory algorithms), and
write_feature_cache streams those chunks into the file. extract_split
and extract_features_batch derive the same features from a loaded
split's windows; tests hold extract_features to them.

FeatureCache is the one cache reader: it checks a cache whole, a chunk
at a time, when it opens it, keeps only the labels, and reads the rows
that rows() names from the file. FeatureSet has the same rows(), so
training and inference read a split in memory and an open cache alike;
read_feature_cache opens a cache and reads every row.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binio import FormatError, Parts, atomic_write_bytes
from .config import to_json
from .dataset import (
    BLOCK_ROWS, N_CLASSES, N_STREAMS, SPLITS, WINDOW_LEN, SplitManifest, read_split,
    signal_blocks, split_files,
)
from .dsp import WelchConfig, Workspace, rfft, welch_psd

FREQ_BINS = WINDOW_LEN // 2 + 1  # 65
# Added to every std before dividing, so a constant position maps to 0.
EPSILON = 1e-8

CACHE_MAGIC = b"HARFEAT1"
CACHE_HEADER_BYTES = 20
# Feature caches are built and written this many records at a time: under
# the default config a chunk is 0.9 MB of records, read from the spills
# through a 0.9 MB buffer, where the train split's file is 26 MB.
CACHE_CHUNK_WINDOWS = 256
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

    @property
    def bins(self) -> tuple[int, int]:
        return self.freq.shape[-1], self.power.shape[-1]

    def rows(self, index) -> tuple[np.ndarray, np.ndarray]:
        """freq and power at `index`, a slice or an array of row numbers, as FeatureCache.rows."""
        return self.freq[index], self.power[index]

    def record_chunks(self):
        """The cache records, CACHE_CHUNK_WINDOWS at a time, each chunk in one reused buffer."""
        n = len(self)
        buffer = np.empty(min(n, CACHE_CHUNK_WINDOWS), _record_dtype(*self.bins))
        for start in range(0, n, CACHE_CHUNK_WINDOWS):
            records, rows = buffer[: n - start], slice(start, start + CACHE_CHUNK_WINDOWS)
            records["label"] = self.labels[rows]
            records["freq"] = self.freq[rows]
            records["power"] = self.power[rows]
            yield records


@dataclass
class SpilledFeatures:
    """One split's float32 features in nine stream spills, and its labels (n,) in 1..6.

    Spill s holds stream s's windows in order, each as its F freq then its
    P power values, so window i of every stream starts at byte i * 4(F + P).
    """

    spills: list
    labels: np.ndarray
    bins: tuple[int, int]

    def __len__(self) -> int:
        return len(self.labels)

    def record_chunks(self):
        """The cache records, CACHE_CHUNK_WINDOWS at a time, each chunk in one reused buffer.

        Each chunk's rows are read from every spill into one reused
        (9, chunk, F + P) buffer and transposed into the records. A spill
        that ends early raises OSError.
        """
        freq_bins = self.bins[0]
        n, row_bytes = len(self), 4 * sum(self.bins)
        rows = np.empty((N_STREAMS, min(n, CACHE_CHUNK_WINDOWS), sum(self.bins)), np.float32)
        buffer = np.empty(rows.shape[1], _record_dtype(*self.bins))
        for start in range(0, n, CACHE_CHUNK_WINDOWS):
            records = buffer[: n - start]
            chunk = rows[:, : len(records)]
            for spill, stream in zip(self.spills, chunk):
                if os.preadv(spill.fileno(), [stream], start * row_bytes) != stream.nbytes:
                    raise OSError(f"a feature spill ends before window {start + len(records)}")
            records["label"] = self.labels[start : start + len(records)]
            records["freq"] = chunk[..., :freq_bins].transpose(1, 0, 2)
            records["power"] = chunk[..., freq_bins:].transpose(1, 0, 2)
            yield records

    def load(self) -> FeatureSet:
        """The features as one (n,) record array's freq and power views, as read_feature_cache's."""
        records = np.empty(len(self), _record_dtype(*self.bins))
        for start, chunk in zip(itertools.count(0, CACHE_CHUNK_WINDOWS), self.record_chunks()):
            records[start : start + len(chunk)] = chunk
        return FeatureSet(records["freq"], records["power"], self.labels)


@dataclass
class _Transform:
    """A Welch config and the dsp.Workspace of the one thread that _rows_features runs on."""

    cfg: WelchConfig
    work: Workspace = field(default_factory=Workspace)


def _rows_features(rows: np.ndarray, transform: _Transform) -> tuple[np.ndarray, np.ndarray]:
    """The float64 freq and power features of (k, 128) signal rows.

    The rows go through the FFT and Welch in blocks of BLOCK_ROWS, so every
    temporary stays a few MB and cache-resident whatever k is. Each value
    is computed from its own row alone. Both arrays, and every temporary,
    are buffers of `transform`'s workspace: they hold until its next call.
    """
    work = transform.work
    freq = work.array("features.freq", (len(rows), FREQ_BINS))
    power = work.array("features.power", (len(rows), transform.cfg.n_bins))
    for start in range(0, len(rows), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        np.abs(rfft(rows[block], work), out=freq[block])
        power[block] = welch_psd(rows[block], transform.cfg, work)
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
    transform = _Transform(cfg)
    for s in range(N_STREAMS):
        freq[:, s], power[:, s] = _rows_features(w[:, s], transform)
    return freq, power


def extract_split(manifest: SplitManifest, cfg: WelchConfig = WelchConfig()) -> FeatureSet:
    """Feature set of a whole split, labels carried through."""
    freq, power = extract_features_batch(manifest.windows, cfg)
    return FeatureSet(freq=freq, power=power, labels=manifest.labels.copy())


class _RunningMoments:
    """Count, mean and sum of squared deviations (M2) of rows added in chunks, per position.

    Each chunk's mean and M2 are taken in two passes through one reused
    scratch array, then merged into the running ones by Chan, Golub and
    LeVeque's pairwise update (1983). Every row is first shifted by the
    first row added: a merge subtracts two means, and unshifted means of
    data with a large offset would carry that offset's rounding into the
    variance. No chunk may be longer than the first.
    """

    def __init__(self) -> None:
        self.count = 0

    def add(self, chunk: np.ndarray) -> None:
        if not self.count:
            self.shift, self.scratch = chunk[0].copy(), np.empty(chunk.shape)
        n = len(chunk)
        deviations = np.subtract(chunk, self.shift, out=self.scratch[:n])
        mean = deviations.mean(axis=0)
        deviations -= mean
        m2 = np.square(deviations, out=deviations).sum(axis=0)
        if not self.count:
            self.mean, self.m2 = mean, m2
        else:
            total = self.count + n
            delta = mean - self.mean
            self.mean += delta * (n / total)
            self.m2 += m2
            self.m2 += delta * delta * (self.count * n / total)
        self.count += n

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The mean and population std of the rows added."""
        return self.shift + self.mean, np.sqrt(self.m2 / self.count)


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std over the first axis, in float64.

    The rows are added to a _RunningMoments BLOCK_ROWS at a time, as a
    stream task adds its blocks, and every step is elementwise or reduces
    a C-ordered array's first axis one row at a time: so the moments of one
    stream's (n, bins) rows are bit for bit that stream's slice of the
    moments of the (n, 9, bins) stack.
    """
    moments = _RunningMoments()
    for start in range(0, len(x), BLOCK_ROWS):
        moments.add(x[start : start + BLOCK_ROWS])
    return moments.result()


def extract_features(
    root, split: str, cfg: WelchConfig = WelchConfig(), *, spills,
    subset: int | None = None, strict_counts: bool = True, fit: bool = False,
) -> tuple[SpilledFeatures, NormStats | None]:
    """The float32 features of one split's first `subset` windows, and with fit their stats.

    `spills` are nine open binary files, one per stream in STREAM_NAMES
    order, that the caller opened before and closes after: the features
    stay in them, and the SpilledFeatures returned reads them back. The
    stats are bit for bit fit_normalizer_arrays' of the extract_split
    stacks. dataset.read_split runs one task per signal file. The task
    takes its file from dataset.signal_blocks, transforms each block,
    cut to `subset` rows, in its own workspace, casts the features into
    its reused (BLOCK_ROWS, F + P) float32 buffer and writes them at the
    block's offset in its spill before the next block is parsed; with fit
    it adds the block's float64 features to its running moments, as
    _moments adds the stacks' chunks. So a task holds the same few MB of
    buffers whatever the split's size. A block at start 0 begins the file
    afresh, moments included, so a file re-read whole by the text parser
    overwrites what its earlier blocks wrote. A fault is reported as by
    every command that reads a split, and an overflow in the transforms or
    in the float32 casts (a finite power can exceed float32) only after
    the rest of its file is parsed and the split's checks pass, as
    extract_split's was.
    """
    stream_of = {path: s for s, path in enumerate(split_files(root, split)[:N_STREAMS])}

    def stream_task(path: Path):
        fd = spills[stream_of[path]].fileno()
        transform = _Transform(cfg)
        buffer = np.empty((BLOCK_ROWS, FREQ_BINS + cfg.n_bins), np.float32)
        for n_rows, start, rows in signal_blocks(path):
            if start == 0:
                n_keep = n_rows if subset is None else min(n_rows, subset)
                running = (_RunningMoments(), _RunningMoments()) if fit else ()
                overflow = None
            if overflow or start >= n_keep:
                continue  # the rest of the file is still parsed, for its faults
            rows = rows[: n_keep - start]
            try:
                freq, power = _rows_features(rows, transform)
                # The text parser yields a whole file as one block.
                for at in range(0, len(rows), BLOCK_ROWS):
                    out, part = buffer[: len(rows) - at], slice(at, at + BLOCK_ROWS)
                    out[:, :FREQ_BINS], out[:, FREQ_BINS:] = freq[part], power[part]
                    if os.pwrite(fd, out, (start + at) * out[0].nbytes) != out.nbytes:
                        raise OSError(f"short write to the feature spill of {path.name}")
                    for moments, values in zip(running, (freq[part], power[part])):
                        moments.add(values)
            except FloatingPointError as exc:
                overflow = exc
        if overflow or not (fit and n_keep):
            return n_rows, overflow
        return n_rows, (*running[0].result(), *running[1].result())

    moments, labels, _ = read_split(root, split, stream_task, strict_counts)
    for result in moments:
        if isinstance(result, FloatingPointError):
            raise result
    labels = labels[:subset]
    if fit and not len(labels):
        raise ValueError("cannot fit a normalizer on an empty sequence")
    features = SpilledFeatures(list(spills), labels, (FREQ_BINS, cfg.n_bins))
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


def write_feature_cache(path: str | Path, features: FeatureSet | SpilledFeatures) -> None:
    """Serialize a split's features to the binary cache format (atomic write).

    Layout: magic, u32 sample count, u32 freq bins, u32 power bins, then per
    sample a u8 class id followed by the freq and power matrices as
    little-endian float32, row-major. The header is written first, then
    the records as `features` builds them, CACHE_CHUNK_WINDOWS at a time in
    one reused buffer, so the file's bytes are never held whole.
    """
    n = len(features)
    header = CACHE_MAGIC + struct.pack("<III", n, *features.bins)
    chunks = (records.view(np.uint8) for records in features.record_chunks())
    size = len(header) + n * _record_dtype(*features.bins).itemsize
    atomic_write_bytes(path, Parts(itertools.chain([header], chunks), size))


def _cache_header(path, data: bytes) -> tuple[int, int, int]:
    """(sample count, freq bins, power bins) from the start of a cache's bytes."""
    if data[:8] != CACHE_MAGIC:
        raise FormatError(f"{path}: bad feature cache magic {data[:8]!r}")
    if len(data) < CACHE_HEADER_BYTES:
        raise FormatError(f"{path}: truncated feature cache header")
    return struct.unpack_from("<III", data, 8)


def cache_record_count(path: str | Path) -> int:
    """The sample count in a feature cache's header, read without the records."""
    with open(path, "rb") as f:
        return _cache_header(path, f.read(CACHE_HEADER_BYTES))[0]


class FeatureCache:
    """An open feature cache, checked whole, whose records are read from the file when asked for.

    Opening it reads the header, then every record CACHE_CHUNK_WINDOWS at a
    time through one buffer: a layout mismatch, a label outside 1..6 or a
    non-finite value raises a FormatError that starts with the path, the
    first bad label before a non-finite value wherever each lies. Only the
    int64 labels and the open file are kept. rows() reads records with
    os.preadv on that file, so they come from the inode that was checked
    even if the path is replaced, and any thread may call it. Close the
    cache, or use it as a context manager.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        try:
            self._check()
        except BaseException:
            self._file.close()
            raise

    def _check(self) -> None:
        n, freq_bins, power_bins = _cache_header(self.path, self._file.read(CACHE_HEADER_BYTES))
        self._dtype = _record_dtype(freq_bins, power_bins)
        size = os.fstat(self._file.fileno()).st_size
        expected = CACHE_HEADER_BYTES + n * self._dtype.itemsize
        if size != expected:
            raise FormatError(f"{self.path}: cache size {size} != expected {expected}")
        self.labels = np.empty(n, np.int64)
        buffer = np.empty(min(n, CACHE_CHUNK_WINDOWS), self._dtype)
        finite = True
        for start in range(0, n, CACHE_CHUNK_WINDOWS):
            records = buffer[: n - start]
            self._read(records, start)
            labels = records["label"]
            bad = (labels < 1) | (labels > N_CLASSES)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise FormatError(f"{self.path}: record {start + i} has label {labels[i]}, "
                                  f"not a class id in 1..{N_CLASSES}")
            finite = finite and bool(np.isfinite(records["freq"]).all()
                                     and np.isfinite(records["power"]).all())
            self.labels[start : start + len(records)] = labels
        if not finite:
            raise FormatError(f"{self.path}: feature cache holds non-finite values")

    def _read(self, records: np.ndarray, first: int) -> None:
        """Read records first, first + 1, ... into `records` with one os.preadv."""
        offset = CACHE_HEADER_BYTES + first * self._dtype.itemsize
        if os.preadv(self._file.fileno(), [records], offset) != records.nbytes:
            raise FormatError(
                f"{self.path}: feature cache ends before record {first + len(records)}")

    def __len__(self) -> int:
        return len(self.labels)

    def rows(self, index) -> tuple[np.ndarray, np.ndarray]:
        """Read-only float32 freq (k,9,F) and power (k,9,P) of the records `index` names.

        A slice of step 1 is read with one os.preadv, an array of record
        numbers with one per record, each into its row in the array's order.
        """
        if isinstance(index, slice):
            start, stop, _ = index.indices(len(self))
            records = np.empty(max(stop - start, 0), self._dtype)
            self._read(records, start)
        else:
            records = np.empty(len(index), self._dtype)
            for row, i in enumerate(index.tolist()):
                self._read(records[row : row + 1], i)
        records.flags.writeable = False
        return records["freq"], records["power"]

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> FeatureCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_feature_cache(path: str | Path) -> FeatureSet:
    """Read a feature cache back whole; values come out float32 exactly as stored.

    The cache is opened and checked as FeatureCache does, then all its rows
    are read at once: freq and power are read-only views of one record
    array, so the stacks are never held twice; labels are int64.
    """
    with FeatureCache(path) as cache:
        return FeatureSet(*cache.rows(slice(None)), cache.labels)
