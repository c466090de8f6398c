"""UCI HAR raw inertial-signal ingestion and published-count validation.

The dataset directory layout is the one shipped by the UCI repository:
`<root>/<split>/Inertial Signals/<stream>_<split>.txt` holds one
128-reading window per line for each of the 9 streams, and
`y_<split>.txt` / `subject_<split>.txt` hold one integer per line.

read_split is the one reader of a split, for every command: it runs a
caller's task on each signal file on the worker threads, then checks the
row counts, the label and subject files and (optionally) the published
counts. `validate` counts rows with it, features.extract_features turns
each file into features with it, and load_split, the tests' whole-split
reference, stacks the parsed files. So every command reports a fault
with the same message. parse_signal_file reads every dataset file:
signals, labels and subjects.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .parallel import map_blocks

WINDOW_LEN = 128
N_SUBJECTS = 30

# Pinned stream order; identical at train and inference time, recorded in checkpoints.
STREAM_NAMES = (
    "body_acc_x",
    "body_acc_y",
    "body_acc_z",
    "body_gyro_x",
    "body_gyro_y",
    "body_gyro_z",
    "total_acc_x",
    "total_acc_y",
    "total_acc_z",
)
N_STREAMS = len(STREAM_NAMES)

SPLITS = ("train", "test")


class DatasetError(ValueError):
    """Raised when dataset files are missing, malformed, or inconsistent."""


class Activity(IntEnum):
    WALKING = 1
    WALKING_UPSTAIRS = 2
    WALKING_DOWNSTAIRS = 3
    SITTING = 4
    STANDING = 5
    LAYING = 6

    @property
    def short(self) -> str:
        return _SHORT_LABELS[self.value - 1]


_SHORT_LABELS = ("Wlk", "WUp", "WDn", "Sit", "Stn", "Lay")
N_CLASSES = len(Activity)

# Published per-class window counts for each split.
EXPECTED_COUNTS = {
    "train": {
        Activity.WALKING: 1226,
        Activity.WALKING_UPSTAIRS: 1073,
        Activity.WALKING_DOWNSTAIRS: 986,
        Activity.SITTING: 1286,
        Activity.STANDING: 1374,
        Activity.LAYING: 1407,
    },
    "test": {
        Activity.WALKING: 496,
        Activity.WALKING_UPSTAIRS: 471,
        Activity.WALKING_DOWNSTAIRS: 420,
        Activity.SITTING: 491,
        Activity.STANDING: 532,
        Activity.LAYING: 537,
    },
}
EXPECTED_TOTALS = {split: sum(counts.values()) for split, counts in EXPECTED_COUNTS.items()}


@dataclass
class SplitManifest:
    """All windows of one split as contiguous arrays."""

    split: str
    windows: np.ndarray  # (n, 9, 128) float64
    labels: np.ndarray  # (n,) int64, values 1..6
    subjects: np.ndarray  # (n,) int64, values 1..30


def parse_signal_file(path: str | Path, columns: int = WINDOW_LEN) -> np.ndarray:
    """Parse a whitespace-separated matrix file with a fixed column count.

    Returns a (rows, columns) float64 array; an empty file yields zero rows, and a
    missing one is a DatasetError. A file that `_parse_uci` declines goes through one
    `np.loadtxt` pass, kept only when the file is ASCII, every line became one row
    (loadtxt skips blank lines), the column count matches and every value is finite.
    Otherwise the per-line parse in `_diagnose` decides: its errors name the offending
    1-based line and token.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"missing file: {path}")
    values = _parse_uci(path, columns)
    return _parse_text(path, columns) if values is None else values


# A UCI token: ' ', sign (' ' or '-'), digit, '.', 7 digits, 'e', exponent sign, 3 digits.
# Less row 0 (mod 256), a byte may be at most row 1: 0 if fixed, 9 for a digit, 13 and 2 for signs.
_UCI_TOKEN = np.array([list(b"  0.0000000e+000"), [0, 13, 9, 0, *[9] * 7, 0, 2, 9, 9, 9]])
# At e + 15 for an exponent e in -15..29, 10**(e - 7) = _UCI_TIMES / _UCI_OVER; then negated.
_POW10 = np.array([float(10**k) for k in range(23)])
_UCI_TIMES = np.concatenate([np.ones(22), _POW10, -np.ones(22), -_POW10])
_UCI_OVER = np.tile(np.concatenate([_POW10[:0:-1], np.ones(23)]), 2)


def _parse_uci(path: Path, columns: int) -> np.ndarray | None:
    """The rows of a file of LF-ended lines of `columns` UCI tokens, else None.

    A token is a mantissa below 10**8 times an exact 10**k with |k| <= 22, so one
    IEEE multiply or divide gives the correctly rounded value of float() (Clinger
    1990). Blocks of about 256 KB are read into one buffer and parsed by numpy.
    """
    width = columns * 16 + 1
    with open(path, "rb", buffering=0) as f:
        rows, rest = divmod(os.fstat(f.fileno()).st_size, width)
        if rest or not rows:
            return None
        out = np.empty((rows, columns))
        base, span = np.append(np.tile(_UCI_TOKEN, columns), [[10], [0]], axis=1).astype(np.uint8)
        block = np.empty(((1 << 18) // width + 1, width), dtype=np.uint8)
        for start in range(0, rows, len(block)):
            lines = block[: rows - start]
            if f.readinto(lines) != lines.nbytes or np.any(np.subtract(lines, base, lines) > span):
                return None
            tokens = np.ascontiguousarray(lines[:, :-1]).reshape(-1, 16)
            negative, exp_negative = tokens[:, 1] == 13, tokens[:, 12] == 2
            signed = (negative | (tokens[:, 1] == 0)) & (exp_negative | (tokens[:, 12] == 0))
            # Little-endian words 1-3 hold mantissa digits 2-5, then its last 3 and the exponent's
            # 3 put behind a zero byte; two SWAR steps make each word's number (Lemire 2021).
            words = tokens.view("<u4")
            lanes = np.stack([words[:, 1], words[:, 2] << 8, words[:, 3] & 0xFFFFFF00], axis=1)
            lanes = (lanes * 10 + (lanes >> 8)) & 0x00FF00FF
            lanes = (lanes * 100 + (lanes >> 16)) & 0xFFFF
            mantissa = (words[:, 0] >> 16 & 0xFF) * 10**7 + lanes[:, 0] * 1000 + lanes[:, 1]
            exponent = np.where(exp_negative, -lanes[:, 2].astype(np.intp), lanes[:, 2])
            if not signed.all() or exponent.min() < -15 or exponent.max() > 29:
                return None
            i = exponent + 15 + 45 * negative
            values = mantissa * _UCI_TIMES[i] / _UCI_OVER[i]
            out[start : start + len(lines)] = values.reshape(len(lines), columns)
    return out


def _parse_text(path: Path, columns: int) -> np.ndarray:
    """Any file that is not in the UCI layout: one loadtxt pass, checked."""
    data = path.read_bytes()
    if not data:
        return np.empty((0, columns), dtype=np.float64)
    if data.isspace():  # the one input that makes loadtxt warn; the line check names it
        return _diagnose(path, data, columns)
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    try:
        # No comment character, so '#' stays an error. A non-ASCII byte
        # raises UnicodeDecodeError, which is a ValueError.
        values = np.loadtxt(
            io.BytesIO(data), dtype=np.float64, comments=None, ndmin=2, encoding="ascii"
        )
    except ValueError:
        return _diagnose(path, data, columns)
    if values.shape != (lines, columns) or not np.isfinite(values).all():
        return _diagnose(path, data, columns)
    return values


def _diagnose(path: Path, data: bytes, columns: int) -> np.ndarray:
    """Parse `data` line by line, raising a DatasetError for the first faulty line.

    Lines end at LF, CRLF or a lone CR, as in text mode. A valid file that
    the single pass of `parse_signal_file` declines (lone-CR line ends, for
    one) is returned as its rows, so the result never depends on the path.
    """
    rows: list[np.ndarray] = []
    # latin-1 maps each byte to one character, so a non-ASCII byte is reported as itself.
    with io.TextIOWrapper(io.BytesIO(data), encoding="latin-1") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                byte = next(ord(c) for c in line if ord(c) > 127)
                raise DatasetError(f"{path}: line {lineno}: non-ASCII byte 0x{byte:02x}")
            tokens = line.split()
            if len(tokens) != columns:
                raise DatasetError(
                    f"{path}: line {lineno}: expected {columns} columns, got {len(tokens)}"
                )
            try:
                values = np.array(tokens, dtype=np.float64)
            except ValueError:
                bad, pos = _first_bad_token(tokens)
                raise DatasetError(
                    f"{path}: line {lineno}: unparsable value {bad!r} at column {pos}"
                ) from None
            if not np.all(np.isfinite(values)):
                pos = int(np.flatnonzero(~np.isfinite(values))[0]) + 1
                raise DatasetError(f"{path}: line {lineno}: non-finite value at column {pos}")
            rows.append(values)
    return np.vstack(rows)


def _first_bad_token(tokens: list[str]) -> tuple[str, int]:
    for pos, tok in enumerate(tokens, start=1):
        try:
            float(tok)
        except ValueError:
            return tok, pos
    return tokens[-1], len(tokens)


def _parse_int_column(path: Path, lo: int, hi: int, what: str) -> np.ndarray:
    """Integers in lo..hi, one per line; checked as floats, so the int64 cast cannot overflow."""
    values = parse_signal_file(path, columns=1)[:, 0]
    fractional = values != np.floor(values)
    if np.any(fractional):
        row = int(np.flatnonzero(fractional)[0]) + 1
        raise DatasetError(f"{path}: line {row}: {what} must be an integer")
    out_of_range = (values < lo) | (values > hi)
    if np.any(out_of_range):
        row = int(np.flatnonzero(out_of_range)[0])
        raise DatasetError(f"{path}: line {row + 1}: unknown {what} {values[row]:.15g}")
    return values.astype(np.int64)


def class_counts(labels: np.ndarray) -> dict[Activity, int]:
    """The number of windows of each activity."""
    return {a: int(np.count_nonzero(labels == a.value)) for a in Activity}


def table_count_mismatches(split: str, labels: np.ndarray) -> list[str]:
    """Differences of a split's labels from the published counts; empty when conforming."""
    expected = EXPECTED_COUNTS[split]
    diffs = []
    total = len(labels)
    if total != EXPECTED_TOTALS[split]:
        diffs.append(f"{split}: total {total} != expected {EXPECTED_TOTALS[split]}")
    for activity, got in class_counts(labels).items():
        if got != expected[activity]:
            diffs.append(f"{split}/{activity.short}: {got} != expected {expected[activity]}")
    return diffs


def split_files(root: str | Path, split: str) -> list[Path]:
    """The split's files: a signal file per stream in STREAM_NAMES order, then labels, subjects."""
    if split not in SPLITS:
        raise DatasetError(f"split must be one of {SPLITS}, got {split!r}")
    base = Path(root) / split
    signals = [base / "Inertial Signals" / f"{stream}_{split}.txt" for stream in STREAM_NAMES]
    return [*signals, base / f"y_{split}.txt", base / f"subject_{split}.txt"]


def read_split(
    root: str | Path, split: str, stream_task, strict_counts: bool = True
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The results of stream_task over a split's signal files, in stream order, and its labels
    and subjects.

    stream_task(path) reads one signal file and returns (its row count,
    result); the nine tasks run on map_blocks, so a task's memory is one
    file's. Then a DatasetError is raised when the signal files disagree
    on their row count, a label or subject file is missing, malformed or
    of another length, or (with strict_counts) the labels miss the
    published counts.
    """
    *signals, label_path, subject_path = split_files(root, split)
    row_counts, results = zip(*map_blocks(stream_task, signals))
    if len(set(row_counts)) != 1:
        detail = ", ".join(f"{stream}={n}" for stream, n in zip(STREAM_NAMES, row_counts))
        raise DatasetError(f"signal files disagree on row count: {detail}")

    labels = _parse_int_column(label_path, 1, N_CLASSES, "activity id")
    subjects = _parse_int_column(subject_path, 1, N_SUBJECTS, "subject id")

    n_rows = row_counts[0]
    if labels.shape[0] != n_rows:
        raise DatasetError(f"{label_path}: {labels.shape[0]} labels for {n_rows} signal rows")
    if subjects.shape[0] != n_rows:
        raise DatasetError(
            f"{subject_path}: {subjects.shape[0]} subjects for {n_rows} signal rows"
        )
    if strict_counts:
        diffs = table_count_mismatches(split, labels)
        if diffs:
            raise DatasetError("dataset counts do not match the published split: " + "; ".join(diffs))
    return results, labels, subjects


def _parsed_rows(path: Path) -> tuple[int, np.ndarray]:
    rows = parse_signal_file(path)
    return len(rows), rows


def load_split(root: str | Path, split: str, strict_counts: bool = True) -> SplitManifest:
    """Load one split into a manifest, checking structure and (optionally) counts.

    With strict_counts the manifest must reproduce the published totals and
    per-class counts exactly; pass False to load structurally valid data that
    is not the pristine distribution (smoke subsets). The whole-split
    reference the tests hold the per-stream paths to.
    """
    streams, labels, subjects = read_split(root, split, _parsed_rows, strict_counts)
    return SplitManifest(split=split, windows=np.stack(streams, axis=1), labels=labels,
                         subjects=subjects)
