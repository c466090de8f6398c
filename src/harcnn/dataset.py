"""UCI HAR raw inertial-signal ingestion and published-count validation.

The dataset directory layout is the one shipped by the UCI repository:
`<root>/<split>/Inertial Signals/<stream>_<split>.txt` holds one
128-reading window per line for each of the 9 streams, and
`y_<split>.txt` / `subject_<split>.txt` hold one integer per line.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 50.0
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


def class_of(class_id: int) -> Activity:
    """Map a label-file id (1..6) to its activity class."""
    try:
        return Activity(class_id)
    except ValueError:
        raise DatasetError(f"unknown activity id {class_id}") from None


@dataclass
class SplitManifest:
    """All windows of one split as contiguous arrays, plus per-class counts."""

    split: str
    windows: np.ndarray  # (n, 9, 128) float64
    labels: np.ndarray  # (n,) int64, values 1..6
    subjects: np.ndarray  # (n,) int64, values 1..30
    per_class_counts: dict[Activity, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.per_class_counts:
            self.per_class_counts = {
                a: int(np.count_nonzero(self.labels == a.value)) for a in Activity
            }

    def __len__(self) -> int:
        return self.windows.shape[0]


def parse_signal_file(path: str | Path, columns: int = WINDOW_LEN) -> np.ndarray:
    """Parse a whitespace-separated matrix file with a fixed column count.

    Returns a (rows, columns) float64 array; an empty file yields zero rows.
    The whole file is parsed in one C-level `np.loadtxt` pass. That result is
    kept only when the file is ASCII, every line became one row (loadtxt
    skips blank lines), the column count matches and every value is finite.
    Otherwise the per-line parse in `_diagnose` decides: its errors name the
    offending 1-based line and token.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        return np.empty((0, columns), dtype=np.float64)
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    try:
        with warnings.catch_warnings():
            # An all-blank file is "no data" to loadtxt; the line count catches it.
            warnings.simplefilter("ignore", UserWarning)
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
    values = parse_signal_file(path, columns=1)[:, 0]
    ints = values.astype(np.int64)
    if np.any(ints != values):
        row = int(np.flatnonzero(ints != values)[0]) + 1
        raise DatasetError(f"{path}: line {row}: {what} must be an integer")
    out_of_range = (ints < lo) | (ints > hi)
    if np.any(out_of_range):
        row = int(np.flatnonzero(out_of_range)[0])
        raise DatasetError(f"{path}: line {row + 1}: unknown {what} {ints[row]}")
    return ints


def table_count_mismatches(manifest: SplitManifest) -> list[str]:
    """Differences from the published per-class counts; empty when conforming."""
    expected = EXPECTED_COUNTS[manifest.split]
    diffs = []
    total = len(manifest)
    if total != EXPECTED_TOTALS[manifest.split]:
        diffs.append(
            f"{manifest.split}: total {total} != expected {EXPECTED_TOTALS[manifest.split]}"
        )
    for activity in Activity:
        got = manifest.per_class_counts.get(activity, 0)
        if got != expected[activity]:
            diffs.append(
                f"{manifest.split}/{activity.short}: {got} != expected {expected[activity]}"
            )
    return diffs


def load_split(root: str | Path, split: str, strict_counts: bool = True) -> SplitManifest:
    """Load one split into a manifest, checking structure and (optionally) counts.

    With strict_counts the manifest must reproduce the published totals and
    per-class counts exactly; pass False to load structurally valid data that
    is not the pristine distribution (validation tooling, smoke subsets).
    """
    if split not in SPLITS:
        raise DatasetError(f"split must be one of {SPLITS}, got {split!r}")
    base = Path(root) / split
    signals_dir = base / "Inertial Signals"

    # Each stream is copied into the windows array as soon as it is parsed,
    # so the split's signals are never held twice.
    windows = None
    row_counts = []
    for s, stream in enumerate(STREAM_NAMES):
        path = signals_dir / f"{stream}_{split}.txt"
        if not path.is_file():
            raise DatasetError(f"missing signal file: {path}")
        matrix = parse_signal_file(path)
        row_counts.append(matrix.shape[0])
        if windows is None:
            windows = np.empty((matrix.shape[0], N_STREAMS, WINDOW_LEN))
        if matrix.shape[0] == windows.shape[0]:
            windows[:, s] = matrix
        del matrix

    if len(set(row_counts)) != 1:
        detail = ", ".join(f"{stream}={n}" for stream, n in zip(STREAM_NAMES, row_counts))
        raise DatasetError(f"signal files disagree on row count: {detail}")

    label_path = base / f"y_{split}.txt"
    subject_path = base / f"subject_{split}.txt"
    for path in (label_path, subject_path):
        if not path.is_file():
            raise DatasetError(f"missing file: {path}")
    labels = _parse_int_column(label_path, 1, len(Activity), "activity id")
    subjects = _parse_int_column(subject_path, 1, N_SUBJECTS, "subject id")

    n_rows = windows.shape[0]
    if labels.shape[0] != n_rows:
        raise DatasetError(
            f"{label_path}: {labels.shape[0]} labels for {n_rows} signal rows"
        )
    if subjects.shape[0] != n_rows:
        raise DatasetError(
            f"{subject_path}: {subjects.shape[0]} subjects for {n_rows} signal rows"
        )

    manifest = SplitManifest(
        split=split,
        windows=windows,
        labels=labels,
        subjects=subjects,
    )
    if strict_counts:
        diffs = table_count_mismatches(manifest)
        if diffs:
            raise DatasetError("dataset counts do not match the published split:\n" + "\n".join(diffs))
    return manifest
