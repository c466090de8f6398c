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
with the same message. signal_blocks reads every dataset file, a block
of BLOCK_ROWS rows at a time where the file is in the UCI layout:
extract_features transforms each block as it is parsed, `validate`
counts the rows, and parse_signal_file gathers the blocks into the
whole file for the labels, the subjects and load_split.
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

# signal_blocks parses BLOCK_ROWS rows at a time, and features._rows_features
# transforms them in blocks of the same size, as many signals as
# BLOCK_WINDOWS windows hold. At 32 each FFT buffer is about 0.4 MB and
# stays in cache. Over the train split on a 2-core host (median over rounds
# of each round's best run), 16/32/64/128 took 0.46/0.41/0.42/0.48 s on one
# thread and 0.52/0.33/0.27/0.29 s on two. Every thread holds one block's
# temporaries, and 64 cost 3.3 MB (2%) of ingest peak RSS for 3-8% of its
# op time, so the block stays at 32.
BLOCK_WINDOWS = 32
BLOCK_ROWS = BLOCK_WINDOWS * N_STREAMS  # 288

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
    missing one is a DatasetError. The whole file, gathered from signal_blocks.
    """
    for rows, start, block in signal_blocks(path, columns):
        if start == 0:  # the file's first block, or the whole file from the text path
            parsed = block if len(block) == rows else np.empty((rows, columns))
        if parsed is not block:
            parsed[start : start + len(block)] = block
    return parsed


def signal_blocks(path: str | Path, columns: int = WINDOW_LEN):
    """Yield (rows, start, block): a file's `rows` count and its rows from `start` on.

    A file in the UCI layout comes in blocks of BLOCK_ROWS rows, each parsed
    as it is read, so no reader holds the parsed file. A file that `_uci_blocks`
    declines, before its first block or after some, is then re-read whole by
    `_parse_text` and yielded as one block at start 0, which replaces any
    blocks before it (and may give another row count). `_parse_text` runs one
    `np.loadtxt` pass, kept only when the file is ASCII, every line became one
    row (loadtxt skips blank lines), the column count matches and every value
    is finite. Otherwise the per-line parse in `_diagnose` decides: its errors
    name the offending 1-based line and token. A missing file is a DatasetError.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"missing file: {path}")
    if not (yield from _uci_blocks(path, columns)):
        values = _parse_text(path, columns)
        yield len(values), 0, values


# A UCI token: ' ', sign (' ' or '-'), digit, '.', 7 digits, 'e', exponent sign, 3 digits.
# Less row 0 (mod 256), a byte may be at most row 1: 0 if fixed, 9 for a digit, 13 and 2 for signs.
_UCI_TOKEN = np.array([list(b"  0.0000000e+000"), [0, 13, 9, 0, *[9] * 7, 0, 2, 9, 9, 9]])
# At e + 15 for an exponent e in -15..29, 10**(e - 7) = _UCI_TIMES / _UCI_OVER; then negated.
_POW10 = np.array([float(10**k) for k in range(23)])
_UCI_TIMES = np.concatenate([np.ones(22), _POW10, -np.ones(22), -_POW10])
_UCI_OVER = np.tile(np.concatenate([_POW10[:0:-1], np.ones(23)]), 2)
# A left shift, then a mask, for each little-endian word of a token less _UCI_TOKEN's row 0:
# they leave 4 digits in it, leading ones 0, namely the mantissa's first digit, its digits 2-5,
# its digits 6-8 and the exponent's 3 digits.
_UCI_WORD = np.array([[8, 0, 8, 0], [0xFF000000, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFF00]],
                     dtype=np.uint32)


def _uci_blocks(path: Path, columns: int):
    """Yield the blocks of a file of LF-ended lines of `columns` UCI tokens, as signal_blocks.

    Returns True when the whole file was yielded, and False at the first
    block not in the layout. One os.readv puts each block's tokens, line
    after line, in one reused buffer and its line ends in another, and
    _parse_uci_block writes their values into one reused array: between
    two blocks the generator holds these buffers and nothing else, so the
    consumer takes each block's values before it asks for the next.
    """
    width = columns * 16 + 1
    with open(path, "rb", buffering=0) as f:
        rows, rest = divmod(os.fstat(f.fileno()).st_size, width)
        if rest or not rows:
            return False
        layout = (*np.tile(_UCI_TOKEN, columns).astype(np.uint8), *np.tile(_UCI_WORD, columns))
        tokens = np.empty((min(rows, BLOCK_ROWS), width - 1), dtype=np.uint8)
        ends = np.empty(len(tokens), dtype=np.uint8)
        # Each line's tokens and its LF, as readv's buffers.
        text, lf = memoryview(tokens).cast("B"), memoryview(ends)
        parts = [part for i in range(len(tokens))
                 for part in (text[i * (width - 1) : (i + 1) * (width - 1)], lf[i : i + 1])]
        values = np.empty((len(tokens), columns))
        for start in range(0, rows, BLOCK_ROWS):
            n = min(rows - start, BLOCK_ROWS)
            if (os.readv(f.fileno(), parts[: 2 * n]) != n * width or np.any(ends[:n] != 10)
                    or not _parse_uci_block(tokens[:n], layout, values[:n])):
                return False
            yield rows, start, values[:n]
    return True


def _parse_uci_block(tokens: np.ndarray, layout: tuple, values: np.ndarray) -> bool:
    """Write the values of (n, 16 * columns) token bytes into (n, columns) values.

    Returns False, with values undefined, when a token is not in the
    layout. A token is a mantissa below 10**8 times an exact 10**k with
    |k| <= 22, so one IEEE multiply or divide gives the correctly rounded
    value of float() (Clinger 1990). The tokens are parsed in place, and
    once the mantissas are in `values` their bytes hold each token's scale
    index and factor, so no temporary is larger than two bytes a token.
    """
    base, span, shifts, masks = layout
    if np.any(np.subtract(tokens, base, out=tokens).max(axis=0) > span):
        return False
    chars = tokens.reshape(-1, 16)
    negative, exp_negative = chars[:, 1] == 13, chars[:, 12] == 2
    signed = (negative | (chars[:, 1] == 0)) & (exp_negative | (chars[:, 12] == 0))
    if not signed.all():
        return False
    # Two multiply-shift SWAR steps make each word's 4 digits its number (Lemire 2021).
    words = tokens.view("<u4")
    words <<= shifts
    words &= masks
    words *= 10 << 8 | 1
    words >>= 8
    words &= 0x00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    digits = words.reshape(-1, 4)
    mantissa = values.reshape(-1)
    np.multiply(digits[:, 0], 10**7, out=mantissa)
    digits[:, 1] *= 1000
    mantissa += digits[:, 1]
    mantissa += digits[:, 2]
    exponent = digits[:, 3].astype(np.int16)
    exponent *= 1 - 2 * exp_negative.astype(np.int16)
    if exponent.min() < -15 or exponent.max() > 29:
        return False
    exponent += 15 + 45 * negative.astype(np.int16)  # the index into _UCI_TIMES and _UCI_OVER
    index = tokens.reshape(-1)[: 8 * len(exponent)].view(np.intp)[: len(exponent)]
    scale = tokens.reshape(-1)[8 * len(exponent) :].view(np.float64)
    np.copyto(index, exponent)
    mantissa *= np.take(_UCI_TIMES, index, out=scale, mode="clip")
    mantissa /= np.take(_UCI_OVER, index, out=scale, mode="clip")
    return True


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
    the single pass of `_parse_text` declines (lone-CR line ends, for
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
    result); the nine tasks run on map_blocks, so a task holds at most one
    file. Then a DatasetError is raised when the signal files disagree
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
