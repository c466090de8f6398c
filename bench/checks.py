"""Output checks run after every timed op, with numpy oracles for the features.

Each check returns a list of problems; an empty list means the op's output
is correct. The feature oracle is computed once per dataset, when it is
generated, for a sample of windows of each split.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

import synth

ORACLE_NAME = "oracle.npz"
ORACLE_SAMPLES = 48
CLASS_SHORT = ("Wlk", "WUp", "WDn", "Sit", "Stn", "Lay")
# Welch settings of the benchmark's config (the package defaults).
SEGMENT_LEN, OVERLAP = 64, 32
# A training op that learned nothing would sit near chance (1/6).
TEST_ACC_FLOOR = 0.6
# |cached - oracle| may differ by float32 rounding of the oracle value plus
# float64 transform error, which is far below 1e-12 of the row maximum.
F32_RTOL = 2.0**-23
ROW_ATOL = 1e-12


def oracle_features(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|rfft|, Welch PSD) of (n, 9, 128) windows, straight from numpy."""
    freq = np.abs(np.fft.rfft(windows, axis=-1))
    t = np.arange(SEGMENT_LEN)
    win = 0.54 - 0.46 * np.cos(2 * np.pi * t / (SEGMENT_LEN - 1))
    step = SEGMENT_LEN - OVERLAP
    starts = range(0, windows.shape[-1] - SEGMENT_LEN + 1, step)
    segs = np.stack([windows[..., s : s + SEGMENT_LEN] for s in starts], axis=-2)
    spec = np.abs(np.fft.rfft(segs * win, axis=-1)) ** 2 / (SEGMENT_LEN * np.mean(win**2))
    spec[..., 1:-1] *= 2.0
    return freq, spec.mean(axis=-2)


def write_oracle(root: Path, seed: int, per_class: int | None = None) -> None:
    """Labels of both splits and oracle features of sampled windows."""
    arrays = {}
    rng = np.random.default_rng([seed, 99])
    for split in synth.SPLITS:
        windows, labels, _ = synth.split_arrays(seed, split, per_class)
        idx = np.sort(rng.choice(labels.size, min(ORACLE_SAMPLES, labels.size), replace=False))
        freq, power = oracle_features(windows[idx])
        arrays.update({
            f"{split}_labels": labels, f"{split}_idx": idx,
            f"{split}_freq": freq, f"{split}_power": power,
        })
    np.savez(root / ORACLE_NAME, **arrays)


def load_oracle(root: Path) -> dict[str, np.ndarray]:
    with np.load(root / ORACLE_NAME) as data:
        return dict(data)


def _read_cache(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, freq, power) from a HARFEAT1 feature cache, parsed independently."""
    data = path.read_bytes()
    if data[:8] != b"HARFEAT1" or len(data) < 20:
        raise ValueError(f"{path.name}: not a feature cache")
    n, fb, pb = struct.unpack("<III", data[8:20])
    dtype = np.dtype([("label", "u1"), ("freq", "<f4", (9, fb)), ("power", "<f4", (9, pb))])
    if len(data) != 20 + n * dtype.itemsize:
        raise ValueError(f"{path.name}: size does not match its header")
    rec = np.frombuffer(data, dtype=dtype, offset=20)
    return rec["label"], rec["freq"], rec["power"]


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    tol = F32_RTOL * np.abs(want) + ROW_ATOL * np.abs(want).max(axis=-1, keepdims=True)
    return bool(np.all(np.abs(got.astype(np.float64) - want) <= tol))


def _rows(labels: np.ndarray, subset: int | None) -> int:
    return labels.size if subset is None else min(subset, labels.size)


def check_ingest(out: Path, oracle: dict, subset: int | None) -> list[str]:
    problems = []
    for split in synth.SPLITS:
        try:
            labels, freq, power = _read_cache(out / f"{split}_features.bin")
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        want_labels = oracle[f"{split}_labels"][: _rows(oracle[f"{split}_labels"], subset)]
        if not np.array_equal(labels, want_labels):
            problems.append(f"{split}: cached labels differ from the dataset's")
            continue
        idx = oracle[f"{split}_idx"]
        keep = idx < labels.size
        if not _close(freq[idx[keep]], oracle[f"{split}_freq"][keep]):
            problems.append(f"{split}: freq features differ from |np.fft.rfft|")
        if not _close(power[idx[keep]], oracle[f"{split}_power"][keep]):
            problems.append(f"{split}: power features differ from the numpy Welch oracle")
    if not (out / "norm_stats.bin").read_bytes()[:8] == b"HARNORM1":
        problems.append("norm_stats.bin is not a stats file")
    return problems


def read_epochs(out: Path) -> list[dict[str, float]]:
    lines = (out / "epochs.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def check_train(out: Path, epochs: int) -> list[str]:
    from harcnn.checkpoint import load_checkpoint

    problems = []
    try:
        _, _, meta = load_checkpoint(out / "checkpoint.bin")
        if not 1 <= meta["epoch"] <= epochs:
            problems.append(f"checkpoint epoch {meta['epoch']} outside 1..{epochs}")
    except (OSError, ValueError) as exc:
        problems.append(f"checkpoint rejected: {exc}")
    rows = read_epochs(out)
    if len(rows) != epochs:
        problems.append(f"epochs.csv has {len(rows)} rows, expected {epochs}")
    elif max(r["test_acc"] for r in rows) <= TEST_ACC_FLOOR:
        problems.append(f"best test_acc at or below the floor {TEST_ACC_FLOOR}")
    return problems


def check_evaluate(out: Path, oracle: dict, subset: int | None) -> list[str]:
    problems = []
    report = json.loads((out / "report.json").read_text())
    cm = np.array(report["confusion"])
    labels = oracle["test_labels"][: _rows(oracle["test_labels"], subset)]
    if cm.sum() != labels.size:
        problems.append(f"confusion sums to {cm.sum()}, split has {labels.size}")
    if not np.array_equal(cm.sum(axis=1), np.bincount(labels - 1, minlength=6)):
        problems.append("confusion row sums differ from the per-class counts")
    if abs(report["accuracy"] - np.trace(cm) / cm.sum()) > 1e-12:
        problems.append("accuracy differs from trace/sum of the confusion matrix")
    missing = [c for c in CLASS_SHORT if not (out / f"roc_{c}.csv").is_file()]
    if missing:
        problems.append(f"missing ROC files for {', '.join(missing)}")
    return problems
