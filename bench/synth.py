"""Full-size synthetic dataset in the UCI HAR layout, made from a seed.

The published data cannot be shipped with the benchmark, so this module
writes a stand-in with the same shape: the published per-class window
counts of both splits (so the loader's strict count check stays on), the
nine inertial streams of 128 readings per window, and signal text in the
UCI token width (`  2.5808950e-001`, 16 bytes per reading, 3-digit
exponent).

The classes are made confusable on purpose: Sit and Stn share their
dominant frequency and differ only in a small gravity tilt that
per-window jitter blurs, and the three walking classes sit one bin
apart. A trained model therefore stays clearly below 100% test accuracy
and its accuracy and loss can move.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WINDOW_LEN = 128
STREAM_NAMES = (
    "body_acc_x", "body_acc_y", "body_acc_z",
    "body_gyro_x", "body_gyro_y", "body_gyro_z",
    "total_acc_x", "total_acc_y", "total_acc_z",
)
SPLITS = ("train", "test")
# Published per-class window counts (Wlk, WUp, WDn, Sit, Stn, Lay).
COUNTS = {
    "train": (1226, 1073, 986, 1286, 1374, 1407),
    "test": (496, 471, 420, 491, 532, 537),
}
# UCI assigns 21 volunteers to train and the other 9 to test.
TEST_SUBJECTS = (2, 4, 9, 10, 12, 13, 18, 20, 24)
TRAIN_SUBJECTS = tuple(s for s in range(1, 31) if s not in TEST_SUBJECTS)

# Per class: dominant bin, body-acc amplitude, gyro amplitude, gravity direction.
_DOMINANT_BIN = np.array([5.0, 6.0, 7.0, 2.0, 2.0, 1.0])
_BODY_AMP = np.array([0.30, 0.26, 0.34, 0.020, 0.018, 0.012])
_GYRO_AMP = np.array([0.60, 0.52, 0.70, 0.030, 0.026, 0.020])
_GRAVITY = np.array([
    [0.97, -0.18, 0.10],
    [0.96, -0.20, 0.12],
    [0.98, -0.16, 0.08],
    [0.88, 0.30, 0.22],
    [0.90, 0.27, 0.20],
    [0.10, 0.30, 0.94],
])
TOKEN_BYTES = 16


def split_arrays(
    seed: int, split: str, per_class: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(windows (n, 9, 128) as the text encodes them, labels 1..6, subjects).

    per_class=None gives the published counts; an int gives that many
    windows of every class (tiny datasets for smoke tests).
    """
    rng = np.random.default_rng([seed, SPLITS.index(split)])
    counts = COUNTS[split] if per_class is None else (per_class,) * 6
    labels = np.repeat(np.arange(1, 7), counts)
    rng.shuffle(labels)
    n = labels.size
    c = labels - 1
    t = np.arange(WINDOW_LEN)

    # Fundamental with a per-window frequency offset (spectral leakage) and phase.
    freq = _DOMINANT_BIN[c] + rng.uniform(-0.45, 0.45, n)
    phase = rng.uniform(0, 2 * np.pi, (n, 6, 1))
    carrier = np.sin(2 * np.pi * freq[:, None, None] * t / WINDOW_LEN + phase)
    harmonic = np.sin(4 * np.pi * freq[:, None, None] * t / WINDOW_LEN + 1.7 * phase)
    scale = rng.uniform(0.6, 1.4, (n, 1, 1))
    amp = np.concatenate(
        [np.repeat(_BODY_AMP[c, None], 3, 1), np.repeat(_GYRO_AMP[c, None], 3, 1)], axis=1
    )[..., None]
    body = scale * amp * (carrier + 0.35 * harmonic)
    body += amp * 0.45 * rng.standard_normal((n, 6, WINDOW_LEN))

    gravity = _GRAVITY[c] + rng.normal(0.0, 0.035, (n, 3))
    gravity /= np.linalg.norm(gravity, axis=1, keepdims=True)
    total = body[:, :3] + gravity[..., None]
    total += 0.01 * rng.standard_normal((n, 3, WINDOW_LEN))
    windows = quantize(np.concatenate([body, total], axis=1))

    pool = np.array(TEST_SUBJECTS if split == "test" else TRAIN_SUBJECTS)
    subjects = pool[np.arange(n) * len(pool) // n]
    return windows, labels, subjects


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(negative, 8-digit mantissa, exponent) with |v| ~ mantissa * 10**(exponent - 7)."""
    a = np.abs(values)
    safe = np.where(a > 0, a, 1.0)
    exp = np.floor(np.log10(safe)).astype(np.int64)
    mant = np.rint(safe / 10.0 ** exp * 1e7).astype(np.int64)
    high = mant >= 100_000_000
    exp[high] += 1
    mant[high] = np.rint(safe[high] / 10.0 ** exp[high] * 1e7).astype(np.int64)
    low = mant < 10_000_000
    exp[low] -= 1
    mant[low] = np.rint(safe[low] / 10.0 ** exp[low] * 1e7).astype(np.int64)
    zero = a == 0
    mant[zero] = 0
    exp[zero] = 0
    return values < 0, mant, exp


def quantize(values: np.ndarray) -> np.ndarray:
    """The float64 values that the 8-significant-digit text tokens encode."""
    neg, mant, exp = _decimal(values)
    # One correctly rounded operation with an exact power of ten, as a parser does.
    shift = exp - 7
    mag = np.where(
        shift < 0, mant / 10.0 ** np.maximum(-shift, 0), mant * 10.0 ** np.maximum(shift, 0)
    )
    return np.where(neg, -mag, mag)


def format_rows(values: np.ndarray) -> bytes:
    """UCI signal text: each reading as a 16-byte `%15.7e` token with 3-digit exponent."""
    rows, cols = values.shape
    neg, mant, exp = _decimal(values)
    tok = np.empty((rows, cols, TOKEN_BYTES), dtype=np.uint8)
    tok[..., 0] = ord(" ")
    tok[..., 1] = np.where(neg, ord("-"), ord(" "))
    digits = mant[..., None] // 10 ** np.arange(7, -1, -1) % 10 + ord("0")
    tok[..., 2] = digits[..., 0]
    tok[..., 3] = ord(".")
    tok[..., 4:11] = digits[..., 1:]
    tok[..., 11] = ord("e")
    tok[..., 12] = np.where(exp < 0, ord("-"), ord("+"))
    e = np.abs(exp)
    tok[..., 13] = e // 100 + ord("0")
    tok[..., 14] = e // 10 % 10 + ord("0")
    tok[..., 15] = e % 10 + ord("0")
    lines = np.empty((rows, cols * TOKEN_BYTES + 1), dtype=np.uint8)
    lines[:, :-1] = tok.reshape(rows, -1)
    lines[:, -1] = ord("\n")
    return lines.tobytes()


def write_dataset(root: str | Path, seed: int, per_class: int | None = None) -> int:
    """Write both splits under root in the UCI layout; returns signal text bytes."""
    root = Path(root)
    text_bytes = 0
    for split in SPLITS:
        windows, labels, subjects = split_arrays(seed, split, per_class)
        signals = root / split / "Inertial Signals"
        signals.mkdir(parents=True, exist_ok=True)
        for s, stream in enumerate(STREAM_NAMES):
            data = format_rows(windows[:, s, :])
            (signals / f"{stream}_{split}.txt").write_bytes(data)
            text_bytes += len(data)
        (root / split / f"y_{split}.txt").write_text("".join(f"{v}\n" for v in labels))
        (root / split / f"subject_{split}.txt").write_text("".join(f"{v}\n" for v in subjects))
    return text_bytes
