"""Shared fixtures: synthetic datasets in the UCI directory layout.

Synthetic windows carry class-dependent spectral signatures (distinct
dominant bins per activity) so learnability and pipeline tests have
structure to find; they never stand in for the published dataset's
numbers.
"""

import os
import sys
import tempfile
import threading
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

from harcnn import dataset, model
from harcnn.dataset import Activity, N_STREAMS, STREAM_NAMES, WINDOW_LEN
from harcnn.dsp import WelchConfig
from harcnn.features import FeatureSet, NormStats, extract_features

# Dominant frequency bin and amplitude profile per class.
_CLASS_BINS = {
    Activity.WALKING: 3,
    Activity.WALKING_UPSTAIRS: 7,
    Activity.WALKING_DOWNSTAIRS: 11,
    Activity.SITTING: 17,
    Activity.STANDING: 23,
    Activity.LAYING: 29,
}


def make_class_window(rng, activity):
    """One synthetic 9x128 window with a per-class spectral signature."""
    t = np.arange(WINDOW_LEN)
    f = _CLASS_BINS[activity]
    window = np.empty((N_STREAMS, WINDOW_LEN))
    for s in range(N_STREAMS):
        amp = 0.5 + 0.1 * s + 0.05 * activity.value
        phase = rng.uniform(0, 2 * np.pi)
        window[s] = (
            amp * np.sin(2 * np.pi * f * t / WINDOW_LEN + phase)
            + 0.2 * np.sin(2 * np.pi * (2 * f % 60 + 1) * t / WINDOW_LEN + phase / 2)
            + 0.15 * rng.standard_normal(WINDOW_LEN)
        )
    return window


def make_split_arrays(rng, counts):
    """Interleaved windows/labels/subjects for the given per-class counts."""
    order = []
    for activity, n in counts.items():
        order.extend([activity] * n)
    rng.shuffle(order)
    windows = np.stack([make_class_window(rng, a) for a in order])
    labels = np.array([a.value for a in order], dtype=np.int64)
    subjects = (np.arange(len(order)) % 30 + 1).astype(np.int64)
    return windows, labels, subjects


def write_uci_split(root, split, windows, labels, subjects):
    """Write arrays as UCI-layout text files under root/split/."""
    base = Path(root) / split
    signals = base / "Inertial Signals"
    signals.mkdir(parents=True, exist_ok=True)
    for s, stream in enumerate(STREAM_NAMES):
        path = signals / f"{stream}_{split}.txt"
        with open(path, "w") as f:
            for row in windows[:, s, :]:
                f.write(" ".join(f"{v:.17e}" for v in row) + "\n")
    with open(base / f"y_{split}.txt", "w") as f:
        f.writelines(f"{v}\n" for v in labels)
    with open(base / f"subject_{split}.txt", "w") as f:
        f.writelines(f"{v}\n" for v in subjects)


def uci_line(values) -> str:
    """Values as one line of UCI signal text: 16-byte `%.7e` tokens with 3-digit exponents."""
    tokens = []
    for v in values:
        mantissa, exponent = f"{v:.7e}".split("e")
        tokens.append(f"{mantissa}e{int(exponent):+04d}".rjust(16))
    return "".join(tokens)


def write_uci_layout_split(root, split, rows, lines=16, seed=0):
    """A split of `rows` windows whose signal files are in the UCI layout, quick to write.

    Line i of stream s is line (i + s) % lines of a seeded pool of distinct
    lines; the labels cycle through 1..6 and the subjects through 1..30.
    """
    drawn = np.random.default_rng(seed).standard_normal((lines, WINDOW_LEN))
    pool = [uci_line(row) + "\n" for row in drawn]
    base = Path(root) / split
    (base / "Inertial Signals").mkdir(parents=True, exist_ok=True)
    for s, stream in enumerate(STREAM_NAMES):
        text = "".join(pool[(i + s) % lines] for i in range(rows))
        (base / "Inertial Signals" / f"{stream}_{split}.txt").write_text(text)
    (base / f"y_{split}.txt").write_text("".join(f"{i % 6 + 1}\n" for i in range(rows)))
    (base / f"subject_{split}.txt").write_text("".join(f"{i % 30 + 1}\n" for i in range(rows)))


def open_spills(stack, directory):
    """Nine unnamed scratch files in `directory`, closed with the ExitStack `stack`."""
    return [stack.enter_context(tempfile.TemporaryFile(dir=directory)) for _ in range(N_STREAMS)]


def extract(root, split, cfg=WelchConfig(), **kwargs):
    """features.extract_features with its spills under `root`, closed before it returns:
    the features as one FeatureSet, and the stats."""
    with ExitStack() as stack:
        spilled, stats = extract_features(root, split, cfg, spills=open_spills(stack, root),
                                          **kwargs)
        return spilled.load(), stats


def build_synthetic_dataset(root, train_per_class=8, test_per_class=4, seed=1234):
    rng = np.random.default_rng(seed)
    train_counts = {a: train_per_class for a in Activity}
    test_counts = {a: test_per_class for a in Activity}
    write_uci_split(root, "train", *make_split_arrays(rng, train_counts))
    write_uci_split(root, "test", *make_split_arrays(rng, test_counts))
    return root


def unlabelled(freq, power):
    """Raw (n,9,F)/(n,9,P) stacks as the FeatureSet predict_batch reads; it reads no labels."""
    return FeatureSet(freq, power, labels=None)


def make_norm(freq_bins=65, power_bins=33, seed=0, min_std=0.0):
    """Seeded normalization stats, with stds of at least `min_std`, for (9, bins) features.

    The default lets a std come near 0, which magnifies that position's
    input; tests that need well-conditioned inputs pass a `min_std` of 1.
    """
    rng = np.random.default_rng(seed)
    stats = {}
    for prefix, bins in (("freq", freq_bins), ("power", power_bins)):
        stats[f"{prefix}_mean"] = rng.standard_normal((N_STREAMS, bins)).astype(np.float32)
        std = np.abs(rng.standard_normal((N_STREAMS, bins))) + min_std
        stats[f"{prefix}_std"] = std.astype(np.float32)
    return NormStats(**stats)


@pytest.fixture(scope="session")
def synthetic_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("uci_synth")
    return build_synthetic_dataset(root)


def forbid_calls(monkeypatch, fn, message):
    """Make fn fail the test with `message` at every harcnn module attribute bound to it."""

    def fail(*args, **kwargs):
        pytest.fail(message)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "harcnn":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, fail)


@pytest.fixture
def no_dataset_read(monkeypatch):
    """Fail the test if any harcnn code parses a dataset file (signals, labels or subjects).

    Every dataset file is read through signal_blocks, parse_signal_file's too.
    """
    forbid_calls(monkeypatch, dataset.signal_blocks, "dataset read")


@pytest.fixture
def four_cpus(monkeypatch):
    """Make harcnn.parallel see four CPUs, so map_blocks starts three workers on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """Make harcnn.parallel see one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def seven_row_chunks(monkeypatch):
    """Make predict_batch cut its input into 7-row chunks, so 20 rows make three."""
    monkeypatch.setattr(model, "PREDICT_CHUNK", 7)


def held_until_a_worker_runs(fn):
    """fn, except that the calling thread's blocks wait until a worker thread has started one.

    Under map_blocks with two or more blocks and CPUs this makes sure a
    worker thread runs at least one block. fn(block, on_worker) gets the
    block and whether it runs on a worker.
    """
    caller = threading.current_thread()
    worker_started = threading.Event()

    def wrapped(*args, **kwargs):
        if threading.current_thread() is caller:
            assert worker_started.wait(timeout=30), "no worker thread ran a block"
            return fn(*args, on_worker=False, **kwargs)
        worker_started.set()
        return fn(*args, on_worker=True, **kwargs)

    return wrapped


def nan_in_worker_chunks(monkeypatch):
    """Patch model.forward_batch so a worker thread runs at least one chunk and every
    chunk a worker runs carries a NaN feature; the caller's chunks stay clean."""
    real = model.forward_batch

    def forward(params, freq, power, want_cache=False, *, on_worker):
        if on_worker:
            freq = np.array(freq)
            freq[0, 0, 0] = np.nan
        return real(params, freq, power, want_cache)

    monkeypatch.setattr(model, "forward_batch", held_until_a_worker_runs(forward))


def real_dataset_root():
    """Path to the published dataset if present, else None.

    Looked up via $HARCNN_DATASET, then ./data/UCI HAR Dataset.
    """
    env = os.environ.get("HARCNN_DATASET")
    candidates = [env] if env else []
    candidates.append("data/UCI HAR Dataset")
    for cand in candidates:
        if cand and (Path(cand) / "train" / "Inertial Signals").is_dir():
            return Path(cand)
    return None


requires_real_dataset = pytest.mark.skipif(
    real_dataset_root() is None,
    reason="published UCI HAR dataset not found (set HARCNN_DATASET or place it at "
    "data/UCI HAR Dataset)",
)
