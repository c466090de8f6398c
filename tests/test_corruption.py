"""Property test: a cut or flipped file gives exit 0 or one stderr line.

Each example copies the artifacts and the dataset of one tiny synthetic
run, damages one artifact or one training label or subject file (cuts it
at an offset, flips one bit, or writes bytes over it), runs the command
that reads it in-process and requires exit 0, or exactly one stderr line
with exit 1 for an artifact or exit 2 for a dataset file. A traceback or
a printed warning fails.
"""

import contextlib
import io
import json
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import build_synthetic_dataset  # noqa: E402
from harcnn.binio import pack_tensor_record  # noqa: E402
from harcnn.cli import RunConfig, main  # noqa: E402
from harcnn.features import FEATURES_VERSION  # noqa: E402
from harcnn.model import ConvLayerSpec, ModelSpec  # noqa: E402
from harcnn.train import TrainConfig  # noqa: E402

TINY_MODEL = ModelSpec(
    convs=(ConvLayerSpec(filters=4, kernel_len=5),), pool_widths=(2,), dense_units=8
)
# Each damaged file and the command that reads it.
COMMANDS = {
    "train_features.bin": "train", "test_features.bin": "train", "norm_stats.bin": "train",
    "checkpoint.bin": "evaluate", "y_train.txt": "extract", "subject_train.txt": "extract",
}
ARTIFACTS = ("train_features.bin", "test_features.bin", "norm_stats.bin", "checkpoint.bin")
DATASET_FILES = ("y_train.txt", "subject_train.txt")

INF = struct.pack("<f", np.inf)
HUGE = struct.pack("<f", 3e38)
# Offsets from the end of a checkpoint or stats file. The norm records close
# both; a checkpoint's last parameter value ("fusion.b") comes just before them.
NORM_TAIL = sum(
    len(pack_tensor_record(f"norm.{name}", np.zeros((9, bins))))
    for name, bins in (("freq_mean", 65), ("freq_std", 65), ("power_mean", 33), ("power_std", 33))
)
LAST_PARAM = -NORM_TAIL - 4
FIRST_MEAN = -NORM_TAIL + len(pack_tensor_record("norm.freq_mean", np.zeros((0, 0))))
LAST_STD = -4
# The stats sidecar's metadata, its extraction record, starts at byte 14
# (sorted keys, so the test split first); the first recorded file size
# follows the first file name. Flipping bit 0 of an ASCII digit gives
# another digit, so the record stays valid JSON and stops matching.
RECORD_START = 14
FIRST_SIZE = RECORD_START + len(
    f'{{"test": {{"features_version": {FEATURES_VERSION}, "files": [["body_acc_x_test.txt", '
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Config path, dataset root and output directory of one extract + 1-epoch train run."""
    base = tmp_path_factory.mktemp("corruption")
    root = build_synthetic_dataset(base / "data", train_per_class=4, test_per_class=2)
    cfg = RunConfig(dataset_root=str(root), output_dir=str(base / "out"), strict_counts=False,
                    model=TINY_MODEL, train=TrainConfig(epochs=1, batch_size=8, seed=5))
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, root, base / "out"


def damage(data: bytes, offset: int, change) -> bytes:
    """Cut `data` at `offset`, flip bit `change` of the byte there, or write `change` there."""
    at = offset % len(data)
    if change == "cut":
        return data[:at]
    out = bytearray(data)
    if isinstance(change, int):
        out[at] ^= 1 << change
    else:
        out[at : at + len(change)] = change
    return bytes(out)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(COMMANDS)),
    offset=st.integers(min_value=0, max_value=1 << 20),
    change=st.one_of(st.just("cut"), st.integers(min_value=0, max_value=7)),
)
# The payload faults that once gave a traceback, a warning or a silently wrong run.
@example(name="train_features.bin", offset=20, change=b"\x07")  # label byte of record 0
@example(name="train_features.bin", offset=20, change=b"\xc8")
@example(name="train_features.bin", offset=20, change=b"\x00")
@example(name="train_features.bin", offset=21, change=INF)  # first feature of record 0
@example(name="checkpoint.bin", offset=LAST_PARAM, change=INF)
@example(name="checkpoint.bin", offset=LAST_STD, change=INF)
@example(name="checkpoint.bin", offset=LAST_STD, change=struct.pack("<f", -1.0))
@example(name="norm_stats.bin", offset=LAST_STD, change=INF)
# Huge but finite values that overflow the float32 arithmetic.
@example(name="train_features.bin", offset=21, change=HUGE)
@example(name="norm_stats.bin", offset=FIRST_MEAN, change=HUGE)
# A cut inside the extraction record, and a changed digit of a recorded size.
@example(name="norm_stats.bin", offset=RECORD_START + 30, change="cut")
@example(name="norm_stats.bin", offset=FIRST_SIZE, change=0)
# Ids beyond the int64 range.
@example(name="y_train.txt", offset=0, change=b"1e300")
@example(name="subject_train.txt", offset=0, change=b"1e300")
def test_damaged_artifact_exits_0_or_with_one_line(pristine, name, offset, change):
    cfg_path, root, out_dir = pristine
    with tempfile.TemporaryDirectory() as work:
        for artifact in ARTIFACTS:
            shutil.copy(out_dir / artifact, work)
        data = shutil.copytree(root, Path(work) / "data")
        path = (data / "train" if name in DATASET_FILES else Path(work)) / name
        path.write_bytes(damage(path.read_bytes(), offset, change))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([COMMANDS[name], "--config", str(cfg_path), "--out", work,
                         "--dataset", str(data)])
    assert not caught, [str(w.message) for w in caught]
    failed = 2 if name in DATASET_FILES else 1
    assert code == 0 or (code == failed and err.getvalue().count("\n") == 1), (code, err.getvalue())
