import hashlib
import json
import re
import struct

import numpy as np
import pytest

from conftest import make_norm, unlabelled
from harcnn.binio import FormatError, pack_tensor_record, unpack_tensor_records
from harcnn.checkpoint import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_norm_stats,
    save_checkpoint,
    save_norm_stats,
)
from harcnn.cli import main
from harcnn.dsp import WelchConfig
from harcnn.model import DEFAULT_MODEL_SPEC, init_model, predict_batch


def with_meta(path, meta_bytes):
    """Rewrite a saved checkpoint's JSON metadata, keeping its tensor records."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[10:14])
    path.write_bytes(data[:10] + struct.pack("<I", len(meta_bytes)) + meta_bytes + data[14 + meta_len :])


class TestCheckpointRoundTrip:
    def test_parameters_and_metadata_survive(self, tmp_path):
        params = init_model(seed=12, norm=make_norm())
        path = tmp_path / "model.harmcnn"
        save_checkpoint(path, params, WelchConfig(), epoch=17)
        loaded, welch, meta = load_checkpoint(path)
        for (name_a, arr_a), (name_b, arr_b) in zip(
            params.arrays.items(), loaded.arrays.items()
        ):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)
        assert welch == WelchConfig()
        assert meta["epoch"] == 17
        assert meta["seed"] == 12
        assert meta["stream_order"][0] == "body_acc_x"
        assert loaded.spec == DEFAULT_MODEL_SPEC
        assert np.array_equal(loaded.norm.freq_mean, params.norm.freq_mean)

    def test_predictions_bit_identical_after_round_trip(self, tmp_path):
        params = init_model(seed=3, norm=make_norm(seed=1))
        path = tmp_path / "model.harmcnn"
        save_checkpoint(path, params, WelchConfig(), epoch=1)
        loaded, _, _ = load_checkpoint(path)
        rng = np.random.default_rng(44)
        freq = rng.standard_normal((100, 9, 65)).astype(np.float32)
        power = rng.standard_normal((100, 9, 33)).astype(np.float32)
        assert np.array_equal(
            predict_batch(params, unlabelled(freq, power)),
            predict_batch(loaded, unlabelled(freq, power)),
        )

    def test_save_is_deterministic(self, tmp_path):
        params = init_model(seed=5, norm=make_norm(seed=2))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(a, params, WelchConfig(), epoch=2)
        save_checkpoint(b, params, WelchConfig(), epoch=2)
        assert a.read_bytes() == b.read_bytes()

    def test_saved_bytes_are_pinned(self, tmp_path):
        # Fails on any change to the init draws, the record order, a record name or the metadata.
        # The records digest is also that of checkpoints that still stored the input widths and
        # the normalizer epsilon in their metadata: dropping those changed only the JSON.
        path = tmp_path / "pinned.bin"
        save_checkpoint(path, init_model(seed=0, norm=make_norm()), WelchConfig(), epoch=1)
        data = path.read_bytes()
        meta_end = 14 + _meta_len(data)
        assert json.loads(data[14:meta_end]).keys() == {
            "architecture", "epoch", "seed", "stream_order", "welch"}
        digest = hashlib.blake2b(data[meta_end:], digest_size=16).hexdigest()
        assert digest == "4c303136fd8c194dd69578132d69a8d6"
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        assert digest == "ab2e118d0e04335a67017d1c742e9d12"

    def test_old_checkpoint_is_one_line_error(self, tmp_path, capsys):
        # The metadata every checkpoint held while it also stored the input widths and epsilon.
        path = tmp_path / "old.bin"
        save_checkpoint(path, init_model(seed=0, norm=make_norm()), WelchConfig(), epoch=1)
        _, _, meta = load_checkpoint(path)
        with_meta(path, json.dumps(
            dict(meta, freq_bins=65, power_bins=33, norm_epsilon=1e-8), sort_keys=True).encode())
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed checkpoint metadata: metadata has unknown key 'freq_bins'\n")
        assert not (tmp_path / "eval" / "report.json").exists()


class TestBadCheckpoints:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WHATEVER" + b"\x00" * 20)
        with pytest.raises(FormatError, match="bad checkpoint magic"):
            load_checkpoint(path)

    def test_version_mismatch_is_explicit(self, tmp_path):
        params = init_model(seed=1, norm=make_norm())
        path = tmp_path / "v2.bin"
        save_checkpoint(path, params, WelchConfig(), epoch=0)
        data = bytearray(path.read_bytes())
        data[8:10] = struct.pack("<H", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unsupported checkpoint format version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["fusion.b", "norm.freq_mean"])
    def test_missing_record_named(self, tmp_path, name):
        params = init_model(seed=1, norm=make_norm())
        path = tmp_path / "cut.bin"
        save_checkpoint(path, params, WelchConfig(), epoch=0)
        without_record(path, name)
        with pytest.raises(FormatError, match=f"missing tensor record '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta_bytes, message",
        [
            (b'{"freq_bins": 65}', "metadata lacks key 'architecture'"),
            (b"[1, 2]", "metadata is not a JSON object"),
            (b"{not json", "unreadable checkpoint metadata"),
        ],
    )
    def test_bad_metadata_is_checkpoint_error(self, tmp_path, meta_bytes, message):
        path = tmp_path / "meta.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
        with_meta(path, meta_bytes)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_malformed_metadata_value_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "seed.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
        _, _, meta = load_checkpoint(path)
        with_meta(path, json.dumps(dict(meta, seed=None)).encode())
        with pytest.raises(FormatError, match="malformed checkpoint metadata"):
            load_checkpoint(path)

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        import harcnn.binio as binio

        params = init_model(seed=1, norm=make_norm())
        path = tmp_path / "atomic.bin"

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(binio.os, "replace", boom)
        with pytest.raises(OSError):
            save_checkpoint(path, params, WelchConfig(), epoch=0)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestNormSidecar:
    def test_metadata_is_empty_and_old_epsilon_is_ignored(self, tmp_path):
        norm = make_norm(seed=3)
        path = tmp_path / "stats.bin"
        save_norm_stats(path, norm, {})
        data = path.read_bytes()
        assert data[14 : 14 + _meta_len(data)] == b"{}"
        # Sidecars once stored the normalizer epsilon as their metadata.
        with_meta(path, b'{"epsilon": 1e-08}')
        assert np.array_equal(load_norm_stats(path)[1].power_std, norm.power_std)

    def test_round_trip(self, tmp_path):
        norm = make_norm(seed=7)
        path = tmp_path / "stats.bin"
        save_norm_stats(path, norm, {})
        _, loaded = load_norm_stats(path)
        assert np.array_equal(loaded.freq_mean, norm.freq_mean)
        assert np.array_equal(loaded.power_std, norm.power_std)
        assert np.array_equal(loaded.freq_std, norm.freq_std)
        assert np.array_equal(loaded.power_mean, norm.power_mean)

    def test_checkpoint_magic_is_not_a_sidecar(self, tmp_path):
        params = init_model(seed=2, norm=make_norm())
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, WelchConfig(), epoch=0)
        with pytest.raises(FormatError, match="bad stats sidecar magic"):
            load_norm_stats(path)
        assert path.read_bytes()[:8] == CHECKPOINT_MAGIC


def _meta_len(data):
    return struct.unpack("<I", data[10:14])[0]


# Damage to a saved file, and the fault its error must name.
DAMAGE = {
    "magic": (lambda data: b"WHATEVER" + data[8:], "magic b'WHATEVER'"),
    "truncated-header": (lambda data: data[:12], "truncated .* header"),
    "version": (
        lambda data: data[:8] + struct.pack("<H", 2) + data[10:],
        "unsupported .* format version 2",
    ),
    # The sidecar's metadata is only "{}", so cut one byte into it.
    "truncated-metadata": (lambda data: data[: 13 + _meta_len(data)], "truncated .* metadata"),
    "unreadable-metadata": (
        lambda data: data[:10] + struct.pack("<I", 9) + b"{not json" + data[14 + _meta_len(data) :],
        "unreadable .* metadata",
    ),
    "truncated-record": (lambda data: data[:-3], "truncated file: expected .* for data of record"),
    # First byte of the first record name.
    "record-name": (
        lambda data: data[: 18 + _meta_len(data)] + b"\xff" + data[19 + _meta_len(data) :],
        "record name .* is not UTF-8",
    ),
}


class TestErrorsNameThePath:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("kind", ["checkpoint", "stats"])
    def test_every_layout_error_starts_with_path(self, tmp_path, kind, damage):
        path = tmp_path / f"{kind}.bin"
        if kind == "checkpoint":
            save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
            load = load_checkpoint
        else:
            save_norm_stats(path, make_norm(), {})
            load = load_norm_stats
        damage_fn, message = DAMAGE[damage]
        path.write_bytes(damage_fn(path.read_bytes()))
        with pytest.raises(FormatError, match=message) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")


def rewrite_records(path, change):
    """Rewrite the tensor records of a saved checkpoint or stats file as change(records)."""
    data = path.read_bytes()
    offset = 14 + _meta_len(data)
    records = change(unpack_tensor_records(memoryview(data)[offset:]))
    packed = b"".join(pack_tensor_record(key, arr) for key, arr in records.items())
    path.write_bytes(data[:offset] + packed)


def with_record(path, name, change):
    """Rewrite one tensor record of a saved checkpoint or stats file as change(record)."""
    rewrite_records(path, lambda records: {
        **records, name: np.asarray(change(records[name]), dtype=np.float32)})


def without_record(path, name):
    """Drop one tensor record of a saved checkpoint or stats file."""
    rewrite_records(path, lambda records: {k: v for k, v in records.items() if k != name})


class TestWrongShapedRecords:
    @pytest.mark.parametrize(
        "name, shape",
        [
            ("freq.dense.b", (1,)),
            ("fusion.b", (1,)),
            ("power.dense.w", (128, 10)),
            ("fusion.w", (6,)),
        ],
    )
    def test_load_and_evaluate_name_path_and_array(self, tmp_path, capsys, name, shape):
        path = tmp_path / "shape.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
        with_record(path, name, lambda record: np.zeros(shape))
        message = f"'{name}' has shape {shape}"
        with pytest.raises(FormatError, match=re.escape(message)) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err


    @pytest.mark.parametrize(
        "name, message",
        [
            ("norm.freq_mean", "freq stats have shapes (9, 10)/(9, 65)"),
            ("norm.power_std", "power stats have shapes (9, 33)/(9, 10)"),
        ],
    )
    def test_wrong_shaped_stats_fail_before_any_dataset_read(
        self, tmp_path, capsys, no_dataset_read, name, message
    ):
        path = tmp_path / "stats_shape.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
        with_record(path, name, lambda record: np.ones((9, 10)))
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: inconsistent checkpoint: {message}")

        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: inconsistent checkpoint: {message}")
        assert err.count("\n") == 1

    def test_welch_config_that_disagrees_with_the_stats_is_rejected(
        self, tmp_path, capsys, no_dataset_read
    ):
        # A checkpoint trained on 33-bin caches under a config whose Welch gives 17 bins.
        path = tmp_path / "welch.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(32, 16), epoch=0)
        message = f"{path}: inconsistent checkpoint: stats for (65, 33) bins, welch gives (65, 17)"
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == message

        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRecordValues:
    @pytest.mark.parametrize(
        "kind, name, value, message",
        [
            ("checkpoint", "fusion.w", np.inf, "record 'fusion.w' holds non-finite values"),
            ("checkpoint", "freq.conv0.b", np.nan, "record 'freq.conv0.b' holds non-finite values"),
            ("checkpoint", "norm.power_std", np.inf, "record 'norm.power_std' holds non-finite values"),
            ("checkpoint", "norm.power_std", -1.0,
             "inconsistent checkpoint: power_std holds a negative std"),
            ("stats", "norm.power_std", -np.inf, "record 'norm.power_std' holds non-finite values"),
            ("stats", "norm.freq_std", -1e-30,
             "inconsistent stats sidecar: freq_std holds a negative std"),
        ],
    )
    def test_bad_value_is_rejected_with_path(self, tmp_path, kind, name, value, message):
        path = tmp_path / f"{kind}.bin"
        if kind == "checkpoint":
            save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
            load = load_checkpoint
        else:
            save_norm_stats(path, make_norm(), {})
            load = load_norm_stats

        def change(record):
            record.flat[-1] = value
            return record

        with_record(path, name, change)
        with pytest.raises(FormatError, match=re.escape(message)) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")
