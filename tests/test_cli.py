import copy
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    build_synthetic_dataset, forbid_calls, nan_in_worker_chunks, uci_line, write_uci_split,
)
import harcnn
from harcnn import cli, dataset, features, metrics, model, parallel
from harcnn.checkpoint import load_norm_stats, save_norm_stats
from harcnn.dataset import (
    N_STREAMS, SPLITS, STREAM_NAMES, WINDOW_LEN, DatasetError, load_split,
)
from harcnn.cli import RunConfig, default_config_json, load_config, main
from harcnn.dsp import WelchConfig
from harcnn.features import (
    FREQ_BINS, FeatureSet, extract_split, extraction_record, fit_normalizer_arrays,
    read_feature_cache, write_feature_cache,
)
from harcnn.model import ConvLayerSpec, ModelSpec
from harcnn.train import TrainConfig

SMOKE_MODEL = ModelSpec(
    convs=(
        ConvLayerSpec(filters=8, kernel_len=7),
        ConvLayerSpec(filters=16, kernel_len=5),
    ),
    pool_widths=(2, 2),
    dense_units=32,
)


def smoke_config(root, out_dir, epochs=4, seed=3):
    return RunConfig(
        dataset_root=str(root),
        output_dir=str(out_dir),
        strict_counts=False,
        welch=WelchConfig(),
        model=SMOKE_MODEL,
        train=TrainConfig(epochs=epochs, batch_size=16, seed=seed),
    )


# The default config as written before the model block lost its fixed values
# (streams in, classes out, activations) and the config its normalizer epsilon.
OLD_DEFAULT_CONFIG = {
    "dataset_root": "data/UCI HAR Dataset",
    "model": {
        "classes": 6,
        "convs": [
            {"activation": "relu", "filters": 32, "in_streams": 9, "kernel_len": 7, "stride": 1},
            {"activation": "relu", "filters": 64, "in_streams": 32, "kernel_len": 5, "stride": 1},
        ],
        "dense_activation": "relu",
        "dense_units": 128,
        "pool_widths": [2, 2],
    },
    "normalizer_epsilon": 1e-08,
    "output_dir": "out",
    "strict_counts": True,
    "subset": None,
    "train": {"adam_eps": 1e-08, "batch_size": 64, "beta1": 0.9, "beta2": 0.999, "epochs": 40,
              "learning_rate": 0.001, "seed": 42},
    "welch": {"overlap": 32, "segment_len": 64, "window_kind": "hamming"},
}


def drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def set_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


def overflow_a_stream(split_dir):
    """Give a signal file a row whose FFT overflows float64."""
    set_line(split_dir / "Inertial Signals" / "body_acc_z_train.txt", 1, " 1e308" * 128)


# Faults in a train split's files, each of which load_split reports.
TRAIN_DAMAGE = {
    "missing_stream": lambda d: (d / "Inertial Signals" / "body_gyro_y_train.txt").unlink(),
    "two_bad_streams": lambda d: (
        (d / "Inertial Signals" / "body_gyro_y_train.txt").unlink(),
        (d / "Inertial Signals" / "total_acc_z_train.txt").write_bytes(b"\xe9\n"),
    ),
    "short_first_stream": lambda d: drop_last_line(d / "Inertial Signals" / "body_acc_x_train.txt"),
    "short_label_file": lambda d: drop_last_line(d / "y_train.txt"),
    "unknown_activity": lambda d: set_line(d / "y_train.txt", 3, "7"),
    "unknown_subject": lambda d: set_line(d / "subject_train.txt", 0, "31"),
    "missing_labels": lambda d: (d / "y_train.txt").unlink(),
    "missing_subjects": lambda d: (d / "subject_train.txt").unlink(),
    # The label file is parsed, and its fault reported, before the subject file is opened.
    "unknown_activity_and_missing_subjects": lambda d: (
        set_line(d / "y_train.txt", 3, "7"),
        (d / "subject_train.txt").unlink(),
    ),
    # The split's checks come before any overflow in the transforms.
    "overflow_and_bad_label": lambda d: (overflow_a_stream(d), set_line(d / "y_train.txt", 0, "0")),
    # ... and before a finite Welch power (about 5e43 here) overflows the float32 cast.
    "cast_overflow_and_bad_label": lambda d: (
        set_line(d / "Inertial Signals" / "body_acc_x_train.txt", 1, " 1e21" * 128),
        set_line(d / "y_train.txt", 0, "0"),
    ),
}


def write_config(path, cfg):
    path.write_text(json.dumps(cfg.to_json_dict(), indent=2))
    return str(path)


@pytest.fixture(scope="module")
def trained_pipeline(tmp_path_factory):
    """One synthetic end-to-end run shared by the read-only CLI tests."""
    root = build_synthetic_dataset(
        tmp_path_factory.mktemp("cli_data"), train_per_class=12, test_per_class=6
    )
    out_dir = tmp_path_factory.mktemp("cli_out")
    cfg_path = out_dir / "config.json"
    write_config(cfg_path, smoke_config(root, out_dir, epochs=6))
    assert main(["extract", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--split", "test"]) == 0
    return root, out_dir, cfg_path


class TestConfig:
    def test_default_config_round_trips(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(default_config_json())
        cfg = load_config(path)
        assert cfg == RunConfig()
        assert json.loads(default_config_json()) == cfg.to_json_dict()

    def test_custom_config_round_trips(self, tmp_path):
        cfg = smoke_config("dataset", "out", epochs=2, seed=99)
        path = tmp_path / "config.json"
        write_config(path, cfg)
        assert load_config(path) == cfg

    def test_invalid_config_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 1

    def test_every_default_is_written_out(self):
        d = json.loads(default_config_json())
        assert d["welch"] == {"segment_len": 64, "overlap": 32, "window_kind": "hamming"}
        assert d["train"]["epochs"] == 40
        assert d["train"]["batch_size"] == 64
        assert d["train"]["learning_rate"] == 1e-3
        assert d["model"] == {
            "convs": [{"filters": 32, "kernel_len": 7, "stride": 1},
                      {"filters": 64, "kernel_len": 5, "stride": 1}],
            "dense_units": 128,
            "pool_widths": [2, 2],
        }
        assert "normalizer_epsilon" not in d

    def test_readme_shows_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S)  # the first JSON block
        assert json.loads(block.group(1)) == json.loads(default_config_json())


def one_line_error(capsys, argv):
    """Run the CLI, requiring exit 1 and a one-line stderr message; return it."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


class TestConfigValues:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("subset", 0, "subset must be null or an integer >= 1, got 0"),
            ("subset", "5", "subset must be an integer, got '5'"),
            ("subset", True, "subset must be an integer, got True"),
            ("strict_counts", "false", "strict_counts must be true or false, got 'false'"),
            ("train.seed", 1.5, "train.seed must be an integer, got 1.5"),
            # Once accepted until numpy's seeding refused it, after a full extract.
            ("train.seed", -1, "train: seed must be a non-negative integer, got -1"),
            ("train.batch_size", 2.5, "train.batch_size must be an integer, got 2.5"),
            ("train.epochs", 1.5, "train.epochs must be an integer, got 1.5"),
            ("train.learning_rate", True, "train.learning_rate must be a number, got True"),
            ("train.beta2", "0.9", "train.beta2 must be a number, got '0.9'"),
            ("train.adam_eps", 0.0, "train: learning_rate and adam_eps must be finite and positive"),
            ("model.pool_widths", [2.0, 2], "model.pool_widths.0 must be an integer, got 2.0"),
            ("model.dense_units", 8.5, "model.dense_units must be an integer, got 8.5"),
            ("model.convs.0.stride", 1.0, "model.convs.0.stride must be an integer, got 1.0"),
            ("welch.segment_len", 64.0, "welch.segment_len must be an integer, got 64.0"),
            ("welch.overlap", False, "welch.overlap must be an integer, got False"),
            # Wrong types that once raised a TypeError traceback.
            ("output_dir", 5, "output_dir must be a string, got 5"),
            ("output_dir", None, "output_dir must be a string, got None"),
            ("dataset_root", 5, "dataset_root must be a string, got 5"),
            ("welch", [64, 32], "welch must be an object, got [64, 32]"),
            ("model.convs", {}, "model.convs must be a list, got {}"),
            # Unknown keys, once ignored at the top level and in `model`.
            ("subsett", 3, "top level has unknown key 'subsett'"),
            ("model.units", 3, "model has unknown key 'units'"),
            ("train.seeds", 3, "train has unknown key 'seeds'"),
            ("welch.window", "hann", "welch has unknown key 'window'"),
            ("model.convs.1.strides", 2, "model.convs.1 has unknown key 'strides'"),
            # Range checks name the object that failed them.
            ("welch.segment_len", 63, "welch: segment_len must be a power of two >= 2, got 63"),
            # A model the FFT or Welch width collapses, once accepted until train.
            ("welch", {"segment_len": 4, "overlap": 2, "window_kind": "hamming"},
             "input of 3 bins collapses inside the conv stack"),
            ("model.convs.0.kernel_len", 66, "input of 65 bins collapses inside the conv stack"),
            ("model.pool_widths", [2, 16], "input of 33 bins collapses inside the pool stack"),
        ],
    )
    def test_bad_value_in_config_is_one_line_error(self, tmp_path, capsys, key, value, message):
        d = RunConfig(output_dir=str(tmp_path / "out")).to_json_dict()
        *parents, leaf = key.split(".")
        target = d
        for part in parents:
            target = target[int(part) if isinstance(target, list) else part]
        target[leaf] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        err = one_line_error(capsys, ["extract", "--config", str(path)])
        assert f"invalid config file {path}: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, message",
        [
            ("subset", "top level lacks key 'subset'"),
            ("train.seed", "train lacks key 'seed'"),
            ("welch.overlap", "welch lacks key 'overlap'"),
            ("model.dense_units", "model lacks key 'dense_units'"),
            ("model.convs.0.stride", "model.convs.0 lacks key 'stride'"),
        ],
    )
    def test_missing_key_in_config_is_one_line_error(self, tmp_path, capsys, key, message):
        d = RunConfig(output_dir=str(tmp_path / "out")).to_json_dict()
        *parents, leaf = key.split(".")
        target = d
        for part in parents:
            target = target[int(part) if isinstance(target, list) else part]
        del target[leaf]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        err = one_line_error(capsys, ["extract", "--config", str(path)])
        assert f"invalid config file {path}: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dropped, changes, message",
        [
            ((), {}, "top level has unknown key 'normalizer_epsilon'"),
            (("normalizer_epsilon",), {}, "model has unknown key 'classes'"),
            (("normalizer_epsilon",), {"classes": 5}, "model has unknown key 'classes'"),
            (("normalizer_epsilon", "classes", "dense_activation"), {},
             "model.convs.0 has unknown key 'activation'"),
            (("normalizer_epsilon", "classes", "dense_activation", "activation"), {},
             "model.convs.0 has unknown key 'in_streams'"),
        ],
        ids=["as-written", "no-epsilon", "classes-5", "no-model-extras", "no-activations"],
    )
    def test_old_default_config_fails_train_before_any_file_is_read(
        self, tmp_path, capsys, no_dataset_read, dropped, changes, message
    ):
        d = copy.deepcopy(OLD_DEFAULT_CONFIG)
        d["model"].update(changes)
        for obj in (d, d["model"], *d["model"]["convs"]):
            for key in dropped:
                obj.pop(key, None)
        d["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        err = one_line_error(capsys, ["train", "--config", str(path)])
        assert err == f"error: invalid config file {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "extract", "train", "evaluate"])
    def test_non_string_dataset_root_is_one_line_error_on_every_command(
        self, tmp_path, capsys, command
    ):
        d = dict(RunConfig(output_dir=str(tmp_path / "out")).to_json_dict(), dataset_root=5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        err = one_line_error(capsys, [command, "--config", str(path)])
        assert err == f"error: invalid config file {path}: dataset_root must be a string, got 5\n"

    @pytest.mark.parametrize("command", ["extract", "train", "evaluate"])
    @pytest.mark.parametrize(
        "length, message",
        [
            (6, "welch: segment_len must be a power of two >= 2, got 6"),
            (256, "welch.segment_len must be <= the window length 128, got 256"),
        ],
    )
    def test_segment_len_the_fft_refuses_fails_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, no_dataset_read, command, length, message
    ):
        d = RunConfig(output_dir=str(tmp_path / "out")).to_json_dict()
        d["welch"].update(segment_len=length, overlap=0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        monkeypatch.setattr(cli, "load_checkpoint", lambda *args: pytest.fail("checkpoint read"))
        err = one_line_error(capsys, [command, "--config", str(path)])
        assert err == f"error: invalid config file {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document", ["[]", "5", "null"])
    def test_non_object_config_is_one_line_error(self, tmp_path, capsys, document):
        path = tmp_path / "config.json"
        path.write_text(document)
        err = one_line_error(capsys, ["validate", "--config", str(path)])
        assert f"invalid config file {path}: top level must be an object, got " in err

    @pytest.mark.parametrize("flag", ["-1", "0"])
    def test_non_positive_subset_flag_is_one_line_error(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "out"
        err = one_line_error(capsys, ["extract", "--dataset", str(tmp_path / "data"),
                                      "--out", str(out_dir), "--subset", flag])
        assert f"subset must be null or an integer >= 1, got {flag}" in err
        assert not out_dir.exists()

    def test_negative_seed_flag_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "extract_features", lambda *args, **kwargs: pytest.fail("read"))
        out_dir = tmp_path / "out"
        err = one_line_error(capsys, ["train", "--dataset", str(tmp_path / "data"),
                                      "--out", str(out_dir), "--seed", "-1"])
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out_dir.exists()


class TestValidate:
    def test_mismatched_counts_exit_2_with_diff(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        code = main(["validate", "--dataset", str(root)])
        captured = capsys.readouterr()
        assert code == 2
        assert "count mismatches" in captured.err
        assert "train/Wlk: 2 != expected 1226" in captured.err
        assert "Wlk: 2" in captured.out

    def test_missing_signal_file_exit_2(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        (root / "train" / "Inertial Signals" / "body_acc_x_train.txt").unlink()
        code = main(["validate", "--dataset", str(root)])
        assert code == 2
        assert "body_acc_x_train.txt" in capsys.readouterr().err

    def test_truncated_label_file_exit_2(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        label_file = root / "train" / "y_train.txt"
        lines = label_file.read_text().splitlines(keepends=True)
        label_file.write_text("".join(lines[:-1]))
        code = main(["validate", "--dataset", str(root)])
        assert code == 2
        assert "labels for" in capsys.readouterr().err

    def test_missing_dataset_root_exit_2(self, tmp_path):
        assert main(["validate", "--dataset", str(tmp_path / "nowhere")]) == 2


class TestExtract:
    def test_writes_caches_and_stats(self, trained_pipeline):
        _, out_dir, _ = trained_pipeline
        train_cache = read_feature_cache(out_dir / "train_features.bin")
        test_cache = read_feature_cache(out_dir / "test_features.bin")
        assert len(train_cache) == 72
        assert len(test_cache) == 36
        assert train_cache.freq.shape == (72, 9, 65)
        assert train_cache.power.shape == (72, 9, 33)
        assert (out_dir / "norm_stats.bin").is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, out_dir))
        assert main(["extract", "--config", cfg_path]) == 0
        first = (out_dir / "train_features.bin").read_bytes()
        stats_first = (out_dir / "norm_stats.bin").read_bytes()
        assert main(["extract", "--config", cfg_path]) == 0
        assert (out_dir / "train_features.bin").read_bytes() == first
        assert (out_dir / "norm_stats.bin").read_bytes() == stats_first

    def test_non_ascii_byte_exit_2_names_file_and_line(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        victim = root / "train" / "Inertial Signals" / "body_gyro_z_train.txt"
        lines = victim.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"e", "é".encode("utf-8"), 1)
        victim.write_bytes(b"".join(lines))
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "out"))
        capsys.readouterr()
        assert main(["extract", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "body_gyro_z_train.txt: line 3: non-ASCII byte 0xc3" in err

    def test_subset_limits_cache(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, out_dir))
        assert main(["extract", "--config", cfg_path, "--subset", "5"]) == 0
        assert len(read_feature_cache(out_dir / "train_features.bin")) == 5

    def test_subset_is_cut_before_extracting(self, tmp_path, monkeypatch):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "full"))
        assert main(["extract", "--config", cfg_path]) == 0
        seen = []
        transform = features._rows_features

        def counting_transform(rows, welch):
            seen.append(len(rows))
            return transform(rows, welch)

        monkeypatch.setattr(features, "_rows_features", counting_transform)
        assert main(["extract", "--config", cfg_path, "--subset", "5", "--out", str(tmp_path / "cut")]) == 0
        assert seen == [5] * 2 * N_STREAMS  # 5 rows per stream and split
        for name in ("train_features.bin", "test_features.bin"):
            full = read_feature_cache(tmp_path / "full" / name)
            cut = read_feature_cache(tmp_path / "cut" / name)
            assert np.array_equal(cut.freq, full.freq[:5])
            assert np.array_equal(cut.power, full.power[:5])
            assert np.array_equal(cut.labels, full.labels[:5])


    @pytest.mark.parametrize("cpus", [4, 1])
    @pytest.mark.parametrize("subset", [None, 5])
    def test_writes_the_bytes_of_the_whole_split_path(self, tmp_path, monkeypatch, cpus, subset):
        # The caches and stats of load_split -> extract_split -> fit_normalizer_arrays.
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        cfg = replace(smoke_config(root, tmp_path / "out"), subset=subset)
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        assert main(["extract", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        want = tmp_path / "want"
        want.mkdir()
        keep = slice(subset)
        for split in SPLITS:
            whole = extract_split(load_split(root, split, strict_counts=False), cfg.welch)
            cut = FeatureSet(whole.freq[keep], whole.power[keep], whole.labels[keep])
            write_feature_cache(want / cli.CACHE_NAMES[split], cut)
            if split == "train":
                norm = fit_normalizer_arrays(cut.freq, cut.power)
        save_norm_stats(want / cli.NORM_NAME, norm, extraction_record(root, cfg.welch, subset))
        for name in (*cli.CACHE_NAMES.values(), cli.NORM_NAME):
            assert (tmp_path / "out" / name).read_bytes() == (want / name).read_bytes(), name

    # validate reads every split with strict_counts off, as these rows do.
    @pytest.mark.parametrize("command, damage, strict",
                             [(command, damage, False) for damage in TRAIN_DAMAGE
                              for command in ("extract", "validate")]
                             + [("extract", None, True)])
    def test_fails_as_load_split_does(self, tmp_path, capsys, command, damage, strict):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        if damage:
            TRAIN_DAMAGE[damage](root / "train")
        with pytest.raises(DatasetError) as info:
            load_split(root, "train", strict_counts=strict)
        cfg = replace(smoke_config(root, tmp_path / "out"), strict_counts=strict)
        capsys.readouterr()
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert capsys.readouterr().err == f"dataset error: {info.value}\n"

    # The first task to know its row count makes the split's stacks; a task of another count
    # writes nothing, whichever stream it is and however many tasks run at once.
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("damage", ["short_first_stream", "two_bad_streams"])
    def test_row_count_faults_fail_alike_on_every_cpu_count(self, tmp_path, capsys, monkeypatch,
                                                             damage, cpus):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        TRAIN_DAMAGE[damage](root / "train")
        with pytest.raises(DatasetError) as info:
            load_split(root, "train", strict_counts=False)
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        capsys.readouterr()
        assert main(["extract", "--config",
                     write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "out"))]) == 2
        assert capsys.readouterr().err == f"dataset error: {info.value}\n"

    @pytest.mark.parametrize("command", ["extract", "train"])
    def test_missing_dataset_makes_no_output_directory(self, tmp_path, capsys, command):
        out_dir = tmp_path / "new_dir"
        capsys.readouterr()
        assert main([command, "--dataset", str(tmp_path / "nowhere"), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("dataset error: missing file: ")
        assert not out_dir.exists()

    def test_train_features_are_released_before_the_test_split_is_read(self, tmp_path,
                                                                        monkeypatch):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=50, test_per_class=2)
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "out"))
        extract, train_arrays, held = cli.extract_features, [], {}

        def watched(root, split, *args, **kwargs):
            held[split] = tracemalloc.get_traced_memory()[0]
            if split == "test":
                held["alive"] = [ref() is not None for ref in train_arrays]
            got = extract(root, split, *args, **kwargs)
            if split == "train":
                train_arrays.extend(weakref.ref(a) for a in (got[0].freq, got[0].power))
            return got

        monkeypatch.setattr(cli, "extract_features", watched)
        tracemalloc.start()
        try:
            assert main(["extract", "--config", cfg_path]) == 0
        finally:
            tracemalloc.stop()
        train = read_feature_cache(tmp_path / "out" / "train_features.bin")
        assert held["alive"] == [False, False]
        assert held["test"] - held["train"] < 0.1 * (train.freq.nbytes + train.power.nbytes)

    def test_empty_train_split_fails_before_any_cache_is_written(self, tmp_path, capsys):
        root = tmp_path / "data"
        for split in SPLITS:
            write_uci_split(root, split, np.zeros((0, N_STREAMS, WINDOW_LEN)),
                            np.zeros(0, np.int64), np.zeros(0, np.int64))
        out_dir = tmp_path / "out"
        err = one_line_error(capsys, ["extract", "--config",
                                      write_config(tmp_path / "c.json", smoke_config(root, out_dir))])
        assert err == "error: cannot fit a normalizer on an empty sequence\n"
        assert not out_dir.exists()

    def test_overflow_is_one_line_error(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=2, test_per_class=1)
        overflow_a_stream(root / "train")
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "out"))
        capsys.readouterr()
        assert main(["extract", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: arithmetic failed: overflow encountered in ")
        assert err.count("\n") == 1

    # The bound is the train split's float64 windows and features (16,272 bytes a window)
    # for extract, and its windows alone (9,216) for validate, which computes no features
    # and exits 2 because 1500 windows miss the published counts.
    @pytest.mark.parametrize("command, code, window_bytes", [
        ("extract", 0, N_STREAMS * (WINDOW_LEN + FREQ_BINS + WelchConfig().n_bins) * 8),
        ("validate", 2, N_STREAMS * WINDOW_LEN * 8),
    ])
    def test_peak_memory_is_below_the_whole_split_in_float64(self, tmp_path, monkeypatch,
                                                             command, code, window_bytes):
        # 1500 train windows in the UCI layout, made of 16 distinct lines so they are quick to write.
        n = 1500
        lines = [uci_line(row) + "\n" for row in np.random.default_rng(0).standard_normal((16, 128))]
        for split, rows in (("train", n), ("test", 6)):
            base = tmp_path / "data" / split
            (base / "Inertial Signals").mkdir(parents=True)
            for s, stream in enumerate(STREAM_NAMES):
                text = "".join(lines[(i + s) % 16] for i in range(rows))
                (base / "Inertial Signals" / f"{stream}_{split}.txt").write_text(text)
            (base / f"y_{split}.txt").write_text("".join(f"{i % 6 + 1}\n" for i in range(rows)))
            (base / f"subject_{split}.txt").write_text("".join(f"{i % 30 + 1}\n" for i in range(rows)))
        cfg_path = write_config(tmp_path / "c.json", smoke_config(tmp_path / "data", tmp_path / "out"))
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)  # the same threads on any host
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            assert main([command, "--config", cfg_path]) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole_split = n * window_bytes
        assert peak < whole_split, (peak, whole_split)


class TestTrain:
    def test_writes_checkpoint_and_epoch_log(self, trained_pipeline):
        _, out_dir, _ = trained_pipeline
        assert (out_dir / "checkpoint.bin").is_file()
        lines = (out_dir / "epochs.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc,test_precision,test_recall,test_f1"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_auto_extracts_when_caches_missing(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, out_dir, epochs=1))
        assert main(["train", "--config", cfg_path]) == 0
        assert "extracting" in capsys.readouterr().out
        assert (out_dir / "train_features.bin").is_file()
        assert (out_dir / "checkpoint.bin").is_file()

    def test_prints_each_epoch_line_with_its_wall_seconds(self, tmp_path, capsys):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "out", epochs=2))
        assert main(["train", "--config", cfg_path]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("epoch")]
        assert len(lines) == 2
        for n, line in enumerate(lines, 1):
            pattern = rf"epoch +{n}: train_loss \S+ train_acc \S+ test_acc \S+ \(\d+\.\d s\)"
            assert re.fullmatch(pattern, line)

    def test_extracting_run_trains_like_a_cached_run(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=4, test_per_class=2)
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, out_dir, epochs=2))
        runs = []
        for _ in range(2):  # the first run extracts, the second finds the caches
            assert main(["train", "--config", cfg_path]) == 0
            runs.append([(out_dir / name).read_bytes() for name in ("checkpoint.bin", "epochs.csv")])
        assert runs[0] == runs[1]


class TestStaleCaches:
    """train reuses the caches only when their extraction record matches this run's."""

    def extracted(self, tmp_path, **changes):
        """(config path, output dir) after an extract with the smoke config plus `changes`."""
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=3, test_per_class=2)
        out_dir = tmp_path / "out"
        cfg = smoke_config(root, out_dir, epochs=1)
        assert main(["extract", "--config", write_config(tmp_path / "first.json",
                                                           replace(cfg, **changes))]) == 0
        return write_config(tmp_path / "c.json", cfg), out_dir

    def train_line(self, capsys, cfg_path) -> str:
        """The line train prints about the caches."""
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 0
        return capsys.readouterr().out.splitlines()[0]

    def test_matching_record_reads_the_caches_and_no_dataset(self, tmp_path, capsys, monkeypatch):
        cfg_path, _ = self.extracted(tmp_path)
        forbid_calls(monkeypatch, dataset.parse_signal_file, "dataset read")
        assert self.train_line(capsys, cfg_path) == "using cached features"

    def test_matching_record_reads_the_stats_once(self, tmp_path, capsys, monkeypatch):
        cfg_path, _ = self.extracted(tmp_path)
        reads = []

        def counting(path):
            reads.append(path)
            return load_norm_stats(path)

        monkeypatch.setattr(cli, "load_norm_stats", counting)
        assert self.train_line(capsys, cfg_path) == "using cached features"
        assert len(reads) == 1

    def test_cache_of_a_subset_is_re_extracted(self, tmp_path, capsys):
        cfg_path, out_dir = self.extracted(tmp_path, subset=5)
        assert self.train_line(capsys, cfg_path) == \
            "extracting features: train.subset differs from this run's"
        assert len(read_feature_cache(out_dir / "train_features.bin")) == 18

    def test_changed_welch_overlap_is_re_extracted(self, tmp_path, capsys):
        # Overlap 16 gives the same 33 Welch bins, so no shape check would catch it.
        cfg_path, out_dir = self.extracted(tmp_path, welch=WelchConfig(overlap=16))
        stale = read_feature_cache(out_dir / "train_features.bin").power
        assert self.train_line(capsys, cfg_path) == \
            "extracting features: train.welch differs from this run's"
        fresh = read_feature_cache(out_dir / "train_features.bin").power
        assert fresh.shape == stale.shape and not np.array_equal(fresh, stale)

    def test_dataset_file_rewritten_at_the_same_size_is_re_extracted(self, tmp_path, capsys):
        cfg_path, out_dir = self.extracted(tmp_path)
        stale = read_feature_cache(out_dir / "train_features.bin").freq
        path = tmp_path / "data" / "train" / "Inertial Signals" / "body_acc_x_train.txt"
        before = path.stat()
        data = path.read_bytes()
        at = re.search(rb"[1-8]", data).start()
        path.write_bytes(data[:at] + bytes([data[at] + 1]) + data[at + 1:])
        # A new mtime set by hand, so a coarse file clock cannot hide the rewrite.
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 2_000_000_000))
        assert path.stat().st_size == before.st_size
        assert self.train_line(capsys, cfg_path) == \
            "extracting features: train.files differs from this run's"
        assert not np.array_equal(read_feature_cache(out_dir / "train_features.bin").freq, stale)

    def test_other_features_version_is_re_extracted(self, tmp_path, capsys, monkeypatch):
        cfg_path, _ = self.extracted(tmp_path)
        monkeypatch.setattr(features, "FEATURES_VERSION", features.FEATURES_VERSION + 1)
        assert self.train_line(capsys, cfg_path) == \
            "extracting features: train.features_version differs from this run's"

    def test_extract_that_failed_on_the_test_split_leaves_no_record(self, tmp_path, capsys):
        # The subset caches are complete; the full extract then replaces only the train cache.
        cfg_path, out_dir = self.extracted(tmp_path, subset=5)
        labels = tmp_path / "data" / "test" / "y_test.txt"
        pristine = labels.read_bytes()
        labels.write_bytes(b"9\n" + pristine)
        assert main(["extract", "--config", cfg_path]) == 2
        assert len(read_feature_cache(out_dir / "train_features.bin")) == 18
        assert not (out_dir / "norm_stats.bin").exists()
        labels.write_bytes(pristine)
        assert self.train_line(capsys, cfg_path) == "extracting features: norm_stats.bin is missing"
        assert len(read_feature_cache(out_dir / "test_features.bin")) == 12


class TestBlasPool:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def pool_after_import(self, preset: dict) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset, PYTHONPATH=str(Path(harcnn.__file__).parent.parent))
        code = f"import os, harcnn.cli; print(*(os.environ.get(v) for v in {self.VARS!r}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return out.split()

    def test_import_pins_one_blas_thread(self):
        assert self.pool_after_import({}) == ["1", "1", "1"]

    def test_a_users_own_value_is_kept(self):
        assert self.pool_after_import({"OPENBLAS_NUM_THREADS": "3"}) == ["3", "1", "1"]


class TestEvaluate:
    def test_report_is_self_consistent(self, trained_pipeline):
        _, out_dir, _ = trained_pipeline
        report = json.loads((out_dir / "report.json").read_text())
        cm = np.array(report["confusion"])
        assert report["accuracy"] == pytest.approx(np.trace(cm) / cm.sum(), abs=1e-12)
        for i, a in enumerate(report["class_order"]):
            row = cm[i]
            assert report["per_class_accuracy"][a] == pytest.approx(
                row[i] / row.sum(), abs=1e-12
            )
        assert set(report["auc"]) == {"Wlk", "WUp", "WDn", "Sit", "Stn", "Lay"}
        assert "reference_gap" in report

    def test_reference_gap_is_the_consoles_two_decimal_gap(self):
        # Rounding each term before subtracting wrote round(87.34, 2) - 95.25 = -7.909999999999997.
        per_class = np.array([0.9738, 0.9490, 0.9548, 0.9015, 0.9624, 0.9981])
        shorts = list(cli.REFERENCE_PER_CLASS_ACCURACY)
        report = {"accuracy": 0.8734, "per_class_accuracy": dict(zip(shorts, per_class.tolist()))}
        gap = cli._report_json_dict(report, "test")["reference_gap"]
        assert gap["accuracy"] == -7.91
        assert gap["per_class_accuracy"]["Sit"] == 2.98
        for short, acc in zip(shorts, 100.0 * per_class):
            console = f"{acc - cli.REFERENCE_PER_CLASS_ACCURACY[short]:+.2f}"
            assert gap["per_class_accuracy"][short] == float(console)

    def test_console_prints_the_reports_own_gaps(self, trained_pipeline, tmp_path, capsys):
        _, out_dir, cfg_path = trained_pipeline
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(out_dir / "checkpoint.bin")]) == 0
        out = capsys.readouterr().out
        gap = json.loads((tmp_path / "eval" / "report.json").read_text())["reference_gap"]
        per_class = re.findall(r"^  (\w+): .*, gap ([-+]\d+\.\d\d)\)$", out, re.M)
        assert {short: float(g) for short, g in per_class} == gap["per_class_accuracy"]
        (accuracy,) = re.findall(r"^reference accuracy 95\.25%, gap ([-+]\d+\.\d\d)$", out, re.M)
        assert float(accuracy) == gap["accuracy"]

    def test_roc_files_written(self, trained_pipeline):
        _, out_dir, _ = trained_pipeline
        for label in ("Wlk", "WUp", "WDn", "Sit", "Stn", "Lay"):
            lines = (out_dir / f"roc_{label}.csv").read_text().splitlines()
            assert lines[0] == "fpr,tpr"
            assert lines[1] == "0.000000000,0.000000000"
            assert lines[-1] == "1.000000000,1.000000000"

    def test_train_split_evaluation(self, trained_pipeline, tmp_path):
        root, out_dir, cfg_path = trained_pipeline
        code = main(["evaluate", "--config", str(cfg_path), "--split", "train",
                     "--out", str(tmp_path / "train_eval"),
                     "--checkpoint", str(out_dir / "checkpoint.bin")])
        assert code == 0
        report = json.loads((tmp_path / "train_eval" / "report.json").read_text())
        assert report["split"] == "train"
        assert "reference_gap" not in report

    def test_reads_no_whole_split(self, trained_pipeline, tmp_path, monkeypatch):
        _, out_dir, cfg_path = trained_pipeline

        for whole_split in (dataset.load_split, features.extract_split):
            forbid_calls(monkeypatch, whole_split, "whole-split path called")
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(out_dir / "checkpoint.bin")]) == 0
        assert (tmp_path / "eval" / "report.json").read_bytes() == \
            (out_dir / "report.json").read_bytes()

    # The report needs every class among the scored windows; the first 30 of 36 hold all six.
    @pytest.mark.parametrize("subset", [None, 30])
    def test_scores_the_features_extract_caches(self, trained_pipeline, tmp_path, monkeypatch,
                                                subset):
        root, out_dir, _ = trained_pipeline
        cfg = replace(smoke_config(root, tmp_path / "out"), subset=subset)
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["extract", "--config", cfg_path]) == 0
        predicted, reported = [], []

        def predicting(params, freq, power):
            predicted.append({"freq": freq, "power": power})
            return model.predict_batch(params, freq, power)

        def reporting(probs, labels):
            reported.append({"labels": labels})
            return metrics.report_from_predictions(probs, labels)

        monkeypatch.setattr(cli, "predict_batch", predicting)
        monkeypatch.setattr(cli, "report_from_predictions", reporting)
        assert main(["evaluate", "--config", cfg_path,
                     "--checkpoint", str(out_dir / "checkpoint.bin")]) == 0
        cached = read_feature_cache(tmp_path / "out" / "test_features.bin")
        (inputs,), (truth,) = predicted, reported
        got = {**inputs, **truth}
        assert len(got["labels"]) == (subset or 36)
        for name in ("freq", "power", "labels"):
            a, b = got[name], getattr(cached, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    def test_empty_split_is_a_one_line_error(self, trained_pipeline, tmp_path, capsys):
        _, out_dir, _ = trained_pipeline
        root = tmp_path / "data"
        write_uci_split(root, "test", np.zeros((0, N_STREAMS, WINDOW_LEN)),
                        np.zeros(0, np.int64), np.zeros(0, np.int64))
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, tmp_path / "eval"))
        err = one_line_error(capsys, ["evaluate", "--config", cfg_path,
                                      "--checkpoint", str(out_dir / "checkpoint.bin")])
        assert err == "error: cannot evaluate an empty split\n"
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_report_follows_the_checkpoints_welch_config(self, trained_pipeline, tmp_path):
        # Overlap 16 gives the same 33 Welch bins, so no shape check would catch a mix-up.
        root, _, _ = trained_pipeline
        trained = replace(smoke_config(root, tmp_path / "out", epochs=1),
                          welch=WelchConfig(overlap=16))
        assert main(["train", "--config", write_config(tmp_path / "c.json", trained)]) == 0
        outputs = []
        for overlap in (16, 32):
            cfg = replace(trained, welch=WelchConfig(overlap=overlap),
                          output_dir=str(tmp_path / f"eval{overlap}"))
            assert main(["evaluate", "--config", write_config(tmp_path / f"e{overlap}.json", cfg),
                         "--checkpoint", str(tmp_path / "out" / "checkpoint.bin")]) == 0
            outputs.append([(tmp_path / f"eval{overlap}" / name).read_bytes()
                            for name in ("report.json", "roc_Wlk.csv", "roc_Lay.csv")])
        assert outputs[0] == outputs[1]

    def test_missing_checkpoint_is_internal_error(self, trained_pipeline, capsys):
        root, out_dir, cfg_path = trained_pipeline
        code = main(["evaluate", "--config", str(cfg_path),
                     "--checkpoint", str(out_dir / "missing.bin")])
        assert code == 1

    def test_failed_evaluate_makes_no_output_directory(self, trained_pipeline, tmp_path):
        _, out_dir, cfg_path = trained_pipeline
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "new_dir"),
                     "--checkpoint", str(out_dir / "missing.bin")]) == 1
        assert not (tmp_path / "new_dir").exists()

    def test_checkpoint_missing_meta_key_is_one_line_error(self, trained_pipeline, tmp_path, capsys):
        root, out_dir, cfg_path = trained_pipeline
        data = (out_dir / "checkpoint.bin").read_bytes()
        (meta_len,) = struct.unpack("<I", data[10:14])
        meta = b'{"freq_bins": 65}'
        bad = tmp_path / "bad_meta.bin"
        bad.write_bytes(data[:10] + struct.pack("<I", len(meta)) + meta + data[14 + meta_len :])
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "lacks key 'architecture'" in err


    def test_checkpoint_with_old_architecture_metadata_is_one_line_error(
        self, trained_pipeline, tmp_path, capsys
    ):
        _, out_dir, cfg_path = trained_pipeline
        data = (out_dir / "checkpoint.bin").read_bytes()
        (meta_len,) = struct.unpack("<I", data[10:14])
        meta = json.loads(data[14 : 14 + meta_len])
        architecture = meta["architecture"]
        architecture.update(classes=6, dense_activation="relu")
        for conv, in_streams in zip(architecture["convs"], [9, 8]):
            conv.update(activation="relu", in_streams=in_streams)
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        old = tmp_path / "old_meta.bin"
        old.write_bytes(data[:10] + struct.pack("<I", len(meta_bytes)) + meta_bytes + data[14 + meta_len :])
        err = one_line_error(capsys, ["evaluate", "--config", str(cfg_path), "--checkpoint", str(old),
                                      "--out", str(tmp_path / "eval")])
        assert err == (f"error: {old}: malformed checkpoint metadata: "
                       "metadata.architecture has unknown key 'classes'\n")
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_checkpoint_without_stats_is_one_line_error(self, trained_pipeline, tmp_path, capsys):
        # The layout of a model saved without stats: no "norm.*" records.
        _, out_dir, cfg_path = trained_pipeline
        data = (out_dir / "checkpoint.bin").read_bytes()
        # The norm records close the file; the first starts with its u32 name length.
        bare = tmp_path / "bare.bin"
        bare.write_bytes(data[: data.index(b"norm.freq_mean") - 4])
        err = one_line_error(capsys, ["evaluate", "--config", str(cfg_path), "--checkpoint",
                                      str(bare), "--out", str(tmp_path / "eval")])
        assert err == f"error: {bare}: missing tensor record 'norm.freq_mean'\n"
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_checkpoint_segment_longer_than_window_is_one_line_error(
        self, trained_pipeline, tmp_path, capsys
    ):
        _, out_dir, cfg_path = trained_pipeline
        data = (out_dir / "checkpoint.bin").read_bytes()
        (meta_len,) = struct.unpack("<I", data[10:14])
        meta = json.loads(data[14 : 14 + meta_len])
        meta["welch"] = {"segment_len": 256, "overlap": 0, "window_kind": "hamming"}
        meta_bytes = json.dumps(meta).encode()
        bad = tmp_path / "long_segment.bin"
        bad.write_bytes(data[:10] + struct.pack("<I", len(meta_bytes)) + meta_bytes + data[14 + meta_len :])
        err = one_line_error(capsys, ["evaluate", "--config", str(cfg_path), "--checkpoint", str(bad),
                                      "--out", str(tmp_path / "eval")])
        # The stats' 33 power bins are not the 129 a 256-sample segment gives.
        assert err == (f"error: {bad}: inconsistent checkpoint: "
                       "stats for (65, 33) bins, welch gives (65, 129)\n")


class TestNonFiniteLogits:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN fed on purpose
    def test_nan_in_feature_cache_stops_train(self, trained_pipeline, tmp_path, capsys):
        root, out_dir, _ = trained_pipeline
        work = tmp_path / "out"
        work.mkdir()
        for name in ("train_features.bin", "test_features.bin", "norm_stats.bin"):
            (work / name).write_bytes((out_dir / name).read_bytes())
        cache = bytearray((work / "train_features.bin").read_bytes())
        # Header is 20 bytes, then the first record's u8 label and its float32 freq matrix.
        cache[21:25] = struct.pack("<f", np.nan)
        (work / "train_features.bin").write_bytes(bytes(cache))
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, work, epochs=1))
        err = one_line_error(capsys, ["train", "--config", cfg_path])
        assert "non-finite" in err
        assert not (work / "checkpoint.bin").exists()
        assert not (work / "epochs.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN fed on purpose
    def test_nan_in_checkpoint_stops_evaluate(self, trained_pipeline, tmp_path, capsys):
        _, out_dir, cfg_path = trained_pipeline
        data = bytearray((out_dir / "checkpoint.bin").read_bytes())
        # Record: u32 name length, name, u32 rank (2), two u32 dims, float32 data.
        start = data.index(b"fusion.w") + len(b"fusion.w") + 4 + 8
        data[start : start + 4] = struct.pack("<f", np.nan)
        bad = tmp_path / "nan.bin"
        bad.write_bytes(bytes(data))
        err = one_line_error(capsys, ["evaluate", "--config", str(cfg_path), "--checkpoint",
                                      str(bad), "--out", str(tmp_path / "eval")])
        assert "non-finite" in err
        assert not (tmp_path / "eval" / "report.json").exists()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN fed on purpose
    def test_nan_in_a_worker_chunk_stops_evaluate(
        self, trained_pipeline, tmp_path, capsys, monkeypatch, four_cpus, seven_row_chunks
    ):
        _, out_dir, cfg_path = trained_pipeline
        nan_in_worker_chunks(monkeypatch)
        err = one_line_error(capsys, ["evaluate", "--config", str(cfg_path), "--checkpoint",
                                      str(out_dir / "checkpoint.bin"), "--out", str(tmp_path / "eval")])
        assert "non-finite" in err
        assert not (tmp_path / "eval" / "report.json").exists()


INF = struct.pack("<f", np.inf)

# Artifact, the command that reads it, where to write (from the file's bytes),
# what to write there, and the fault the one-line error must name.
CORRUPTIONS = {
    "label-7": ("train_features.bin", "train", lambda data: 20, b"\x07", "record 0 has label 7"),
    "label-200": ("train_features.bin", "train", lambda data: 20, b"\xc8", "record 0 has label 200"),
    "label-0": ("train_features.bin", "train", lambda data: 20, b"\x00", "record 0 has label 0"),
    "inf-feature": ("train_features.bin", "train", lambda data: 21, INF, "non-finite"),
    "inf-weight": (
        "checkpoint.bin", "evaluate", lambda data: data.index(b"fusion.w") + 20, INF,
        "record 'fusion.w' holds non-finite values",
    ),
    "inf-checkpoint-std": (
        "checkpoint.bin", "evaluate", lambda data: len(data) - 4, INF,
        "record 'norm.power_std' holds non-finite values",
    ),
    "negative-checkpoint-std": (
        "checkpoint.bin", "evaluate", lambda data: len(data) - 4, struct.pack("<f", -1.0),
        "inconsistent checkpoint: power_std holds a negative std",
    ),
    "inf-stats": (
        "norm_stats.bin", "train", lambda data: len(data) - 4, INF,
        "record 'norm.power_std' holds non-finite values",
    ),
}


class TestCorruptArtifacts:
    def run_damaged(self, trained_pipeline, tmp_path, capsys, name, command, where, value):
        """One-line error of `command` after writing `value` at where(data) of artifact `name`."""
        root, out_dir, _ = trained_pipeline
        work = tmp_path / "out"
        work.mkdir()
        for artifact in ("train_features.bin", "test_features.bin", "norm_stats.bin", "checkpoint.bin"):
            (work / artifact).write_bytes((out_dir / artifact).read_bytes())
        data = bytearray((work / name).read_bytes())
        at = where(data)
        data[at : at + len(value)] = value
        (work / name).write_bytes(bytes(data))
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, work, epochs=1))
        err = one_line_error(capsys, [command, "--config", cfg_path])
        assert not (work / "epochs.csv").exists() and not (work / "report.json").exists()
        return err

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_one_line_error_starts_with_path(self, trained_pipeline, tmp_path, capsys, case):
        name, command, where, value, message = CORRUPTIONS[case]
        err = self.run_damaged(trained_pipeline, tmp_path, capsys, name, command, where, value)
        assert err.startswith(f"error: {tmp_path / 'out' / name}: ")
        assert message in err

    def test_huge_finite_feature_overflow_is_one_line_error(self, trained_pipeline, tmp_path, capsys):
        huge = struct.pack("<f", 3e38)
        err = self.run_damaged(trained_pipeline, tmp_path, capsys, "train_features.bin", "train",
                               lambda data: 21, huge)
        assert err.startswith("error: arithmetic failed: overflow encountered in ")


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=6, test_per_class=3)
        outputs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            cfg_path = write_config(tmp_path / f"{name}.json",
                                    smoke_config(root, out_dir, epochs=3, seed=17))
            assert main(["extract", "--config", cfg_path]) == 0
            assert main(["train", "--config", cfg_path]) == 0
            assert main(["evaluate", "--config", cfg_path]) == 0
            outputs.append({
                "epochs": (out_dir / "epochs.csv").read_bytes(),
                "checkpoint": (out_dir / "checkpoint.bin").read_bytes(),
                "report": (out_dir / "report.json").read_bytes(),
            })
        assert outputs[0]["epochs"] == outputs[1]["epochs"]
        assert outputs[0]["checkpoint"] == outputs[1]["checkpoint"]
        assert outputs[0]["report"] == outputs[1]["report"]
