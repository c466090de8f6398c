import json
import struct
from functools import partial

import numpy as np
import pytest

from conftest import build_synthetic_dataset, nan_in_worker_chunks
from harcnn import cli, metrics, model
from harcnn.cli import RunConfig, default_config_json, load_config, main
from harcnn.dsp import WelchConfig
from harcnn.features import read_feature_cache
from harcnn.model import ConvLayerSpec, ModelSpec
from harcnn.train import TrainConfig

SMOKE_MODEL = ModelSpec(
    convs=(
        ConvLayerSpec(in_streams=9, filters=8, kernel_len=7),
        ConvLayerSpec(in_streams=8, filters=16, kernel_len=5),
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
        assert d["model"]["dense_units"] == 128
        assert [c["filters"] for c in d["model"]["convs"]] == [32, 64]


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
            ("subset", "5", "subset must be null or an integer >= 1, got '5'"),
            ("subset", True, "subset must be null or an integer >= 1, got True"),
            ("strict_counts", "false", "strict_counts must be true or false, got 'false'"),
            ("normalizer_epsilon", True, "normalizer_epsilon must be numeric, got True"),
            ("normalizer_epsilon", "1e-8", "normalizer_epsilon must be numeric, got '1e-8'"),
            ("normalizer_epsilon", -1.0, "normalizer_epsilon must be finite and > 0, got -1.0"),
            ("normalizer_epsilon", 0, "normalizer_epsilon must be finite and > 0, got 0"),
            ("normalizer_epsilon", float("inf"), "normalizer_epsilon must be finite and > 0, got inf"),
            ("train.seed", 1.5, "seed must be integer, got 1.5"),
            ("train.batch_size", 2.5, "batch_size must be integer, got 2.5"),
            ("train.epochs", 1.5, "epochs must be integer, got 1.5"),
            ("train.learning_rate", True, "learning_rate must be numeric, got True"),
            ("train.beta2", "0.9", "beta2 must be numeric, got '0.9'"),
            ("train.adam_eps", 0.0, "learning_rate and adam_eps must be positive"),
            ("model.pool_widths", [2.0, 2], "pool_widths must be integer, got (2.0, 2)"),
            ("model.dense_units", 8.5, "dense_units must be integer, got 8.5"),
            ("model.classes", True, "classes must be integer, got True"),
            ("model.convs.0.stride", 1.0, "stride must be integer, got 1.0"),
            ("welch.segment_len", 64.0, "segment_len must be integer, got 64.0"),
            ("welch.overlap", False, "overlap must be integer, got False"),
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

    @pytest.mark.parametrize("flag", ["-1", "0"])
    def test_non_positive_subset_flag_is_one_line_error(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "out"
        err = one_line_error(capsys, ["extract", "--dataset", str(tmp_path / "data"),
                                      "--out", str(out_dir), "--subset", flag])
        assert f"subset must be null or an integer >= 1, got {flag}" in err
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


    def test_extracting_run_trains_like_a_cached_run(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "data", train_per_class=4, test_per_class=2)
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", smoke_config(root, out_dir, epochs=2))
        runs = []
        for _ in range(2):  # the first run extracts, the second finds the caches
            assert main(["train", "--config", cfg_path]) == 0
            runs.append([(out_dir / name).read_bytes() for name in ("checkpoint.bin", "epochs.csv")])
        assert runs[0] == runs[1]


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

    def test_missing_checkpoint_is_internal_error(self, trained_pipeline, capsys):
        root, out_dir, cfg_path = trained_pipeline
        code = main(["evaluate", "--config", str(cfg_path),
                     "--checkpoint", str(out_dir / "missing.bin")])
        assert code == 1

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
        self, trained_pipeline, tmp_path, capsys, monkeypatch, four_cpus
    ):
        _, out_dir, cfg_path = trained_pipeline
        monkeypatch.setattr(metrics, "predict_batch", partial(model.predict_batch, chunk=7))
        nan_in_worker_chunks(monkeypatch)
        err = one_line_error(capsys, ["evaluate", "--config", str(cfg_path), "--checkpoint",
                                      str(out_dir / "checkpoint.bin"), "--out", str(tmp_path / "eval")])
        assert "non-finite" in err
        assert not (tmp_path / "eval" / "report.json").exists()


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
