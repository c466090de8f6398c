"""Smoke test of the benchmark harness on a tiny dataset.

Runs every workload's set-up, a timed op, a traced op and a memory op
in-process on a few windows per class, with `strict_counts: false` and
`subset`. It asserts that the output checks pass, the per-layer metrics
are complete and the bypasses hold; it makes no wall-clock asserts.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import synth  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

from harcnn import cli, dsp, model  # noqa: E402

SUBSET = 40


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_smoke")
    data = root / "data"
    synth.write_dataset(data, seed=5, per_class=8)
    checks.write_oracle(data, seed=5, per_class=8)
    cfg = cli.RunConfig().to_json_dict()
    cfg.update(dataset_root=str(data), output_dir=str(root / "out"), strict_counts=False,
               subset=SUBSET)
    cfg["train"]["epochs"] = 1
    cfg["model"]["dense_units"] = 16
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_synthetic_text_parses_to_the_generated_values(tmp_path):
    synth.write_dataset(tmp_path, seed=1, per_class=2)
    windows, labels, _ = synth.split_arrays(1, "test", per_class=2)
    from harcnn.dataset import load_split

    manifest = load_split(tmp_path, "test", strict_counts=False)
    assert (manifest.windows == windows).all()
    assert (manifest.labels == labels).all()


@pytest.mark.parametrize("name", ["ingest", "train", "evaluate"])
def test_workload_modes(config, name, monkeypatch):
    # One epoch on 40 windows is not held to the full-size accuracy floor.
    monkeypatch.setattr(checks, "TEST_ACC_FLOOR", 0.0)
    assert workload.run_mode(name, "setup", config)["setup_s"] > 0

    timed = workload.run_mode(name, "time", config)
    assert timed["problems"] == [] and timed["digest"]

    traced = workload.run_mode(name, "trace", config)
    assert traced["problems"] == [] and traced["digest"] == timed["digest"]
    metrics = {k: v for k, (v, _) in traced["metrics"].items()}
    for span in tracer.SPAN_NAMES:
        assert f"{span}.self_s" in metrics and f"{span}.calls" in metrics
    assert metrics["cli.main.calls"] == 1
    assert metrics["trace.self_sum_s"] == pytest.approx(traced["op_s"], rel=0.05)
    calls = {k[: -len(".calls")]: v for k, v in metrics.items() if k.endswith(".calls")}
    if name == "train":
        assert all(v == 0 for k, v in calls.items() if k.split(".")[0] in ("dataset", "dsp"))
        assert metrics["train.steps"] > 0
    if name == "ingest":
        model_layers = ("layers", "model", "train")
        assert all(v == 0 for k, v in calls.items() if k.split(".")[0] in model_layers)
        assert metrics["dataset.text_mb"] > 0

    memory = workload.run_mode(name, "memory", config)
    assert memory["problems"] == [] and memory["digest"] == timed["digest"]


def test_wrappers_are_restored(config):
    originals = (cli.main, cli.load_split, model.conv1d_forward, dsp.fft_real)
    workload.run_mode("ingest", "trace", config)
    assert (cli.main, cli.load_split, model.conv1d_forward, dsp.fft_real) == originals


def test_checks_reject_wrong_features(config):
    workload.run_mode("ingest", "time", config)
    cfg = json.loads(config.read_text())
    out = Path(cfg["output_dir"])
    oracle = checks.load_oracle(Path(cfg["dataset_root"]))
    assert checks.check_ingest(out, oracle, SUBSET) == []
    oracle["test_power"] = oracle["test_power"] * (1 + 1e-5)
    assert checks.check_ingest(out, oracle, SUBSET) == [
        "test: power features differ from the numpy Welch oracle"
    ]
