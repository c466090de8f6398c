"""Acceptance gate: one test per criterion at its stated tolerance.

Each test prints a `[criterion N] ... PASS` line (visible with `pytest -s`
or in the captured output). Criteria 1, 2, 7, 8, and 9 exercise the
published dataset; they skip with an explicit reason when it is not
present (see conftest.real_dataset_root for the lookup).
"""

import json
import time

import numpy as np
import pytest

from conftest import make_norm, real_dataset_root
from harcnn import cli
from harcnn.cli import RunConfig
from harcnn.dataset import N_STREAMS, Activity, load_split
from harcnn.dsp import WelchConfig, fft_real, welch_psd
from harcnn.features import FeatureSet, extract_split, fit_normalizer_arrays
from harcnn.layers import softmax_cross_entropy_batch
from harcnn.metrics import report_from_predictions, roc_curve
from harcnn.model import (
    DEFAULT_MODEL_SPEC,
    ConvLayerSpec,
    ModelSpec,
    backward_batch,
    forward_batch,
    init_model,
)
from harcnn.train import TrainConfig, train
from test_dsp import naive_dft, rel_err

REAL_ROOT = real_dataset_root()

needs_dataset = pytest.mark.skipif(
    REAL_ROOT is None,
    reason="published dataset not found; set HARCNN_DATASET or place it at "
    "data/UCI HAR Dataset",
)


def passed(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {name}: PASS{suffix}")


def skipped(num, name, reason):
    print(f"\n[criterion {num:2d}] {name}: SKIP ({reason})")
    pytest.skip(reason)


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory):
    """Extract + train + evaluate on the published dataset, default config."""
    out_dir = tmp_path_factory.mktemp("acceptance_run")
    cfg = RunConfig(dataset_root=str(REAL_ROOT), output_dir=str(out_dir))
    started = time.monotonic()
    assert cli.cmd_extract(cfg) == 0
    assert cli.cmd_train(cfg) == 0
    assert cli.cmd_evaluate(cfg, out_dir / "checkpoint.bin", "test") == 0
    elapsed = time.monotonic() - started
    report = json.loads((out_dir / "report.json").read_text())
    return report, elapsed, out_dir


class TestCriterion01EndToEndAccuracy:
    NAME = "end-to-end test accuracy >= 92%"

    @needs_dataset
    def test_full_pipeline_accuracy_band(self, full_pipeline):
        report, elapsed, _ = full_pipeline
        assert "reference_gap" in report, "report must carry the gap to reference values"
        assert elapsed <= 30 * 60, f"pipeline took {elapsed:.0f}s, budget is 30 minutes"
        assert report["accuracy"] >= 0.92, f"test accuracy {report['accuracy']:.4f} < 0.92"
        passed(
            1,
            self.NAME,
            f"accuracy {100 * report['accuracy']:.2f}%, "
            f"gap to reference {report['reference_gap']['accuracy']:+.2f}, {elapsed:.0f}s",
        )

    def test_skip_note(self):
        if REAL_ROOT is None:
            skipped(1, self.NAME, "published dataset not available")


class TestCriterion02ClassStructure:
    NAME = "Lay accuracy >= 98% and Sit/Stn dominate the confusion"

    @needs_dataset
    def test_confusion_structure(self, full_pipeline):
        report, _, _ = full_pipeline
        lay_acc = report["per_class_accuracy"]["Lay"]
        assert lay_acc >= 0.98, f"Lay per-class accuracy {lay_acc:.4f} < 0.98"
        cm = np.array(report["confusion"])
        off = cm.copy()
        np.fill_diagonal(off, 0)
        row, col = np.unravel_index(np.argmax(off), off.shape)
        sit, stn = Activity.SITTING.value - 1, Activity.STANDING.value - 1
        assert (row, col) in {(sit, stn), (stn, sit)}, (
            f"largest off-diagonal cell is {Activity(row + 1).short}->"
            f"{Activity(col + 1).short}, expected Sit<->Stn"
        )
        passed(2, self.NAME, f"Lay {100 * lay_acc:.2f}%, top confusion "
                             f"{Activity(row + 1).short}->{Activity(col + 1).short}")

    def test_skip_note(self):
        if REAL_ROOT is None:
            skipped(2, self.NAME, "published dataset not available")


class TestCriterion03DftOracle:
    NAME = "FFT matches the quadratic-time transform oracle to 1e-9"

    def test_256_signals_against_oracle(self):
        sizes = [8, 16, 32, 64, 128, 256, 512, 1024]
        rng = np.random.default_rng(42)
        started = time.monotonic()
        # Same transform sum as naive_dft, with the matrix built once per
        # size instead of once per signal.
        matrices = {}
        for n in sizes:
            k = np.arange(n)
            matrices[n] = np.exp(-2j * np.pi * np.outer(k, k) / n)
        worst = 0.0
        for i in range(256):
            n = sizes[i % len(sizes)]
            x = rng.standard_normal(n)
            worst = max(worst, rel_err(fft_real(x), matrices[n] @ x))
        elapsed = time.monotonic() - started
        assert worst <= 1e-9, f"max relative error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
        passed(3, self.NAME, f"max rel err {worst:.2e}, {elapsed:.2f}s")


class TestCriterion04Parseval:
    NAME = "Parseval energy identity to 1e-9 on 1000 signals"

    def test_energy_identity(self):
        sizes = [8, 16, 32, 64, 128, 256, 512, 1024]
        rng = np.random.default_rng(7)
        started = time.monotonic()
        worst = 0.0
        for i in range(1000):
            x = rng.standard_normal(sizes[i % len(sizes)]) * rng.uniform(0.1, 10.0)
            time_energy = np.sum(x * x)
            spec_energy = np.sum(np.abs(fft_real(x)) ** 2) / x.size
            worst = max(worst, abs(spec_energy - time_energy) / time_energy)
        elapsed = time.monotonic() - started
        assert worst <= 1e-9, f"max relative error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
        passed(4, self.NAME, f"max rel err {worst:.2e}, {elapsed:.2f}s")


class TestCriterion05WelchSanity:
    NAME = "Welch PSD sanity (single segment, white noise, sinusoid peak)"

    def test_welch_triple(self):
        # (a) single rectangular segment equals the plain periodogram
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        est = welch_psd(x, WelchConfig(segment_len=64, overlap=0, window_kind="rectangular"))
        spec = fft_real(x)
        plain = (spec.real**2 + spec.imag**2)[:33] / 64
        plain[1:-1] *= 2.0
        assert np.array_equal(est, plain), "single-segment Welch differs from the periodogram"

        # (b) unit-variance white noise: total power within 10% over 50 seeds
        totals = []
        for seed in range(50):
            noise = np.random.default_rng(900 + seed).standard_normal(4096)
            totals.append(np.sum(welch_psd(noise, WelchConfig(64, 32, "hamming"))) / 64)
        mean_total = float(np.mean(totals))
        assert abs(mean_total - 1.0) < 0.10, f"mean total power {mean_total:.4f}"

        # (c) exact-bin sinusoid peak lands at A^2 * O / 2 to 1e-6 relative
        amp, bin_idx, seg = 2.5, 6, 64
        t = np.arange(seg)
        tone = amp * np.sin(2 * np.pi * bin_idx * t / seg)
        peak = welch_psd(tone, WelchConfig(seg, 0, "rectangular"))[bin_idx]
        expected = amp * amp * seg / 2.0
        assert abs(peak - expected) <= 1e-6 * expected, f"peak {peak} vs {expected}"
        passed(5, self.NAME, f"white-noise total {mean_total:.3f}, peak err "
                             f"{abs(peak - expected) / expected:.1e}")


class TestCriterion06GradientCorrectness:
    NAME = "every gradient matches central finite differences to 1e-4"

    def test_small_two_channel_model(self):
        spec = ModelSpec(
            convs=(ConvLayerSpec(filters=2, kernel_len=3),),
            pool_widths=(2,),
            dense_units=4,
        )
        params = init_model(spec, 20240512, norm=make_norm(8, 8, min_std=1.0), dtype=np.float64)
        rng = np.random.default_rng(63)
        freq = rng.standard_normal((3, N_STREAMS, 8))
        power = rng.standard_normal((3, N_STREAMS, 8))
        labels = np.array([0, 3, 5])

        def mean_loss():
            logits, cache = forward_batch(params, freq, power, want_cache=True)
            losses, grads, _ = softmax_cross_entropy_batch(logits, labels)
            return losses.mean(), grads / len(labels), cache

        started = time.monotonic()
        _, d_logits, cache = mean_loss()
        grads = backward_batch(params, cache, d_logits)
        h = 1e-3
        worst = 0.0
        checked = 0
        for name, arr in params.arrays.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lhs = mean_loss()[0]
                arr[idx] = orig - h
                rhs = mean_loss()[0]
                arr[idx] = orig
                fd = (lhs - rhs) / (2 * h)
                denom = max(abs(fd), abs(grads[name][idx]), 1e-8)
                worst = max(worst, abs(grads[name][idx] - fd) / denom)
                checked += 1
        elapsed = time.monotonic() - started
        assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        passed(6, self.NAME, f"{checked} parameters, worst rel err {worst:.2e}, {elapsed:.1f}s")


# train_acc is the running accuracy over an epoch's steps, taken before each
# update. The 50 windows make one batch, so an epoch reports the accuracy of the
# params the previous epoch left: 1.0 shows one epoch later than a pass over the
# split after the update would show it, still well within the 200 epochs.
class TestCriterion07CapacitySanity:
    NAME = "50-sample subset reaches 100% train accuracy within 200 epochs"

    @needs_dataset
    def test_overfits_small_subset(self):
        manifest = load_split(REAL_ROOT, "train")
        features = extract_split(manifest)
        rng = np.random.default_rng(0)
        picks = []
        for activity in Activity:
            rows = np.flatnonzero(features.labels == activity.value)
            picks.extend(rng.choice(rows, size=8, replace=False))
        picks = np.array(sorted(picks[:50]))
        subset = FeatureSet(
            freq=features.freq[picks], power=features.power[picks], labels=features.labels[picks]
        )
        norm = fit_normalizer_arrays(subset.freq, subset.power)
        cfg = TrainConfig(epochs=200, batch_size=64, seed=42)
        _, run = train(subset, subset, DEFAULT_MODEL_SPEC, cfg, norm)
        hit = next((e.epoch for e in run.epochs if e.train_acc == 1.0), None)
        assert hit is not None, "train accuracy never reached 100%"
        passed(7, self.NAME, f"100% at epoch {hit}")

    def test_skip_note(self):
        if REAL_ROOT is None:
            skipped(7, self.NAME, "published dataset not available")


class TestCriterion08DatasetFidelity:
    NAME = "validate reproduces every published count exactly"

    @needs_dataset
    def test_validate_exits_zero(self, capsys):
        code = cli.cmd_validate(RunConfig(dataset_root=str(REAL_ROOT)))
        out = capsys.readouterr().out
        assert code == 0, "validate reported count mismatches"
        assert "train: 7352 samples" in out
        assert "test: 2947 samples" in out
        passed(8, self.NAME, "7352 train / 2947 test, all per-class counts exact")

    def test_skip_note(self):
        if REAL_ROOT is None:
            skipped(8, self.NAME, "published dataset not available")


class TestCriterion09Determinism:
    NAME = "identical config + seed give byte-identical artifacts"

    @needs_dataset
    def test_two_full_runs_identical(self, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            cfg = RunConfig(
                dataset_root=str(REAL_ROOT),
                output_dir=str(out_dir),
                train=TrainConfig(epochs=3, seed=42),
            )
            assert cli.cmd_extract(cfg) == 0
            assert cli.cmd_train(cfg) == 0
            assert cli.cmd_evaluate(cfg, out_dir / "checkpoint.bin", "test") == 0
            outputs.append(
                {
                    "epochs.csv": (out_dir / "epochs.csv").read_bytes(),
                    "checkpoint.bin": (out_dir / "checkpoint.bin").read_bytes(),
                    "report.json": (out_dir / "report.json").read_bytes(),
                }
            )
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"
        passed(9, self.NAME, "epochs.csv, checkpoint.bin, report.json byte-identical")

    def test_skip_note(self):
        if REAL_ROOT is None:
            skipped(9, self.NAME, "published dataset not available")


class TestCriterion10MetricSelfConsistency:
    NAME = "metric identities (trace accuracy, random AUC, perfect scores)"

    def test_metric_identities(self):
        rng = np.random.default_rng(11)
        truth = np.concatenate([np.full(40, a.value) for a in Activity])
        probs = rng.uniform(size=(len(truth), 6))
        probs /= probs.sum(axis=1, keepdims=True)
        report, _ = report_from_predictions(probs, truth)
        cm = np.array(report["confusion"])
        assert report["accuracy"] == np.trace(cm) / cm.sum()

        roc_truth = rng.integers(1, 7, size=2000)
        roc_probs = rng.uniform(size=(2000, 6))
        _, auc = roc_curve(roc_probs, roc_truth, Activity.WALKING)
        assert abs(auc - 0.5) <= 0.03, f"random AUC {auc:.4f}"

        perfect_probs = np.zeros((len(truth), 6))
        perfect_probs[np.arange(len(truth)), truth - 1] = 1.0
        perfect, _ = report_from_predictions(perfect_probs, truth)
        assert perfect["accuracy"] == 1.0
        assert perfect["macro_precision"] == 1.0
        assert perfect["macro_recall"] == 1.0
        assert perfect["macro_f1"] == 1.0
        assert all(auc == 1.0 for auc in perfect["auc"].values())
        passed(10, self.NAME, f"random AUC {auc:.3f}")
