import numpy as np
import pytest

import harcnn.model
from conftest import make_split_arrays
from harcnn.checkpoint import save_checkpoint
from harcnn.dataset import Activity
from harcnn.dsp import WelchConfig
from harcnn.features import FeatureSet, extract_features_batch, fit_normalizer_arrays, normalize_set
from harcnn.model import ConvLayerSpec, ModelSpec, init_model
from harcnn.train import AdamState, TrainConfig, adam_step, train
from test_layers import (
    reference_conv1d_backward,
    reference_conv1d_forward,
    reference_maxpool1d_backward,
    reference_maxpool1d_forward,
)


class ArrayHolder:
    """Minimal named-array provider so Adam can drive a bare vector."""

    def __init__(self, x):
        self.x = x
        self.arrays = {"x": x}


SMALL_SPEC = ModelSpec(
    convs=(
        ConvLayerSpec(in_streams=9, filters=8, kernel_len=7),
        ConvLayerSpec(in_streams=8, filters=16, kernel_len=5),
    ),
    pool_widths=(2, 2),
    dense_units=32,
)


def synthetic_feature_sets(n_train_per_class=10, n_test_per_class=4, seed=5):
    rng = np.random.default_rng(seed)
    counts_train = {a: n_train_per_class for a in Activity}
    counts_test = {a: n_test_per_class for a in Activity}
    train_w, train_y, _ = make_split_arrays(rng, counts_train)
    test_w, test_y, _ = make_split_arrays(rng, counts_test)
    train_freq, train_power = extract_features_batch(train_w)
    test_freq, test_power = extract_features_batch(test_w)
    norm = fit_normalizer_arrays(train_freq, train_power)
    train_set = normalize_set(FeatureSet(train_freq, train_power, train_y), norm)
    test_set = normalize_set(FeatureSet(test_freq, test_power, test_y), norm)
    return train_set, test_set, norm


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = init_model(SMALL_SPEC, seed=3)
        before = {name: arr.copy() for name, arr in params.arrays.items()}
        state = AdamState(params)
        grads = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
        adam_step(params, grads, state, TrainConfig())
        for name, arr in params.arrays.items():
            assert np.array_equal(arr, before[name])

    @pytest.mark.parametrize("magnitude", [5.0, 1e-6])
    def test_first_step_size_is_learning_rate(self, magnitude):
        cfg = TrainConfig(learning_rate=1e-3)
        holder = ArrayHolder(np.zeros(4))
        state = AdamState(holder)
        adam_step(holder, {"x": np.full(4, magnitude)}, state, cfg)
        assert np.all(np.abs(np.abs(holder.x) - cfg.learning_rate) <= 0.02 * cfg.learning_rate)

    def test_quadratic_bowl_converges(self):
        cfg = TrainConfig(learning_rate=0.05)
        holder = ArrayHolder(np.array([1.0, 1.0]))
        state = AdamState(holder)
        for _ in range(500):
            adam_step(holder, {"x": holder.x.copy()}, state, cfg)
        assert np.linalg.norm(holder.x) < 1e-2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="beta"):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)


class TestTrain:
    def test_same_seed_reproduces_run_bit_for_bit(self):
        train_set, test_set, norm = synthetic_feature_sets()
        cfg = TrainConfig(epochs=3, batch_size=16, seed=11)
        params_a, run_a = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        params_b, run_b = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        assert run_a == run_b
        for (name_a, arr_a), (_, arr_b) in zip(params_a.arrays.items(), params_b.arrays.items()):
            assert np.array_equal(arr_a, arr_b), name_a

    def test_small_subset_overfits_to_full_accuracy(self):
        train_set, test_set, norm = synthetic_feature_sets(n_train_per_class=9, seed=8)
        subset = FeatureSet(
            freq=train_set.freq[:50], power=train_set.power[:50], labels=train_set.labels[:50]
        )
        cfg = TrainConfig(epochs=200, batch_size=64, seed=1)
        params, run = train(subset, test_set, SMALL_SPEC, cfg, norm)
        assert any(e.train_acc == 1.0 for e in run.epochs)

    def test_returns_best_test_epoch(self):
        train_set, test_set, norm = synthetic_feature_sets()
        cfg = TrainConfig(epochs=4, batch_size=16, seed=2)
        params, run = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        best = max(run.epochs, key=lambda e: e.test_acc)
        assert run.epochs[run.best_epoch - 1].test_acc == best.test_acc
        assert len(run.epochs) == 4
        assert params.norm is norm

    def test_learns_synthetic_classes(self):
        train_set, test_set, norm = synthetic_feature_sets(n_train_per_class=20, seed=3)
        cfg = TrainConfig(epochs=12, batch_size=32, seed=7)
        _, run = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        assert run.epochs[-1].test_acc >= 0.9

    def test_empty_split_rejected(self):
        train_set, test_set, norm = synthetic_feature_sets()
        empty = FeatureSet(
            freq=train_set.freq[:0], power=train_set.power[:0], labels=train_set.labels[:0]
        )
        with pytest.raises(ValueError, match="empty"):
            train(empty, test_set, SMALL_SPEC, TrainConfig(epochs=1), norm)

    def test_epoch_log_fields_are_complete(self):
        train_set, test_set, norm = synthetic_feature_sets()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
        _, run = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        for stats in run.epochs:
            for value in vars(stats).values():
                assert np.isfinite(value)
            assert 0.0 <= stats.train_acc <= 1.0
            assert 0.0 <= stats.test_f1 <= 1.0

    def test_trajectory_matches_seed_layers_bit_for_bit(self, tmp_path, monkeypatch):
        train_set, test_set, norm = synthetic_feature_sets(seed=4)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=3)

        def run(name):
            params, history = train(train_set, test_set, SMALL_SPEC, cfg, norm)
            path = tmp_path / name
            save_checkpoint(path, params, WelchConfig(), history.best_epoch)
            return path.read_bytes(), history

        new_bytes, new_run = run("new.bin")
        for name, ref in (
            ("conv1d_forward", reference_conv1d_forward),
            ("conv1d_backward", reference_conv1d_backward),
            ("maxpool1d_forward", reference_maxpool1d_forward),
            ("maxpool1d_backward", reference_maxpool1d_backward),
        ):
            monkeypatch.setattr(harcnn.model, name, ref)
        ref_bytes, ref_run = run("reference.bin")
        assert new_run == ref_run
        assert new_bytes == ref_bytes
        # The best epoch is a later one, so the saved params are the keep-best copy
        # taken after some updates, not the initial or the final params.
        assert 1 < new_run.best_epoch < cfg.epochs
