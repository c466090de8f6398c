import numpy as np
import pytest

import harcnn.model
import harcnn.parallel
import harcnn.train
from conftest import make_norm, make_split_arrays
from harcnn.checkpoint import save_checkpoint
from harcnn.dataset import Activity
from harcnn.dsp import WelchConfig
from harcnn.features import (
    FeatureCache, FeatureSet, extract_features_batch, fit_normalizer_arrays, read_feature_cache,
    write_feature_cache,
)
from harcnn.layers import softmax, softmax_cross_entropy_batch
from harcnn.model import ConvLayerSpec, ModelSpec, init_model, predict_batch
from harcnn.train import AdamState, TrainConfig, adam_step, split_metrics, train
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
        ConvLayerSpec(filters=8, kernel_len=7),
        ConvLayerSpec(filters=16, kernel_len=5),
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
    train_set = FeatureSet(train_freq, train_power, train_y)
    return train_set, FeatureSet(test_freq, test_power, test_y), norm


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = init_model(SMALL_SPEC, seed=3, norm=make_norm())
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


@pytest.fixture
def adam_steps(monkeypatch):
    """A list that gains one entry per adam_step call made by train()."""
    steps = []
    real = harcnn.train.adam_step

    def counted(*args):
        steps.append(1)
        real(*args)

    monkeypatch.setattr(harcnn.train, "adam_step", counted)
    return steps


@pytest.fixture
def loss_calls(monkeypatch):
    """A list of train()'s softmax_cross_entropy_batch and adam_step calls, in order.

    A cross-entropy call appears as (labels, losses, probs) and an Adam
    step as None.
    """
    calls = []
    real_loss = harcnn.train.softmax_cross_entropy_batch
    real_adam = harcnn.train.adam_step

    def recorded_loss(logits, class_indices):
        losses, grads, probs = real_loss(logits, class_indices)
        calls.append((class_indices, losses, probs))
        return losses, grads, probs

    def recorded_adam(*args):
        calls.append(None)
        real_adam(*args)

    monkeypatch.setattr(harcnn.train, "softmax_cross_entropy_batch", recorded_loss)
    monkeypatch.setattr(harcnn.train, "adam_step", recorded_adam)
    return calls


class TestRunningTrainMetrics:
    def test_train_columns_are_the_means_of_each_steps_pre_update_figures(self, loss_calls):
        train_set, test_set, norm = synthetic_feature_sets()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
        _, run = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        n = len(train_set)
        steps = -(-n // cfg.batch_size)
        # Each step's cross-entropy comes before its own Adam update, and no
        # other cross-entropy is taken.
        assert len(loss_calls) == 2 * cfg.epochs * steps
        assert loss_calls[1::2] == [None] * (cfg.epochs * steps)
        for k, stats in enumerate(run.epochs):
            step_calls = loss_calls[2 * k * steps : 2 * (k + 1) * steps : 2]
            assert [len(labels) for labels, _, _ in step_calls] == [16, 16, 16, 12]
            loss_sum = sum(float(losses.sum(dtype=np.float64)) for _, losses, _ in step_calls)
            correct = sum(int(np.sum(np.argmax(p, axis=1) == y)) for y, _, p in step_calls)
            assert stats.train_loss == loss_sum / n
            assert stats.train_acc == correct / n

    def test_loss_is_the_training_cross_entropy_without_a_cap(self, monkeypatch):
        # Every window's true logit is 120 below Lay's, so its probability underflows
        # to 0; a loss of -log(max(p, 1e-30)) would read 69.08. One epoch of one
        # step reports that step's loss, taken before its update.
        train_set, test_set, norm = synthetic_feature_sets()
        keep = train_set.labels != Activity.LAYING.value
        windows = FeatureSet(train_set.freq[keep], train_set.power[keep], train_set.labels[keep])
        real_init = harcnn.train.init_model

        def init_lay_120(*args, **kwargs):
            params = real_init(*args, **kwargs)
            params.arrays["fusion.w"][:] = 0.0
            params.arrays["fusion.b"][Activity.LAYING.value - 1] = 120.0
            return params

        monkeypatch.setattr(harcnn.train, "init_model", init_lay_120)
        cfg = TrainConfig(epochs=1, batch_size=len(windows), seed=1)
        _, run = train(windows, test_set, SMALL_SPEC, cfg, norm)
        params = init_lay_120(SMALL_SPEC, cfg.seed, norm=norm)
        logits = predict_batch(params, windows)
        losses, _, _ = softmax_cross_entropy_batch(logits, windows.labels - 1)
        (stats,) = run.epochs
        assert stats.train_loss == float(losses.sum(dtype=np.float64)) / len(windows)
        assert stats.train_loss == pytest.approx(120.0, abs=1e-3)
        assert stats.train_acc == 0.0

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_each_epoch_predicts_the_test_split_only(self, monkeypatch, cpus):
        monkeypatch.setattr(harcnn.parallel, "cpu_count", lambda: cpus)
        rows = []
        real = harcnn.train.predict_batch

        def counted(params, features):
            rows.append(len(features))
            return real(params, features)

        monkeypatch.setattr(harcnn.train, "predict_batch", counted)
        train_set, test_set, norm = synthetic_feature_sets()
        cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
        train(train_set, test_set, SMALL_SPEC, cfg, norm)
        assert rows == [len(test_set)] * cfg.epochs


class TestSplitMetrics:
    def test_scores_the_argmax_of_the_softmax(self):
        _, test_set, norm = synthetic_feature_sets()
        params = init_model(SMALL_SPEC, seed=1, norm=norm)
        acc, p, r, f1 = split_metrics(params, test_set)
        probs = softmax(predict_batch(params, test_set))
        preds = np.argmax(probs, axis=1) + 1
        assert acc == float(np.mean(preds == test_set.labels))
        assert 0.0 <= min(p, r, f1) and max(p, r, f1) <= 1.0


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

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_width_mismatch_stops_before_the_first_step(self, split, adam_steps):
        # A stale cache of another Welch width must fail before an epoch is spent on it.
        train_set, test_set, norm = synthetic_feature_sets()
        sets = {"train": train_set, "test": test_set}
        stale = sets[split]
        sets[split] = FeatureSet(stale.freq, stale.power[:, :, :17], stale.labels)
        with pytest.raises(ValueError) as info:
            train(sets["train"], sets["test"], SMALL_SPEC, TrainConfig(epochs=1), norm)
        message = "feature shapes (9, 65)/(9, 17) do not match stats (9, 65)/(9, 33)"
        assert str(info.value) == message
        assert adam_steps == []

    def test_leaves_the_callers_raw_features_unchanged(self):
        train_set, test_set, norm = synthetic_feature_sets()
        kept = [(s.freq.copy(), s.power.copy(), s.labels.copy()) for s in (train_set, test_set)]
        train(train_set, test_set, SMALL_SPEC, TrainConfig(epochs=1, batch_size=16), norm)
        for s, (freq, power, labels) in zip((train_set, test_set), kept):
            assert np.array_equal(s.freq, freq) and np.array_equal(s.power, power)
            assert np.array_equal(s.labels, labels)

    def test_epoch_log_fields_are_complete(self):
        train_set, test_set, norm = synthetic_feature_sets()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
        _, run = train(train_set, test_set, SMALL_SPEC, cfg, norm)
        for stats in run.epochs:
            for value in vars(stats).values():
                assert np.isfinite(value)
            assert 0.0 <= stats.train_acc <= 1.0
            assert 0.0 <= stats.test_f1 <= 1.0

    def test_epoch_callback_fires_as_each_epoch_ends(self, adam_steps):
        train_set, test_set, norm = synthetic_feature_sets()
        calls = []
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
        _, run = train(
            train_set, test_set, SMALL_SPEC, cfg, norm,
            on_epoch=lambda stats: calls.append((stats, len(adam_steps))),
        )
        per_epoch = -(-len(train_set) // cfg.batch_size)
        # Each call comes after its own epoch's steps and before the next epoch's.
        done = [(stats.epoch, steps_done) for stats, steps_done in calls]
        assert done == [(1, per_epoch), (2, 2 * per_epoch)]
        assert [stats for stats, _ in calls] == run.epochs

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


class TestTrainFromOpenCaches:
    @pytest.mark.parametrize("cpus", ["one_cpu", "four_cpus"])
    def test_open_caches_train_as_the_sets_read_whole(self, tmp_path, request, cpus):
        # 150 train rows are batches of 64, 64 and 22; 1,061 test rows are two
        # 512-row predict chunks and a 37-row one.
        request.getfixturevalue(cpus)
        rng = np.random.default_rng(12)
        paths = []
        for split, n in (("train", 150), ("test", 2 * 512 + 37)):
            path = tmp_path / f"{split}_features.bin"
            write_feature_cache(path, FeatureSet(
                rng.standard_normal((n, 9, 65)).astype(np.float32),
                np.abs(rng.standard_normal((n, 9, 33))).astype(np.float32),
                rng.integers(1, 7, size=n),
            ))
            paths.append(path)
        sets = [read_feature_cache(path) for path in paths]
        norm = fit_normalizer_arrays(sets[0].freq, sets[0].power)
        cfg = TrainConfig(epochs=3, batch_size=64, seed=3)

        def run(train_set, test_set, name):
            params, history = train(train_set, test_set, SMALL_SPEC, cfg, norm)
            save_checkpoint(tmp_path / name, params, WelchConfig(), history.best_epoch)
            return params, history, (tmp_path / name).read_bytes()

        whole = run(*sets, "whole.bin")
        with FeatureCache(paths[0]) as train_cache, FeatureCache(paths[1]) as test_cache:
            opened = run(train_cache, test_cache, "opened.bin")
        assert opened[1] == whole[1]
        for name, arr in whole[0].arrays.items():
            assert np.array_equal(opened[0].arrays[name], arr), name
        assert opened[2] == whole[2]
