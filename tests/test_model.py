import os
import threading

import numpy as np
import pytest

from conftest import nan_in_worker_chunks
from harcnn import model
from harcnn.layers import softmax_cross_entropy_batch
from harcnn.model import (
    DEFAULT_MODEL_SPEC,
    ConvLayerSpec,
    ModelParams,
    ModelSpec,
    backward_batch,
    forward_batch,
    init_model,
    predict_batch,
)

TINY_SPEC = ModelSpec(
    convs=(ConvLayerSpec(in_streams=2, filters=2, kernel_len=3),),
    pool_widths=(2,),
    dense_units=4,
)


def tiny_model(seed=0, dtype=np.float64, activation_spec=TINY_SPEC):
    return init_model(activation_spec, freq_bins=8, power_bins=8, seed=seed, dtype=dtype)


def mean_loss(params, freq, power, labels):
    logits, _, cache = forward_batch(params, freq, power, want_cache=True)
    losses, grads, _ = softmax_cross_entropy_batch(logits, labels)
    return losses.mean(), grads / len(labels), cache


class TestModelSpec:
    def test_default_flat_dims(self):
        assert DEFAULT_MODEL_SPEC.flat_dim(65) == 64 * 12
        assert DEFAULT_MODEL_SPEC.flat_dim(33) == 64 * 4

    def test_conv_chain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="conv chain mismatch"):
            ModelSpec(
                convs=(ConvLayerSpec(9, 32, 7), ConvLayerSpec(16, 64, 5)),
                pool_widths=(2, 2),
                dense_units=8,
            )

    def test_pool_width_count_must_match(self):
        with pytest.raises(ValueError, match="one entry per conv"):
            ModelSpec(convs=(ConvLayerSpec(9, 4, 3),), pool_widths=(2, 2), dense_units=8)

    def test_collapsing_input_rejected(self):
        spec = ModelSpec(convs=(ConvLayerSpec(9, 4, 9),), pool_widths=(4,), dense_units=8)
        with pytest.raises(ValueError, match="collapses"):
            spec.flat_dim(10)

    def test_json_round_trip(self):
        spec = DEFAULT_MODEL_SPEC
        assert ModelSpec.from_json_dict(spec.to_json_dict()) == spec


class TestInitModel:
    def test_default_shapes(self):
        params = init_model(seed=7)
        shapes = dict((name, arr.shape) for name, arr in params.arrays.items())
        assert shapes["freq.conv0.w"] == (32, 9, 7)
        assert shapes["freq.conv1.w"] == (64, 32, 5)
        assert shapes["freq.dense.w"] == (128, 768)
        assert shapes["power.dense.w"] == (128, 256)
        assert shapes["fusion.w"] == (6, 256)
        assert params.dtype == np.float32

    def test_seed_reproducibility(self):
        a, b = init_model(seed=3), init_model(seed=3)
        for (name_a, arr_a), (name_b, arr_b) in zip(a.arrays.items(), b.arrays.items()):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)

    def test_channels_share_hyperparameters(self):
        params = init_model(seed=1)
        for i in range(len(params.spec.convs)):
            for kind in ("w", "b"):
                freq, power = (params.arrays[f"{c}.conv{i}.{kind}"] for c in ("freq", "power"))
                assert freq.shape == power.shape
        assert params.arrays["freq.dense.b"].shape == params.arrays["power.dense.b"].shape

    def test_mismatched_channel_construction_rejected(self):
        params = init_model(seed=1)
        arrays = dict(params.arrays)
        arrays["freq.conv0.w"] = arrays["freq.conv0.w"][:16]
        with pytest.raises(ValueError, match="do not match spec"):
            ModelParams(
                spec=params.spec,
                freq_bins=params.freq_bins,
                power_bins=params.power_bins,
                arrays=arrays,
                rng_seed=params.rng_seed,
            )


class TestForward:
    def test_probs_form_simplex(self):
        rng = np.random.default_rng(12)
        params = init_model(seed=5)
        freq = rng.standard_normal((8, 9, 65))
        power = rng.standard_normal((8, 9, 33))
        _, probs = forward_batch(params, freq, power)
        assert probs.shape == (8, 6)
        assert np.all(probs >= 0.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-6

    def test_fresh_models_are_near_uniform(self):
        # Monte Carlo over seeded inits: 100 fresh models x 10 random inputs.
        rng = np.random.default_rng(99)
        means = []
        for seed in range(100):
            params = init_model(seed=seed)
            freq = rng.standard_normal((10, 9, 65))
            power = rng.standard_normal((10, 9, 33))
            means.append(predict_batch(params, freq, power).mean(axis=0))
        mean_probs = np.mean(means, axis=0)
        assert np.all(mean_probs >= 0.10)
        assert np.all(mean_probs <= 0.24)

    def test_same_seed_same_input_bit_identical(self):
        rng = np.random.default_rng(2)
        freq = rng.standard_normal((4, 9, 65)).astype(np.float32)
        power = rng.standard_normal((4, 9, 33)).astype(np.float32)
        probs_a = forward_batch(init_model(seed=21), freq, power)[1]
        probs_b = forward_batch(init_model(seed=21), freq, power)[1]
        assert np.array_equal(probs_a, probs_b)

    def test_single_sample_matches_batch(self):
        rng = np.random.default_rng(6)
        params = init_model(seed=9)
        freq = rng.standard_normal((3, 9, 65)).astype(np.float32)
        power = rng.standard_normal((3, 9, 33)).astype(np.float32)
        _, batch_probs = forward_batch(params, freq, power)
        # Row i of the batch equals the one-row batch of row i.
        for i in range(3):
            _, single = forward_batch(params, freq[i : i + 1], power[i : i + 1])
            assert np.allclose(single[0], batch_probs[i], atol=1e-7)

    def test_shape_mismatch_rejected(self):
        params = init_model(seed=1)
        with pytest.raises(ValueError, match="do not match model"):
            forward_batch(params, np.zeros((2, 9, 33)), np.zeros((2, 9, 65)))

    def test_predict_chunking_matches_single_pass(self):
        # Different chunk sizes reorder BLAS accumulation, so compare to
        # float32 round-off rather than bit-for-bit.
        rng = np.random.default_rng(31)
        params = init_model(seed=2)
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        chunked = predict_batch(params, freq, power, chunk=7)
        single = forward_batch(params, freq, power)[1]
        assert np.max(np.abs(chunked - single)) <= 1e-6

    def test_predict_chunks_match_a_serial_forward_loop(self, four_cpus):
        rng = np.random.default_rng(33)
        params = init_model(seed=2)
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        serial = np.concatenate(
            [forward_batch(params, freq[s : s + 7], power[s : s + 7])[1] for s in range(0, 20, 7)]
        )
        assert np.array_equal(predict_batch(params, freq, power, chunk=7), serial)

    def test_predict_on_one_cpu_starts_no_thread_and_gives_the_same_bytes(
        self, monkeypatch, four_cpus
    ):
        rng = np.random.default_rng(34)
        params = init_model(seed=2)
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        threaded = predict_batch(params, freq, power, chunk=7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        seen = []
        real = model.forward_batch

        def forward(*args, **kwargs):
            seen.append((threading.current_thread(), threading.active_count()))
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "forward_batch", forward)
        assert np.array_equal(predict_batch(params, freq, power, chunk=7), threaded)
        assert seen == [(threading.current_thread(), before)] * 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN fed on purpose
    def test_nan_in_a_worker_chunk_raises_the_serial_error(self, monkeypatch, four_cpus):
        rng = np.random.default_rng(35)
        params = init_model(seed=2)
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        bad = freq[:7].copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError) as serial:
            forward_batch(params, bad, power[:7])
        assert "\n" not in str(serial.value) and "non-finite" in str(serial.value)
        nan_in_worker_chunks(monkeypatch)
        with pytest.raises(ValueError) as threaded:
            predict_batch(params, freq, power, chunk=7)
        assert str(threaded.value) == str(serial.value)

    def test_predict_is_deterministic_across_calls(self):
        rng = np.random.default_rng(32)
        params = init_model(seed=2)
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        assert np.array_equal(
            predict_batch(params, freq, power), predict_batch(params, freq, power)
        )


class TestBackward:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_every_gradient_matches_finite_differences(self, activation):
        spec = ModelSpec(
            convs=(ConvLayerSpec(in_streams=2, filters=2, kernel_len=3, activation=activation),),
            pool_widths=(2,),
            dense_units=4,
            dense_activation=activation,
        )
        params = init_model(spec, freq_bins=8, power_bins=8, seed=20240512, dtype=np.float64)
        rng = np.random.default_rng(63)
        freq = rng.standard_normal((3, 2, 8))
        power = rng.standard_normal((3, 2, 8))
        labels = np.array([0, 3, 5])

        _, d_logits, cache = mean_loss(params, freq, power, labels)
        grads = backward_batch(params, cache, d_logits)

        h = 1e-3
        worst = 0.0
        for name, arr in params.arrays.items():
            grad = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lhs = mean_loss(params, freq, power, labels)[0]
                arr[idx] = orig - h
                rhs = mean_loss(params, freq, power, labels)[0]
                arr[idx] = orig
                fd = (lhs - rhs) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(grad[idx] - fd) / denom)
        assert worst <= 1e-4

    def test_zero_input_zero_weights_gradient_structure(self):
        params = tiny_model(seed=0)
        for name, arr in params.arrays.items():
            arr[...] = 0.0
        freq = np.zeros((2, 2, 8))
        power = np.zeros((2, 2, 8))
        labels = np.array([1, 2])
        _, d_logits, cache = mean_loss(params, freq, power, labels)
        grads = backward_batch(params, cache, d_logits)
        assert np.all(grads["freq.conv0.w"] == 0.0)
        assert np.all(grads["power.conv0.w"] == 0.0)
        assert np.any(grads["fusion.b"] != 0.0)

    def test_batch_gradient_is_mean_of_per_sample_gradients(self):
        params = tiny_model(seed=4)
        rng = np.random.default_rng(17)
        freq = rng.standard_normal((5, 2, 8))
        power = rng.standard_normal((5, 2, 8))
        labels = rng.integers(0, 6, size=5)

        _, d_logits, cache = mean_loss(params, freq, power, labels)
        batch_grads = backward_batch(params, cache, d_logits)

        accum = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
        for i in range(5):
            _, d_i, cache_i = mean_loss(params, freq[i : i + 1], power[i : i + 1], labels[i : i + 1])
            for name, grad in backward_batch(params, cache_i, d_i).items():
                accum[name] += grad / 5.0
        for name in accum:
            scale = max(1.0, np.max(np.abs(accum[name])))
            assert np.max(np.abs(accum[name] - batch_grads[name])) <= 1e-6 * scale

    def test_copy_is_deep(self):
        params = init_model(seed=8)
        clone = params.copy()
        clone.arrays["fusion.w"][0, 0] += 1.0
        assert params.arrays["fusion.w"][0, 0] != clone.arrays["fusion.w"][0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf weights on purpose
class TestDebugFiniteHook:
    def test_debug_mode_catches_non_finite_forward(self):
        params = tiny_model(seed=2)
        params.arrays["fusion.w"][0, 0] = np.inf
        freq = np.ones((1, 2, 8))
        power = np.ones((1, 2, 8))
        with pytest.raises(ValueError, match="non-finite"):
            forward_batch(params, freq, power)
