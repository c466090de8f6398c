import os
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import make_norm, nan_in_worker_chunks, unlabelled
from harcnn import model
from harcnn.config import from_json, to_json
from harcnn.dataset import N_STREAMS
from harcnn.features import EPSILON
from harcnn.layers import softmax, softmax_cross_entropy_batch
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
    convs=(ConvLayerSpec(filters=2, kernel_len=3),),
    pool_widths=(2,),
    dense_units=4,
)


def tiny_model(seed=0, dtype=np.float64):
    return init_model(TINY_SPEC, seed, norm=make_norm(8, 8), dtype=dtype)


def mean_loss(params, freq, power, labels):
    logits, cache = forward_batch(params, freq, power, want_cache=True)
    losses, grads, _ = softmax_cross_entropy_batch(logits, labels)
    return losses.mean(), grads / len(labels), cache


class TestModelSpec:
    def test_default_flat_dims(self):
        assert DEFAULT_MODEL_SPEC.flat_dim(65) == 64 * 12
        assert DEFAULT_MODEL_SPEC.flat_dim(33) == 64 * 4

    def test_conv_input_streams_follow_the_previous_filters(self):
        spec = ModelSpec(
            convs=(ConvLayerSpec(4, 3), ConvLayerSpec(6, 2), ConvLayerSpec(5, 2)),
            pool_widths=(1, 1, 1),
            dense_units=8,
        )
        shapes = model.param_shapes(spec, freq_bins=16, power_bins=16)
        for prefix in ("freq", "power"):
            assert shapes[f"{prefix}.conv0.w"] == (4, N_STREAMS, 3)
            assert shapes[f"{prefix}.conv1.w"] == (6, 4, 2)
            assert shapes[f"{prefix}.conv2.w"] == (5, 6, 2)

    def test_pool_width_count_must_match(self):
        with pytest.raises(ValueError, match="one entry per conv"):
            ModelSpec(convs=(ConvLayerSpec(4, 3),), pool_widths=(2, 2), dense_units=8)

    def test_collapsing_input_rejected(self):
        spec = ModelSpec(convs=(ConvLayerSpec(4, 9),), pool_widths=(4,), dense_units=8)
        with pytest.raises(ValueError, match="collapses"):
            spec.flat_dim(10)

    def test_json_round_trip(self):
        spec = DEFAULT_MODEL_SPEC
        assert from_json(ModelSpec, to_json(spec)) == spec


class TestInitModel:
    def test_default_shapes(self):
        params = init_model(seed=7, norm=make_norm())
        shapes = dict((name, arr.shape) for name, arr in params.arrays.items())
        assert shapes["freq.conv0.w"] == (32, 9, 7)
        assert shapes["freq.conv1.w"] == (64, 32, 5)
        assert shapes["freq.dense.w"] == (128, 768)
        assert shapes["power.dense.w"] == (128, 256)
        assert shapes["fusion.w"] == (6, 256)
        assert params.dtype == np.float32

    def test_seed_reproducibility(self):
        a, b = init_model(seed=3, norm=make_norm()), init_model(seed=3, norm=make_norm())
        for (name_a, arr_a), (name_b, arr_b) in zip(a.arrays.items(), b.arrays.items()):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)

    def test_channels_share_hyperparameters(self):
        params = init_model(seed=1, norm=make_norm())
        for i in range(len(params.spec.convs)):
            for kind in ("w", "b"):
                freq, power = (params.arrays[f"{c}.conv{i}.{kind}"] for c in ("freq", "power"))
                assert freq.shape == power.shape
        assert params.arrays["freq.dense.b"].shape == params.arrays["power.dense.b"].shape

    def test_mismatched_channel_construction_rejected(self):
        params = init_model(seed=1, norm=make_norm())
        arrays = dict(params.arrays)
        arrays["freq.conv0.w"] = arrays["freq.conv0.w"][:16]
        with pytest.raises(ValueError, match="do not match spec"):
            ModelParams(
                spec=params.spec,
                arrays=arrays,
                rng_seed=params.rng_seed,
                norm=params.norm,
            )


class TestForward:
    def test_probs_form_simplex(self):
        rng = np.random.default_rng(12)
        params = init_model(seed=5, norm=make_norm())
        freq = rng.standard_normal((8, 9, 65))
        power = rng.standard_normal((8, 9, 33))
        logits, _ = forward_batch(params, freq, power)
        probs = softmax(logits)
        assert probs.shape == (8, 6)
        assert np.all(probs >= 0.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-6

    def test_fresh_models_are_near_uniform(self):
        # Monte Carlo over seeded inits: 100 fresh models x 10 random inputs.
        rng = np.random.default_rng(99)
        means = []
        for seed in range(100):
            params = init_model(seed=seed, norm=make_norm())
            freq = rng.standard_normal((10, 9, 65))
            power = rng.standard_normal((10, 9, 33))
            means.append(softmax(predict_batch(params, unlabelled(freq, power))).mean(axis=0))
        mean_probs = np.mean(means, axis=0)
        assert np.all(mean_probs >= 0.10)
        assert np.all(mean_probs <= 0.24)

    def test_same_seed_same_input_bit_identical(self):
        rng = np.random.default_rng(2)
        freq = rng.standard_normal((4, 9, 65)).astype(np.float32)
        power = rng.standard_normal((4, 9, 33)).astype(np.float32)
        probs_a = softmax(forward_batch(init_model(seed=21, norm=make_norm()), freq, power)[0])
        probs_b = softmax(forward_batch(init_model(seed=21, norm=make_norm()), freq, power)[0])
        assert np.array_equal(probs_a, probs_b)

    def test_single_sample_matches_batch(self):
        rng = np.random.default_rng(6)
        params = init_model(seed=9, norm=make_norm())
        freq = rng.standard_normal((3, 9, 65)).astype(np.float32)
        power = rng.standard_normal((3, 9, 33)).astype(np.float32)
        batch_logits, _ = forward_batch(params, freq, power)
        batch_probs = softmax(batch_logits)
        # Row i of the batch equals the one-row batch of row i.
        for i in range(3):
            logits, _ = forward_batch(params, freq[i : i + 1], power[i : i + 1])
            single = softmax(logits)
            assert np.allclose(single[0], batch_probs[i], atol=1e-7)

    def test_shape_mismatch_rejected(self):
        params = init_model(seed=1, norm=make_norm())
        with pytest.raises(ValueError, match="do not match stats"):
            forward_batch(params, np.zeros((2, 9, 33)), np.zeros((2, 9, 65)))

    def test_unbatched_input_rejected_with_one_line(self):
        params = init_model(seed=1, norm=make_norm())
        with pytest.raises(ValueError) as info:
            forward_batch(params, np.zeros((9, 65)), np.zeros((9, 33)))
        assert str(info.value) == "feature shapes (65,)/(33,) do not match stats (9, 65)/(9, 33)"

    def test_channels_get_the_features_normalized_with_the_models_stats(self, monkeypatch):
        rng = np.random.default_rng(36)
        params = init_model(seed=3, norm=make_norm(seed=4))
        freq = rng.standard_normal((5, 9, 65)).astype(np.float32)
        power = rng.standard_normal((5, 9, 33)).astype(np.float32)
        seen = {}
        real = model.conv1d_forward

        def conv1d_forward(x, w, *args):
            # A channel's first conv reads that channel's normalized input.
            for prefix in ("freq", "power"):
                if w is params.arrays[f"{prefix}.conv0.w"]:
                    seen[prefix] = x
            return real(x, w, *args)

        monkeypatch.setattr(model, "conv1d_forward", conv1d_forward)
        forward_batch(params, freq, power)
        for prefix, x in (("freq", freq), ("power", power)):
            mean, std = (getattr(params.norm, f"{prefix}_{k}").astype(np.float64)
                         for k in ("mean", "std"))
            want = ((x.astype(np.float64) - mean) / (std + EPSILON)).astype(np.float32)
            # Channels-last in memory, the layout the first conv reads its windows from.
            assert seen[prefix].dtype == np.float32
            assert seen[prefix].transpose(0, 2, 1).flags.c_contiguous
            assert np.array_equal(seen[prefix], want)

    def test_inference_holds_one_layers_working_set_at_a_time(self):
        # The conv stack runs in 128-row sub-blocks, so a 512-row chunk peaks
        # at about 10 KB a row: one sub-block's layer working set beside the
        # chunk's flattened pool output. Running the stack over the whole
        # chunk needs about 26 KB, and keeping a conv's windows and output,
        # or both channels' inputs, into the next conv about 53 KB.
        rng = np.random.default_rng(39)
        params = init_model(seed=2, norm=make_norm(min_std=1.0))
        freq = rng.standard_normal((512, 9, 65)).astype(np.float32)
        power = rng.standard_normal((512, 9, 33)).astype(np.float32)
        forward_batch(params, freq, power)
        tracemalloc.start()
        try:
            forward_batch(params, freq, power)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 512 < 12e3

    @pytest.mark.parametrize("cpus", ["one_cpu", "four_cpus"])
    def test_zero_rows_give_zero_by_six_logits(self, request, cpus):
        request.getfixturevalue(cpus)
        params = init_model(seed=2, norm=make_norm())
        freq = np.zeros((0, 9, 65), dtype=np.float32)
        power = np.zeros((0, 9, 33), dtype=np.float32)
        for logits in (forward_batch(params, freq, power)[0],
                       predict_batch(params, unlabelled(freq, power))):
            assert logits.shape == (0, 6) and logits.dtype == np.float32

    @pytest.mark.parametrize("cpus", ["one_cpu", "four_cpus"])
    def test_conv_sub_blocks_keep_the_whole_chunks_bits(self, monkeypatch, request, cpus):
        # 600 rows make a 512-row chunk of four 128-row sub-blocks and an 88-row chunk.
        request.getfixturevalue(cpus)
        rng = np.random.default_rng(40)
        params = init_model(seed=2, norm=make_norm(min_std=1.0))
        freq = rng.standard_normal((600, 9, 65)).astype(np.float32)
        power = rng.standard_normal((600, 9, 33)).astype(np.float32)
        got = predict_batch(params, unlabelled(freq, power))
        # One block with caches, as a training step runs it: other GEMM shapes,
        # so the same logits to float32 round-off.
        cached = forward_batch(params, freq, power, want_cache=True)[0]
        np.testing.assert_allclose(got, cached, rtol=1e-5, atol=1e-5)
        # Each chunk's conv stack in one block: the bits the sub-blocks must keep.
        monkeypatch.setattr(model, "CONV_BLOCK", model.PREDICT_CHUNK)
        whole = np.concatenate(
            [forward_batch(params, freq[s : s + 512], power[s : s + 512])[0] for s in (0, 512)]
        )
        assert np.array_equal(got, whole)

    def test_raw_float32_and_float64_features_give_the_same_bits(self, seven_row_chunks):
        # The cache path feeds float32 values, the extract path the same values as float64.
        rng = np.random.default_rng(37)
        params = init_model(seed=2, norm=make_norm())
        freq = (np.abs(rng.standard_normal((20, 9, 65))) * 5.0).astype(np.float32)
        power = (np.abs(rng.standard_normal((20, 9, 33))) * 0.1).astype(np.float32)
        from32 = predict_batch(params, unlabelled(freq, power))
        from64 = predict_batch(params, unlabelled(freq.astype(np.float64),
                                                  power.astype(np.float64)))
        assert np.array_equal(from32, from64)

    def test_predict_leaves_the_callers_raw_features_unchanged(self, seven_row_chunks):
        rng = np.random.default_rng(38)
        params = init_model(seed=2, norm=make_norm())
        for dtype in (np.float32, np.float64):
            freq = rng.standard_normal((20, 9, 65)).astype(dtype)
            power = rng.standard_normal((20, 9, 33)).astype(dtype)
            kept = freq.copy(), power.copy()
            predict_batch(params, unlabelled(freq, power))
            assert np.array_equal(freq, kept[0]) and np.array_equal(power, kept[1])

    def test_predict_chunking_matches_single_pass(self, seven_row_chunks):
        # Different chunk sizes reorder BLAS accumulation, so compare to
        # float32 round-off rather than bit-for-bit. Stds of at least 1 keep
        # the normalized inputs, and with them that round-off, at unit scale.
        rng = np.random.default_rng(31)
        params = init_model(seed=2, norm=make_norm(min_std=1.0))
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        chunked = softmax(predict_batch(params, unlabelled(freq, power)))
        single = softmax(forward_batch(params, freq, power)[0])
        assert np.max(np.abs(chunked - single)) <= 1e-6

    def test_predict_chunks_match_a_serial_forward_loop(self, four_cpus, seven_row_chunks):
        rng = np.random.default_rng(33)
        params = init_model(seed=2, norm=make_norm())
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        serial = np.concatenate(
            [softmax(forward_batch(params, freq[s : s + 7], power[s : s + 7])[0])
             for s in range(0, 20, 7)]
        )
        assert np.array_equal(softmax(predict_batch(params, unlabelled(freq, power))), serial)

    def test_predict_on_one_cpu_starts_no_thread_and_gives_the_same_bytes(
        self, monkeypatch, four_cpus, seven_row_chunks
    ):
        rng = np.random.default_rng(34)
        params = init_model(seed=2, norm=make_norm())
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        threaded = predict_batch(params, unlabelled(freq, power))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        seen = []
        real = model.forward_batch

        def forward(*args, **kwargs):
            seen.append((threading.current_thread(), threading.active_count()))
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "forward_batch", forward)
        assert np.array_equal(predict_batch(params, unlabelled(freq, power)), threaded)
        assert seen == [(threading.current_thread(), before)] * 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN fed on purpose
    def test_nan_in_a_worker_chunk_raises_the_serial_error(
        self, monkeypatch, four_cpus, seven_row_chunks
    ):
        rng = np.random.default_rng(35)
        params = init_model(seed=2, norm=make_norm())
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        bad = freq[:7].copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError) as serial:
            forward_batch(params, bad, power[:7])
        assert "\n" not in str(serial.value) and "non-finite" in str(serial.value)
        nan_in_worker_chunks(monkeypatch)
        with pytest.raises(ValueError) as threaded:
            predict_batch(params, unlabelled(freq, power))
        assert str(threaded.value) == str(serial.value)

    def test_predict_is_deterministic_across_calls(self):
        rng = np.random.default_rng(32)
        params = init_model(seed=2, norm=make_norm())
        freq = rng.standard_normal((20, 9, 65)).astype(np.float32)
        power = rng.standard_normal((20, 9, 33)).astype(np.float32)
        assert np.array_equal(
            predict_batch(params, unlabelled(freq, power)),
            predict_batch(params, unlabelled(freq, power)),
        )


class TestBackward:
    # Width 1 sends every conv output through the pool unchanged. Its seed keeps
    # every ReLU input farther than the step h from 0, where the loss has a kink
    # (seed 20240512 puts one within 1e-3 at width 1).
    @pytest.mark.parametrize("pool_width, seed", [(2, 20240512), (1, 1)])
    def test_every_gradient_matches_finite_differences(self, pool_width, seed):
        norm = make_norm(8, 8, min_std=1.0)
        spec = ModelSpec(TINY_SPEC.convs, (pool_width,), TINY_SPEC.dense_units)
        params = init_model(spec, seed, norm=norm, dtype=np.float64)
        rng = np.random.default_rng(63)
        freq = rng.standard_normal((3, N_STREAMS, 8))
        power = rng.standard_normal((3, N_STREAMS, 8))
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
        freq = np.zeros((2, N_STREAMS, 8))
        power = np.zeros((2, N_STREAMS, 8))
        labels = np.array([1, 2])
        _, d_logits, cache = mean_loss(params, freq, power, labels)
        grads = backward_batch(params, cache, d_logits)
        assert np.all(grads["freq.conv0.w"] == 0.0)
        assert np.all(grads["power.conv0.w"] == 0.0)
        assert np.any(grads["fusion.b"] != 0.0)

    def test_batch_gradient_is_mean_of_per_sample_gradients(self):
        params = tiny_model(seed=4)
        rng = np.random.default_rng(17)
        freq = rng.standard_normal((5, N_STREAMS, 8))
        power = rng.standard_normal((5, N_STREAMS, 8))
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

    def test_first_conv_backward_makes_no_input_gradient(self, monkeypatch):
        params = init_model(seed=5, norm=make_norm(min_std=1.0))
        rng = np.random.default_rng(64)
        freq = rng.standard_normal((4, N_STREAMS, 65))
        power = rng.standard_normal((4, N_STREAMS, 33))
        _, d_logits, cache = mean_loss(params, freq, power, np.array([0, 1, 4, 5]))
        made = []
        real = model.conv1d_backward

        def conv1d_backward(d_out, cache, weights, want_d_x=True):
            d_x, d_w, d_b = real(d_out, cache, weights, want_d_x=want_d_x)
            made.append((weights.shape[1], d_x is not None))
            return d_x, d_w, d_b

        monkeypatch.setattr(model, "conv1d_backward", conv1d_backward)
        backward_batch(params, cache, d_logits)
        # Each channel runs its convs last to first; conv0 reads the 9 input streams.
        assert made == [(32, True), (N_STREAMS, False)] * 2

    def test_copy_is_deep(self):
        params = init_model(seed=8, norm=make_norm())
        clone = params.copy()
        clone.arrays["fusion.w"][0, 0] += 1.0
        assert params.arrays["fusion.w"][0, 0] != clone.arrays["fusion.w"][0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf weights on purpose
class TestDebugFiniteHook:
    def test_debug_mode_catches_non_finite_forward(self):
        params = tiny_model(seed=2)
        params.arrays["fusion.w"][0, 0] = np.inf
        freq = np.ones((1, N_STREAMS, 8))
        power = np.ones((1, N_STREAMS, 8))
        with pytest.raises(ValueError, match="non-finite"):
            forward_batch(params, freq, power)
