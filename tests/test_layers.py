import numpy as np
import pytest

from harcnn.layers import (
    ACTIVATIONS,
    activate,
    activation_grad,
    conv1d_backward,
    conv1d_forward,
    conv_output_len,
    dense_backward,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax_cross_entropy_batch,
)


def brute_force_conv1d(x, weights, bias, stride, activation):
    """Triple-loop reference: h[b,n,s] = act(sum_r sum_i w[n,r,i]*x[b,r,s*z+i] + b[n])."""
    batch, streams, in_len = x.shape
    filters, _, kernel_len = weights.shape
    out_len = (in_len - kernel_len) // stride + 1
    out = np.zeros((batch, filters, out_len))
    for b in range(batch):
        for n in range(filters):
            for s in range(out_len):
                acc = bias[n]
                for r in range(streams):
                    for i in range(kernel_len):
                        acc += weights[n, r, i] * x[b, r, s * stride + i]
                out[b, n, s] = acc
    if activation == "relu":
        out = np.maximum(out, 0.0)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-out))
    return out


def reference_conv1d_forward(x, weights, bias, stride=1, activation="relu"):
    """Channels-first conv forward: the bit-exact reference for conv1d_forward.

    conv1d_forward runs the same GEMMs in a channels-last layout, so the two
    must agree bit for bit, not just within a tolerance.
    """
    filters, _, kernel_len = weights.shape
    view = np.lib.stride_tricks.sliding_window_view(x, kernel_len, axis=2)
    view = view[:, :, ::stride, :]  # (batch, streams, L_out, m)
    windows = view.transpose(0, 2, 1, 3).reshape(x.shape[0], view.shape[2], -1)
    pre = windows @ weights.reshape(filters, -1).T + bias  # (batch, L_out, filters)
    out = activate(activation, pre).transpose(0, 2, 1)
    return np.ascontiguousarray(out), (windows, out, x.shape, stride, activation)


def reference_conv1d_backward(d_out, cache, weights):
    windows, out, x_shape, stride, activation = cache
    filters, streams, kernel_len = weights.shape
    batch, _, out_len = d_out.shape
    d_pre = (d_out * activation_grad(activation, out)).transpose(0, 2, 1)  # (b, L_out, n)
    flat = d_pre.reshape(-1, filters)
    d_weights = (flat.T @ windows.reshape(-1, streams * kernel_len)).reshape(weights.shape)
    d_bias = flat.sum(axis=0)
    d_windows = d_pre @ weights.reshape(filters, -1)  # (b, L_out, streams*m)
    d_windows = d_windows.reshape(batch, out_len, streams, kernel_len)
    d_x = np.zeros(x_shape, dtype=d_out.dtype)
    positions = stride * np.arange(out_len)
    for i in range(kernel_len):
        d_x[:, :, positions + i] += d_windows[:, :, :, i].transpose(0, 2, 1)
    return d_x, d_weights, d_bias


def reference_maxpool1d_forward(x, width):
    """argmax/take_along_axis pooling: the bit-exact reference for maxpool1d_forward."""
    batch, channels, in_len = x.shape
    out_len = in_len // width
    blocks = x[:, :, : out_len * width].reshape(batch, channels, out_len, width)
    argmax = blocks.argmax(axis=3)
    out = np.take_along_axis(blocks, argmax[..., None], axis=3)[..., 0]
    return out, (argmax, x.shape, width)


def reference_maxpool1d_backward(d_out, cache):
    argmax, x_shape, width = cache
    batch, channels, in_len = x_shape
    out_len = in_len // width
    d_blocks = np.zeros((batch, channels, out_len, width), dtype=d_out.dtype)
    np.put_along_axis(d_blocks, argmax[..., None], d_out[..., None], axis=3)
    d_x = np.zeros(x_shape, dtype=d_out.dtype)
    d_x[:, :, : out_len * width] = d_blocks.reshape(batch, channels, out_len * width)
    return d_x


def in_layout(a, layout):
    """`a` as a contiguous channels-first array or as a view of a channels-last one."""
    if layout == "channels_first":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)


DTYPES = [np.float32, np.float64]
LAYOUTS = ["channels_first", "channels_last"]


class TestAgainstSeedReferences:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel_len", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_conv_matches_bitwise(self, dtype, layout, kernel_len, stride, activation):
        rng = np.random.default_rng(12)
        x = in_layout(rng.standard_normal((3, 4, 11)).astype(dtype), layout)
        w = rng.standard_normal((5, 4, kernel_len)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        out, cache = conv1d_forward(x, w, b, stride, activation)
        ref_out, ref_cache = reference_conv1d_forward(x, w, b, stride, activation)
        assert out.dtype == dtype
        assert np.array_equal(out, ref_out)
        assert not np.shares_memory(out, x)
        d_out = in_layout(rng.standard_normal(out.shape).astype(dtype), layout)
        got = conv1d_backward(d_out, cache, w)
        want = reference_conv1d_backward(d_out, ref_cache, w)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_pool_matches_bitwise(self, dtype, layout, width):
        rng = np.random.default_rng(13)
        # Few distinct values, zeros included, so many windows hold a tie; length 11
        # leaves a remainder column at widths 2 and 3.
        x = in_layout(rng.integers(-2, 3, size=(3, 4, 11)).astype(dtype), layout)
        out, cache = maxpool1d_forward(x, width)
        ref_out, ref_cache = reference_maxpool1d_forward(x, width)
        assert out.dtype == dtype
        assert np.array_equal(out, ref_out)
        assert not np.shares_memory(out, x)
        d_out = in_layout(rng.standard_normal(out.shape).astype(dtype), layout)
        d_x = maxpool1d_backward(d_out, cache)
        ref_d_x = reference_maxpool1d_backward(d_out, ref_cache)
        assert d_x.dtype == dtype
        assert np.array_equal(np.signbit(d_x), np.signbit(ref_d_x))
        assert np.array_equal(d_x, ref_d_x)


class TestDense:
    def test_zero_weights_sigmoid_gives_sigmoid_of_bias(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        w = np.zeros((5, 7))
        b = np.full(5, 0.3)
        out, _ = dense_forward(x, w, b, "sigmoid")
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-0.3)))

    def test_identity_layer_passes_input_through(self):
        x = np.random.default_rng(1).standard_normal((3, 6))
        out, _ = dense_forward(x, np.eye(6), np.zeros(6), "identity")
        assert np.allclose(out, x)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 7))
        w = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        out, _ = dense_forward(x, w, b, "identity")
        expected = np.zeros((3, 5))
        for i in range(3):
            for n in range(5):
                expected[i, n] = b[n] + sum(w[n, j] * x[i, j] for j in range(7))
        assert np.max(np.abs(out - expected)) <= 1e-6 * np.max(np.abs(expected))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            dense_forward(np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(3))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((3, 6))
        b = rng.standard_normal(3)
        d_out = rng.standard_normal((4, 3))
        out, cache = dense_forward(x, w, b, "sigmoid")
        d_x, d_w, d_b = dense_backward(d_out, cache, w)
        h = 1e-6
        for arr, grad in ((w, d_w), (b, d_b), (x, d_x)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lhs = dense_forward(x, w, b, "sigmoid")[0]
                arr[idx] = orig - h
                rhs = dense_forward(x, w, b, "sigmoid")[0]
                arr[idx] = orig
                fd = np.sum((lhs - rhs) / (2 * h) * d_out)
                assert abs(grad[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestConv1d:
    def test_identity_kernel(self):
        x = np.random.default_rng(4).standard_normal((2, 1, 10))
        w = np.ones((1, 1, 1))
        out, _ = conv1d_forward(x, w, np.zeros(1), stride=1, activation="identity")
        assert np.allclose(out, x)

    def test_hand_evaluable_strided_sum(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[1.0, 1.0]]])
        out, _ = conv1d_forward(x, w, np.zeros(1), stride=2, activation="identity")
        assert np.allclose(out, [[[3.0, 7.0]]])

    @pytest.mark.parametrize("stride,activation", [(1, "identity"), (2, "relu"), (3, "sigmoid")])
    def test_matches_brute_force_oracle(self, stride, activation):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 20))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        out, _ = conv1d_forward(x, w, b, stride=stride, activation=activation)
        expected = brute_force_conv1d(x, w, b, stride, activation)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-6 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize(
        "in_len,kernel,stride", [(10, 3, 1), (10, 3, 2), (17, 5, 3), (8, 8, 1), (9, 2, 4)]
    )
    def test_output_length_formula(self, in_len, kernel, stride):
        x = np.zeros((1, 2, in_len))
        w = np.zeros((3, 2, kernel))
        out, _ = conv1d_forward(x, w, np.zeros(3), stride=stride, activation="identity")
        assert out.shape[2] == (in_len - kernel) // stride + 1
        assert out.shape[2] == conv_output_len(in_len, kernel, stride)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError, match="exceeds input length"):
            conv1d_forward(np.zeros((1, 2, 4)), np.zeros((3, 2, 5)), np.zeros(3))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 12))
        w = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal(4)
        d_out_shape = conv1d_forward(x, w, b, stride=2, activation="sigmoid")[0].shape
        d_out = rng.standard_normal(d_out_shape)
        out, cache = conv1d_forward(x, w, b, stride=2, activation="sigmoid")
        d_x, d_w, d_b = conv1d_backward(d_out, cache, w)
        h = 1e-6
        for arr, grad in ((w, d_w), (b, d_b), (x, d_x)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lhs = conv1d_forward(x, w, b, stride=2, activation="sigmoid")[0]
                arr[idx] = orig - h
                rhs = conv1d_forward(x, w, b, stride=2, activation="sigmoid")[0]
                arr[idx] = orig
                fd = np.sum((lhs - rhs) / (2 * h) * d_out)
                assert abs(grad[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestMaxPool:
    def test_width_one_is_identity(self):
        x = np.random.default_rng(7).standard_normal((2, 3, 5))
        out, _ = maxpool1d_forward(x, 1)
        assert np.array_equal(out, x)

    def test_hand_example(self):
        x = np.array([[[1.0, 3.0, 2.0, 5.0]]])
        out, _ = maxpool1d_forward(x, 2)
        assert np.array_equal(out, [[[3.0, 5.0]]])

    def test_matches_brute_force_windows(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4, 11))
        out, _ = maxpool1d_forward(x, 3)
        assert out.shape == (3, 4, 3)
        for b in range(3):
            for c in range(4):
                for s in range(3):
                    assert out[b, c, s] == x[b, c, 3 * s : 3 * s + 3].max()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_anywhere_in_a_window_reaches_the_output(self, position):
        # The model's finite-logits check relies on a NaN surviving the pool.
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        x[0, 0, position] = np.nan
        out, _ = maxpool1d_forward(x, 3)
        assert np.isnan(out[0, 0, 0])

    def test_backward_routes_to_first_maximum(self):
        x = np.array([[[2.0, 2.0, 1.0, 4.0]]])
        out, cache = maxpool1d_forward(x, 2)
        d_x = maxpool1d_backward(np.array([[[1.0, 7.0]]]), cache)
        assert np.array_equal(d_x, [[[1.0, 0.0, 0.0, 7.0]]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 9))
        out, cache = maxpool1d_forward(x, 2)
        d_out = rng.standard_normal(out.shape)
        d_x = maxpool1d_backward(d_out, cache)
        h = 1e-6
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = x[idx]
            x[idx] = orig + h
            lhs = maxpool1d_forward(x, 2)[0]
            x[idx] = orig - h
            rhs = maxpool1d_forward(x, 2)[0]
            x[idx] = orig
            fd = np.sum((lhs - rhs) / (2 * h) * d_out)
            assert abs(d_x[idx] - fd) <= 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        losses, _, probs = softmax_cross_entropy_batch(np.zeros((1, 6)), np.array([2]))
        assert abs(losses[0] - np.log(6.0)) < 1e-12
        assert np.allclose(probs, 1.0 / 6.0)
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_confident_correct_logit_gives_near_zero_loss(self):
        logits = np.zeros((1, 6))
        logits[0, 4] = 1e4
        losses, _, probs = softmax_cross_entropy_batch(logits, np.array([4]))
        assert losses[0] < 1e-9
        assert probs[0, 4] > 1.0 - 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal(6)[None]
        true = np.array([3])
        _, grads, _ = softmax_cross_entropy_batch(logits, true)
        h = 1e-3
        for k in range(6):
            bumped = logits.copy()
            bumped[0, k] += h
            lhs = softmax_cross_entropy_batch(bumped, true)[0][0]
            bumped[0, k] -= 2 * h
            rhs = softmax_cross_entropy_batch(bumped, true)[0][0]
            fd = (lhs - rhs) / (2 * h)
            assert abs(grads[0, k] - fd) <= 1e-6

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((5, 6))
        classes = rng.integers(0, 6, size=5)
        losses, grads, probs = softmax_cross_entropy_batch(logits, classes)
        # Row i of the batch equals the one-row batch of row i.
        for i in range(5):
            row = slice(i, i + 1)
            loss_i, grad_i, probs_i = softmax_cross_entropy_batch(logits[row], classes[row])
            assert abs(losses[i] - loss_i[0]) < 1e-12
            assert np.allclose(grads[i], grad_i[0])
            assert np.allclose(probs[i], probs_i[0])

    def test_huge_logits_stay_finite(self):
        losses, grad, probs = softmax_cross_entropy_batch(
            np.array([[1e30, -1e30, 0, 0, 0, 0]]), np.array([0])
        )
        assert np.isfinite(losses[0])
        assert np.all(np.isfinite(grad))
        assert abs(probs.sum() - 1.0) < 1e-6
