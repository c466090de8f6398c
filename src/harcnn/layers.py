"""From-scratch layer math: dense with optional ReLU, strided 1-D
convolution with ReLU, max pooling and softmax cross-entropy, each with
an exact backward pass.

All forwards take a batch-major input, keep the dtype they are given
(float32 in training, float64 in gradient checks), and return the cache
their backward needs. Gradients are per-batch sums; mini-batch averaging
happens in the training loop.

Conv and pool take a (batch, channels, length) array in any memory layout.
Their forwards, and the d_x of their backwards, are (batch, channels,
length) views of channels-last (batch, length, channels) arrays, the
layout the conv GEMM writes and the next layer reads without a copy.
Such a view shares memory with the layer's cache: callers must not write
into it.
"""

from __future__ import annotations

import numpy as np


def dense_forward(x, weights, bias, relu=True):
    """h = x @ W.T + b, then ReLU when `relu`, for x of shape (batch, in_dim), W of (out, in_dim)."""
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"dense shape mismatch: x {x.shape} vs weights {weights.shape}")
    out = x @ weights.T + bias
    if relu:
        np.maximum(out, 0.0, out=out)
    return out, (x, out, relu)


def dense_backward(d_out, cache, weights):
    """Returns (d_x, d_weights, d_bias) for the cached dense forward."""
    x, out, relu = cache
    d_pre = d_out * (out > 0.0).astype(out.dtype) if relu else d_out
    return d_pre @ weights, d_pre.T @ x, d_pre.sum(axis=0)


def conv_output_len(in_len: int, kernel_len: int, stride: int) -> int:
    return (in_len - kernel_len) // stride + 1


def _conv_windows(x: np.ndarray, kernel_len: int, stride: int) -> np.ndarray:
    """Tap-major (batch, L_out, kernel_len, streams) copy of the valid windows.

    In a channels-last sample each window's kernel_len * streams values
    are contiguous, so all windows are one strided copy of the sample's
    flat row. A channels-first `x` is copied channels-last first.
    """
    batch, streams, in_len = x.shape
    rows = np.ascontiguousarray(x.transpose(0, 2, 1)).reshape(batch, in_len * streams)
    view = np.lib.stride_tricks.sliding_window_view(rows, kernel_len * streams, axis=1)
    view = view[:, :: stride * streams]  # (batch, L_out, kernel_len * streams)
    return view.reshape(batch, view.shape[1], kernel_len, streams).copy()


def conv1d_forward(x, weights, bias, stride=1):
    """Valid multi-stream 1-D convolution with stride, followed by ReLU.

    x: (batch, streams, L_in) in any memory layout; weights: (filters, streams, kernel_len);
    output h[b, n, s] = relu(sum_{i,r} w[n, r, i] * x[b, r, s*stride + i] + b[n]),
    a (batch, filters, L_out) view of a channels-last (batch, L_out, filters) array.
    The whole batch is one GEMM over tap-major windows, so each dot product
    runs over the (tap, stream) pairs in the order the BLAS kernel takes them.
    """
    batch, streams, in_len = x.shape
    filters, w_streams, kernel_len = weights.shape
    if w_streams != streams:
        raise ValueError(f"weights expect {w_streams} streams, input has {streams}")
    if kernel_len > in_len:
        raise ValueError(f"kernel length {kernel_len} exceeds input length {in_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    windows = _conv_windows(x, kernel_len, stride)
    out_len = windows.shape[1]
    w_taps = weights.transpose(0, 2, 1).reshape(filters, -1)  # (filters, kernel_len*streams)
    pre = windows.reshape(batch * out_len, kernel_len * streams) @ w_taps.T
    pre += bias
    out = np.maximum(pre, 0.0, out=pre).reshape(batch, out_len, filters)
    return out.transpose(0, 2, 1), (windows, out, x.shape, stride)


def conv1d_backward(d_out, cache, weights, want_d_x=True):
    """Returns (d_x, d_weights, d_bias) for the cached conv forward.

    d_x is a channels-last view, or None without `want_d_x` (a first layer,
    whose input gradient nothing reads).
    """
    windows, out, x_shape, stride = cache
    filters, streams, kernel_len = weights.shape
    batch, _, out_len = d_out.shape
    # ReLU's derivative as a 0/1 multiplier, (batch, L_out, filters): a negative
    # gradient at a dead unit becomes -0.0, as a select would not give.
    d_pre = (out > 0.0).astype(out.dtype)
    d_pre *= d_out.transpose(0, 2, 1)
    flat = d_pre.reshape(-1, filters)
    d_w = flat.T @ windows.reshape(batch * out_len, kernel_len * streams)
    # Contiguous like the weights, which Adam's in-place updates run over faster.
    d_weights = np.ascontiguousarray(d_w.reshape(filters, kernel_len, streams).transpose(0, 2, 1))
    d_bias = flat.sum(axis=0)
    if not want_d_x:
        return None, d_weights, d_bias
    # Stream-major, unlike the windows: each tap's slice is then one stride
    # over a sample's positions and streams, which the scatter reads fastest.
    d_windows = d_pre @ weights.reshape(filters, -1)  # (b, L_out, streams*m)
    d_windows = d_windows.reshape(batch, out_len, streams, kernel_len)
    d_xt = np.zeros((batch, x_shape[2], streams), dtype=d_out.dtype)
    span = stride * (out_len - 1) + 1
    for i in range(kernel_len):  # ascending taps fix each d_x element's summation order
        d_xt[:, i : i + span : stride] += d_windows[:, :, :, i]
    return d_xt.transpose(0, 2, 1), d_weights, d_bias


def maxpool1d_forward(x, width):
    """Non-overlapping window maxima over the last axis; remainder dropped.

    Returns a (batch, channels, L_out) view of a fresh channels-last array.
    The cache records each window's first maximum, as argmax would: a bool
    "second is larger" mask at width 2, an index array at width >= 3.
    """
    if width < 1:
        raise ValueError(f"pool width must be >= 1, got {width}")
    span = x.shape[2] // width * width
    xt = x.transpose(0, 2, 1)
    out = xt[:, :span:width].copy()
    argmax = 0  # at width 1 each window is its own first maximum
    for j in range(1, width):
        s = xt[:, j:span:width]
        larger = s > out  # strictly, so a tie keeps the earlier index
        argmax = larger if j == 1 else np.where(larger, j, argmax)
        # np.maximum, not np.where(larger, ...), so a NaN still reaches the output;
        # with `out` second it is the value kept on a tie.
        np.maximum(s, out, out=out)
    return out.transpose(0, 2, 1), (argmax, x.shape, width)


def maxpool1d_backward(d_out, cache):
    """Routes each output gradient to its window's first maximum; returns a channels-last d_x."""
    argmax, x_shape, width = cache
    batch, channels, in_len = x_shape
    out_len = in_len // width
    d_xt = np.zeros((batch, in_len, channels), dtype=d_out.dtype)
    # Select on bit patterns: d_out's exact bits at the maximum and +0.0 elsewhere,
    # as scattering into zeros gives. Multiplying by the mask would write -0.0
    # wherever a negative gradient meets a 0.
    bits = np.dtype(f"i{d_out.itemsize}")
    blocks = d_xt[:, : out_len * width].reshape(batch, out_len, width, channels).view(bits)
    d_bits = d_out.transpose(0, 2, 1).view(bits)
    for j in range(width):
        np.bitwise_and(d_bits, np.negative(argmax == j, dtype=bits), out=blocks[:, :, j])
    return d_xt.transpose(0, 2, 1)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_batch(logits, class_indices):
    """Per-sample losses (batch,), gradients (batch, classes), probabilities.

    `class_indices` holds each row's zero-based true class. A loss is
    log(sum(exp(shifted))) - shifted[true], with shifted = logits - max,
    so it stays finite where the true class's probability underflows to 0.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    probs = e / total[:, None]
    rows = np.arange(logits.shape[0])
    losses = np.log(total) - shifted[rows, class_indices]
    grads = probs.copy()
    grads[rows, class_indices] -= 1.0
    return losses, grads, probs
