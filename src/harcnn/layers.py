"""From-scratch layer math: dense, strided 1-D convolution, max pooling,
and softmax cross-entropy, each with an exact backward pass.

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

ACTIVATIONS = ("relu", "sigmoid", "identity")


def activate(name: str, pre: np.ndarray) -> np.ndarray:
    """Applies the activation; relu overwrites `pre` in place."""
    if name == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    if name == "identity":
        return pre
    raise ValueError(f"unknown activation {name!r}")


def activation_grad(name: str, out: np.ndarray) -> np.ndarray:
    """Derivative w.r.t. the pre-activation, expressed through the output."""
    if name == "relu":
        return (out > 0.0).astype(out.dtype)
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "identity":
        return np.ones_like(out)
    raise ValueError(f"unknown activation {name!r}")


def dense_forward(x, weights, bias, activation="relu"):
    """h = act(x @ W.T + b) for x of shape (batch, in_dim), W of (out, in_dim)."""
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"dense shape mismatch: x {x.shape} vs weights {weights.shape}")
    out = activate(activation, x @ weights.T + bias)
    return out, (x, out, activation)


def dense_backward(d_out, cache, weights):
    """Returns (d_x, d_weights, d_bias) for the cached dense forward."""
    x, out, activation = cache
    d_pre = d_out * activation_grad(activation, out)
    return d_pre @ weights, d_pre.T @ x, d_pre.sum(axis=0)


def conv_output_len(in_len: int, kernel_len: int, stride: int) -> int:
    return (in_len - kernel_len) // stride + 1


def _conv_windows(x: np.ndarray, kernel_len: int, stride: int) -> np.ndarray:
    """(batch, L_out, streams * kernel_len) view-copy of the valid windows."""
    view = np.lib.stride_tricks.sliding_window_view(x, kernel_len, axis=2)
    view = view[:, :, ::stride, :]  # (batch, streams, L_out, m)
    return view.transpose(0, 2, 1, 3).reshape(x.shape[0], view.shape[2], -1)


def conv1d_forward(x, weights, bias, stride=1, activation="relu"):
    """Valid multi-stream 1-D convolution with stride.

    x: (batch, streams, L_in) in any memory layout; weights: (filters, streams, kernel_len);
    output h[b, n, s] = act(sum_{r,i} w[n, r, i] * x[b, r, s*stride + i] + b[n]),
    a (batch, filters, L_out) view of a channels-last (batch, L_out, filters) array.
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
    pre = windows @ weights.reshape(filters, -1).T  # (batch, L_out, filters)
    pre += bias
    out = activate(activation, pre)
    return out.transpose(0, 2, 1), (windows, out, x.shape, stride, activation)


def conv1d_backward(d_out, cache, weights):
    """Returns (d_x, d_weights, d_bias) for the cached conv forward; d_x is channels-last."""
    windows, out, x_shape, stride, activation = cache
    filters, streams, kernel_len = weights.shape
    batch, _, out_len = d_out.shape
    d_pre = activation_grad(activation, out)  # (batch, L_out, filters), a fresh array
    d_pre *= d_out.transpose(0, 2, 1)
    flat = d_pre.reshape(-1, filters)
    d_weights = (flat.T @ windows.reshape(-1, streams * kernel_len)).reshape(weights.shape)
    d_bias = flat.sum(axis=0)
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

    `class_indices` holds each row's zero-based true class.
    """
    probs = softmax(logits)
    rows = np.arange(logits.shape[0])
    losses = -np.log(probs[rows, class_indices])
    grads = probs.copy()
    grads[rows, class_indices] -= 1.0
    return losses, grads, probs
