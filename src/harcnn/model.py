"""Two-channel 1-D CNN: shared hyperparameters, separate weights per channel.

The frequency channel consumes the 9x65 magnitude matrix and the power
channel the 9x33 PSD matrix; their dense outputs are concatenated and
fused into 6 class logits. Both channels run the same conv/pool/dense
hyperparameters. The 9 input streams and the 6 classes come from the
dataset, and every conv and channel dense layer is ReLU, so a `ModelSpec`
holds only the free architecture choices; the input widths are those of
the normalization stats every model carries and applies to its raw
input. `param_shapes` alone fixes the name, shape and order of every
weight and bias; `ModelParams` holds them in one name->array dict and
checks it against that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import N_CLASSES, N_STREAMS
from .features import NormStats, normalize
from .layers import (
    conv1d_backward,
    conv1d_forward,
    conv_output_len,
    dense_backward,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_forward,
)
from .parallel import map_blocks


@dataclass(frozen=True)
class ConvLayerSpec:
    filters: int
    kernel_len: int
    stride: int = 1

    def __post_init__(self) -> None:
        if min(self.filters, self.kernel_len, self.stride) < 1:
            raise ValueError(f"conv spec dimensions must be positive: {self}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture shared by both channels; input bin counts stay out of it."""

    convs: tuple[ConvLayerSpec, ...]
    pool_widths: tuple[int, ...]
    dense_units: int

    def __post_init__(self) -> None:
        if not self.convs:
            raise ValueError("at least one conv layer is required")
        if len(self.pool_widths) != len(self.convs):
            raise ValueError("pool_widths must have one entry per conv layer")
        if any(w < 1 for w in self.pool_widths):
            raise ValueError("pool widths must be >= 1")
        if self.dense_units < 1:
            raise ValueError("dense_units must be positive")

    def flat_dim(self, bins: int) -> int:
        """Flattened width after the conv/pool stack on a `bins`-wide input."""
        length = bins
        for conv, pool in zip(self.convs, self.pool_widths):
            length = conv_output_len(length, conv.kernel_len, conv.stride)
            if length < 1:
                raise ValueError(f"input of {bins} bins collapses inside the conv stack")
            length //= pool
            if length < 1:
                raise ValueError(f"input of {bins} bins collapses inside the pool stack")
        return self.convs[-1].filters * length


DEFAULT_MODEL_SPEC = ModelSpec(
    convs=(
        ConvLayerSpec(filters=32, kernel_len=7),
        ConvLayerSpec(filters=64, kernel_len=5),
    ),
    pool_widths=(2, 2),
    dense_units=128,
)


def param_shapes(spec: ModelSpec, freq_bins: int, power_bins: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight and bias, in the fixed (init, update, checkpoint) order."""
    shapes = {}
    for prefix, bins in (("freq", freq_bins), ("power", power_bins)):
        in_streams = N_STREAMS
        for i, conv in enumerate(spec.convs):
            shapes[f"{prefix}.conv{i}.w"] = (conv.filters, in_streams, conv.kernel_len)
            shapes[f"{prefix}.conv{i}.b"] = (conv.filters,)
            in_streams = conv.filters
        shapes[f"{prefix}.dense.w"] = (spec.dense_units, spec.flat_dim(bins))
        shapes[f"{prefix}.dense.b"] = (spec.dense_units,)
    shapes["fusion.w"] = (N_CLASSES, 2 * spec.dense_units)
    shapes["fusion.b"] = (N_CLASSES,)
    return shapes


@dataclass
class ModelParams:
    """Weights and biases of one model, and the stats whose widths are its input widths."""

    spec: ModelSpec
    arrays: dict[str, np.ndarray]
    rng_seed: int
    norm: NormStats

    def __post_init__(self) -> None:
        expected = param_shapes(self.spec, *self.norm.bins)
        got = {name: arr.shape for name, arr in self.arrays.items()}
        for name in [*expected, *got]:
            if got.get(name) != expected.get(name):
                raise ValueError(
                    f"parameter arrays do not match spec: {name!r} has shape "
                    f"{got.get(name, 'none')}, spec has {expected.get(name, 'none')}"
                )

    @property
    def dtype(self) -> np.dtype:
        return self.arrays["fusion.w"].dtype

    def copy(self) -> "ModelParams":
        return replace(self, arrays={name: arr.copy() for name, arr in self.arrays.items()})


def init_model(
    spec: ModelSpec = DEFAULT_MODEL_SPEC, seed: int = 0, *, norm: NormStats, dtype=np.float32
) -> ModelParams:
    """Seeded initialization: zero biases, one PCG64 uniform draw per weight in layout order.

    An (out, in, *kernel) weight has fan-in in*K and fan-out out*K (K = prod(kernel));
    the relu layers get He fan-in scaling, the identity fusion layer a symmetric
    fan-average.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(spec, *norm.bins).items():
        if name.endswith(".b"):
            arrays[name] = np.zeros(shape, dtype=dtype)
            continue
        receptive = math.prod(shape[2:])
        fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
        if name.startswith("fusion."):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        else:
            limit = np.sqrt(6.0 / fan_in)
        arrays[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return ModelParams(spec, arrays, rng_seed=seed, norm=norm)


# Rows per predict_batch chunk. It fixes the dense and fusion GEMM shapes, and with
# them the output bits: the fusion GEMM's 6 columns sum in another order when its rows
# are split.
PREDICT_CHUNK = 512
# Rows per sub-block of a chunk's conv stack at inference; a conv GEMM over 128 rows
# of L_out positions gives the bits it gives over the whole chunk.
CONV_BLOCK = 128


def _conv_stack(x, params: ModelParams, prefix: str, caches: list | None):
    """The last pool's (n, filters, L) output on raw (n,9,bins) rows; layer caches go to `caches`.

    The rows are normalized with the model's stats and cast to its dtype in
    a channels-last layout, so the first conv copies its windows without a
    transpose. Without `caches` each conv's windows go as soon as the conv
    returns and its output once the pool has read it, so the rows hold one
    layer's working set at a time.
    """
    arrays = params.arrays
    mean, std = getattr(params.norm, f"{prefix}_mean"), getattr(params.norm, f"{prefix}_std")
    h = normalize(x, mean, std)
    h = np.ascontiguousarray(h.transpose(0, 2, 1), dtype=params.dtype).transpose(0, 2, 1)
    for i, (conv, pool_w) in enumerate(zip(params.spec.convs, params.spec.pool_widths)):
        w, b = arrays[f"{prefix}.conv{i}.w"], arrays[f"{prefix}.conv{i}.b"]
        h, conv_cache = conv1d_forward(h, w, b, conv.stride)
        if caches is None:
            conv_cache = None  # frees the windows; `h` holds the output until the pool
        h, pool_cache = maxpool1d_forward(h, pool_w)
        if caches is not None:
            caches.append((conv_cache, pool_cache))
        del pool_cache  # without caches the pool's argmax goes before the next conv
    return h


def _channel_forward(x, params: ModelParams, prefix: str, want_cache: bool):
    """One channel's dense output on its raw (n,9,bins) features; with `want_cache`, its caches.

    With `want_cache` the conv stack (see _conv_stack) runs over all n rows
    at once and keeps its caches. Without, it runs over CONV_BLOCK-row
    sub-blocks, so a chunk holds one sub-block's working set at a time.
    Either way each block's flattened pool output is written into one
    (n, flat_dim) array, which the dense layer then reads at all n rows.
    """
    n, spec = x.shape[0], params.spec
    flat = np.empty((n, spec.flat_dim(x.shape[2])), dtype=params.dtype)
    filters = spec.convs[-1].filters
    pooled = flat.reshape(n, filters, flat.shape[1] // filters)  # the pool output's view of `flat`
    caches = [] if want_cache else None
    step = max(n, 1) if want_cache else CONV_BLOCK
    for start in range(0, n, step):
        rows = slice(start, start + step)
        pooled[rows] = _conv_stack(x[rows], params, prefix, caches)
    arrays = params.arrays
    out, dense_cache = dense_forward(flat, arrays[f"{prefix}.dense.w"], arrays[f"{prefix}.dense.b"])
    return out, (caches, pooled.shape, dense_cache) if want_cache else None


def _channel_backward(d_out, cache, params: ModelParams, prefix: str, grads):
    caches, pre_flatten_shape, dense_cache = cache
    arrays = params.arrays
    d_flat, d_dw, d_db = dense_backward(d_out, dense_cache, arrays[f"{prefix}.dense.w"])
    grads[f"{prefix}.dense.w"] = d_dw
    grads[f"{prefix}.dense.b"] = d_db
    d_h = d_flat.reshape(pre_flatten_shape)
    for i in reversed(range(len(params.spec.convs))):
        conv_cache, pool_cache = caches[i]
        d_h = maxpool1d_backward(d_h, pool_cache)
        # The first conv's input gradient would be the features', which nothing reads.
        w = arrays[f"{prefix}.conv{i}.w"]
        d_h, d_w, d_b = conv1d_backward(d_h, conv_cache, w, want_d_x=i > 0)
        grads[f"{prefix}.conv{i}.w"] = d_w
        grads[f"{prefix}.conv{i}.b"] = d_b


def forward_batch(params: ModelParams, freq, power, want_cache: bool = False):
    """Class logits (n, 6) of batched raw (n,9,F)/(n,9,P) features, and backward_batch's cache.

    The cache is None without `want_cache`. Each channel normalizes its own
    features with the model's stats (see _channel_forward). Raises ValueError
    when the widths are not the stats', or when any logit is non-finite (NaN
    or inf in the features or the weights), so a broken input never yields
    predictions.
    """
    params.norm.check_shapes(freq, power)
    f_out, f_cache = _channel_forward(freq, params, "freq", want_cache)
    p_out, p_cache = _channel_forward(power, params, "power", want_cache)
    concat = np.concatenate([f_out, p_out], axis=1)
    logits, fusion_cache = dense_forward(
        concat, params.arrays["fusion.w"], params.arrays["fusion.b"], relu=False
    )
    if not np.isfinite(logits).all():
        raise ValueError("model produced non-finite logits (NaN or inf in the features or weights)")
    return logits, (f_cache, p_cache, fusion_cache) if want_cache else None


def backward_batch(params: ModelParams, cache, d_logits) -> dict[str, np.ndarray]:
    """Gradients of the summed loss w.r.t. every weight and bias."""
    f_cache, p_cache, fusion_cache = cache
    grads: dict[str, np.ndarray] = {}
    d_concat, d_fw, d_fb = dense_backward(d_logits, fusion_cache, params.arrays["fusion.w"])
    grads["fusion.w"] = d_fw
    grads["fusion.b"] = d_fb
    units = params.spec.dense_units
    _channel_backward(d_concat[:, :units], f_cache, params, "freq", grads)
    _channel_backward(d_concat[:, units:], p_cache, params, "power", grads)
    return grads


def predict_batch(params: ModelParams, features) -> np.ndarray:
    """Class logits (n, 6) of a FeatureSet's or an open FeatureCache's raw features.

    They are computed in PREDICT_CHUNK-row chunks to bound memory, and
    each chunk's rows are read through features.rows() inside its task.
    The chunks run on every available CPU (see parallel.map_blocks);
    layers.softmax turns the logits into probabilities. Zero rows make one
    empty chunk, so they give (0, 6) logits.
    """
    chunk = PREDICT_CHUNK
    rows = [slice(start, start + chunk) for start in range(0, max(len(features), 1), chunk)]
    logits = map_blocks(lambda r: forward_batch(params, *features.rows(r))[0], rows)
    return np.concatenate(logits, axis=0)
