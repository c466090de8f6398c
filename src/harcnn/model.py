"""Two-channel 1-D CNN: shared hyperparameters, separate weights per channel.

The frequency channel consumes the 9x65 magnitude matrix and the power
channel the 9x33 PSD matrix; their dense outputs are concatenated and
fused into 6 class logits. Both channels run the same conv/pool/dense
hyperparameters. `param_shapes` alone fixes the name, shape and order of
every weight and bias; `ModelParams` holds them in one name->array dict
and checks it against that layout at construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import N_STREAMS
from .dsp import require_type
from .features import NormStats
from .layers import (
    ACTIVATIONS,
    conv1d_backward,
    conv1d_forward,
    conv_output_len,
    dense_backward,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax,
)
from .parallel import map_blocks

N_CLASSES = 6


@dataclass(frozen=True)
class ConvLayerSpec:
    in_streams: int
    filters: int
    kernel_len: int
    stride: int = 1
    activation: str = "relu"

    def __post_init__(self) -> None:
        require_type(int, self, "in_streams", "filters", "kernel_len", "stride")
        if min(self.in_streams, self.filters, self.kernel_len) < 1 or self.stride < 1:
            raise ValueError(f"conv spec dimensions must be positive: {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture shared by both channels; input bin counts stay out of it."""

    convs: tuple[ConvLayerSpec, ...]
    pool_widths: tuple[int, ...]
    dense_units: int
    dense_activation: str = "relu"
    classes: int = N_CLASSES

    def __post_init__(self) -> None:
        if not self.convs:
            raise ValueError("at least one conv layer is required")
        if len(self.pool_widths) != len(self.convs):
            raise ValueError("pool_widths must have one entry per conv layer")
        require_type(int, self, "pool_widths", "dense_units", "classes")
        if any(w < 1 for w in self.pool_widths):
            raise ValueError("pool widths must be >= 1")
        for prev, nxt in zip(self.convs, self.convs[1:]):
            if nxt.in_streams != prev.filters:
                raise ValueError(
                    f"conv chain mismatch: layer expects {nxt.in_streams} streams "
                    f"after one producing {prev.filters}"
                )
        if self.dense_units < 1 or self.classes < 1:
            raise ValueError("dense_units and classes must be positive")
        if self.dense_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.dense_activation!r}")

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

    def to_json_dict(self) -> dict:
        d = asdict(self)
        return {**d, "convs": list(d["convs"]), "pool_widths": list(self.pool_widths)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            convs=tuple(ConvLayerSpec(**c) for c in d["convs"]),
            pool_widths=tuple(d["pool_widths"]),
            dense_units=d["dense_units"],
            dense_activation=d["dense_activation"],
            classes=d["classes"],
        )


DEFAULT_MODEL_SPEC = ModelSpec(
    convs=(
        ConvLayerSpec(in_streams=N_STREAMS, filters=32, kernel_len=7),
        ConvLayerSpec(in_streams=32, filters=64, kernel_len=5),
    ),
    pool_widths=(2, 2),
    dense_units=128,
)


def param_shapes(spec: ModelSpec, freq_bins: int, power_bins: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight and bias, in the fixed (init, update, checkpoint) order."""
    shapes = {}
    for prefix, bins in (("freq", freq_bins), ("power", power_bins)):
        for i, conv in enumerate(spec.convs):
            shapes[f"{prefix}.conv{i}.w"] = (conv.filters, conv.in_streams, conv.kernel_len)
            shapes[f"{prefix}.conv{i}.b"] = (conv.filters,)
        shapes[f"{prefix}.dense.w"] = (spec.dense_units, spec.flat_dim(bins))
        shapes[f"{prefix}.dense.b"] = (spec.dense_units,)
    shapes["fusion.w"] = (spec.classes, 2 * spec.dense_units)
    shapes["fusion.b"] = (spec.classes,)
    return shapes


@dataclass
class ModelParams:
    spec: ModelSpec
    freq_bins: int
    power_bins: int
    arrays: dict[str, np.ndarray]
    rng_seed: int
    norm: NormStats | None = None

    def __post_init__(self) -> None:
        expected = param_shapes(self.spec, self.freq_bins, self.power_bins)
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
    spec: ModelSpec = DEFAULT_MODEL_SPEC,
    freq_bins: int = 65,
    power_bins: int = 33,
    seed: int = 0,
    norm: NormStats | None = None,
    dtype=np.float32,
) -> ModelParams:
    """Seeded initialization: zero biases, one PCG64 uniform draw per weight in layout order.

    An (out, in, *kernel) weight has fan-in in*K and fan-out out*K (K = prod(kernel));
    relu layers get He fan-in scaling, the others a symmetric fan-average.
    """
    rng = np.random.default_rng(seed)
    activations = {f"conv{i}": conv.activation for i, conv in enumerate(spec.convs)}
    activations.update(dense=spec.dense_activation, fusion="identity")
    arrays = {}
    for name, shape in param_shapes(spec, freq_bins, power_bins).items():
        if name.endswith(".b"):
            arrays[name] = np.zeros(shape, dtype=dtype)
            continue
        receptive = math.prod(shape[2:])
        fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
        if activations[name.split(".")[-2]] == "relu":
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        arrays[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return ModelParams(spec, freq_bins, power_bins, arrays, rng_seed=seed, norm=norm)


def _channel_forward(x, params: ModelParams, prefix: str, want_cache: bool):
    """Dense output of one channel, and its layer caches when `want_cache`.

    Without caches a layer's im2col windows are freed once the next conv
    has run, instead of living as long as the batch's caches.
    """
    arrays = params.arrays
    caches = []
    h = x
    for i, (conv, pool_w) in enumerate(zip(params.spec.convs, params.spec.pool_widths)):
        w, b = arrays[f"{prefix}.conv{i}.w"], arrays[f"{prefix}.conv{i}.b"]
        h, conv_cache = conv1d_forward(h, w, b, conv.stride, conv.activation)
        pool_cache = None
        if pool_w > 1:
            h, pool_cache = maxpool1d_forward(h, pool_w)
        if want_cache:
            caches.append((conv_cache, pool_cache))
    pre_flatten_shape = h.shape
    flat = h.reshape(h.shape[0], -1)
    out, dense_cache = dense_forward(
        flat, arrays[f"{prefix}.dense.w"], arrays[f"{prefix}.dense.b"], params.spec.dense_activation
    )
    return out, (caches, pre_flatten_shape, dense_cache) if want_cache else None


def _channel_backward(d_out, cache, params: ModelParams, prefix: str, grads):
    caches, pre_flatten_shape, dense_cache = cache
    arrays = params.arrays
    d_flat, d_dw, d_db = dense_backward(d_out, dense_cache, arrays[f"{prefix}.dense.w"])
    grads[f"{prefix}.dense.w"] = d_dw
    grads[f"{prefix}.dense.b"] = d_db
    d_h = d_flat.reshape(pre_flatten_shape)
    for i in reversed(range(len(params.spec.convs))):
        conv_cache, pool_cache = caches[i]
        if pool_cache is not None:
            d_h = maxpool1d_backward(d_h, pool_cache)
        d_h, d_w, d_b = conv1d_backward(d_h, conv_cache, arrays[f"{prefix}.conv{i}.w"])
        grads[f"{prefix}.conv{i}.w"] = d_w
        grads[f"{prefix}.conv{i}.b"] = d_b
    return d_h


def forward_batch(params: ModelParams, freq, power, want_cache: bool = False):
    """Class logits and probabilities for batched (n,9,F)/(n,9,P) features.

    Raises ValueError when any logit is non-finite (NaN or inf in the
    features or the weights), so a broken input never yields predictions.
    """
    dtype = params.dtype
    freq = np.ascontiguousarray(freq, dtype=dtype)
    power = np.ascontiguousarray(power, dtype=dtype)
    streams = params.spec.convs[0].in_streams
    if freq.shape[1:] != (streams, params.freq_bins) or power.shape[1:] != (
        streams,
        params.power_bins,
    ):
        raise ValueError(
            f"feature shapes {freq.shape[1:]}/{power.shape[1:]} do not match model "
            f"({streams}, {params.freq_bins})/({streams}, {params.power_bins})"
        )
    f_out, f_cache = _channel_forward(freq, params, "freq", want_cache)
    p_out, p_cache = _channel_forward(power, params, "power", want_cache)
    concat = np.concatenate([f_out, p_out], axis=1)
    logits, fusion_cache = dense_forward(
        concat, params.arrays["fusion.w"], params.arrays["fusion.b"], "identity"
    )
    if not np.isfinite(logits).all():
        raise ValueError("model produced non-finite logits (NaN or inf in the features or weights)")
    probs = softmax(logits)
    if want_cache:
        return logits, probs, (f_cache, p_cache, fusion_cache)
    return logits, probs


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


def predict_batch(params: ModelParams, freq, power, chunk: int = 512) -> np.ndarray:
    """Probabilities (n, classes) computed in chunks to bound memory.

    The chunks run on every available CPU (see parallel.map_blocks). The
    chunk size fixes the GEMM shapes, and with them the output bits.
    """

    def probs(start: int) -> np.ndarray:
        return forward_batch(params, freq[start : start + chunk], power[start : start + chunk])[1]

    return np.concatenate(map_blocks(probs, range(0, freq.shape[0], chunk)), axis=0)
