"""Two-channel 1-D CNN: shared hyperparameters, separate weights per channel.

The frequency channel consumes the 9x65 magnitude matrix and the power
channel the 9x33 PSD matrix; their dense outputs are concatenated and
fused into 6 class logits. Both channels run the same conv/pool/dense
hyperparameters, which is asserted at construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import N_STREAMS
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

N_CLASSES = 6


@dataclass(frozen=True)
class ConvLayerSpec:
    in_streams: int
    filters: int
    kernel_len: int
    stride: int = 1
    activation: str = "relu"

    def __post_init__(self) -> None:
        if min(self.in_streams, self.filters, self.kernel_len) < 1 or self.stride < 1:
            raise ValueError(f"conv spec dimensions must be positive: {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class DenseLayerSpec:
    in_dim: int
    out_nodes: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_nodes < 1:
            raise ValueError(f"dense spec dimensions must be positive: {self}")
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
            dense_units=int(d["dense_units"]),
            dense_activation=d["dense_activation"],
            classes=int(d["classes"]),
        )


DEFAULT_MODEL_SPEC = ModelSpec(
    convs=(
        ConvLayerSpec(in_streams=N_STREAMS, filters=32, kernel_len=7),
        ConvLayerSpec(in_streams=32, filters=64, kernel_len=5),
    ),
    pool_widths=(2, 2),
    dense_units=128,
)


@dataclass
class ChannelParams:
    conv_weights: list[np.ndarray]
    conv_biases: list[np.ndarray]
    dense_spec: DenseLayerSpec
    dense_weights: np.ndarray
    dense_bias: np.ndarray

    def copy(self) -> "ChannelParams":
        return ChannelParams(
            conv_weights=[w.copy() for w in self.conv_weights],
            conv_biases=[b.copy() for b in self.conv_biases],
            dense_spec=self.dense_spec,
            dense_weights=self.dense_weights.copy(),
            dense_bias=self.dense_bias.copy(),
        )


@dataclass
class ModelParams:
    spec: ModelSpec
    freq_bins: int
    power_bins: int
    freq: ChannelParams
    power: ChannelParams
    fusion_spec: DenseLayerSpec
    fusion_weights: np.ndarray
    fusion_bias: np.ndarray
    rng_seed: int
    norm: NormStats | None = None

    def __post_init__(self) -> None:
        for channel in (self.freq, self.power):
            for conv, w, b in zip(self.spec.convs, channel.conv_weights, channel.conv_biases):
                expected = (conv.filters, conv.in_streams, conv.kernel_len)
                if w.shape != expected or b.shape != (conv.filters,):
                    raise ValueError(
                        f"conv weights {w.shape}/{b.shape} do not match spec {expected}"
                    )
            if channel.dense_spec.out_nodes != self.spec.dense_units:
                raise ValueError("channel dense width differs from the shared spec")
        if self.fusion_spec.in_dim != 2 * self.spec.dense_units:
            raise ValueError("fusion input must be the concatenation of both channel outputs")
        if self.fusion_spec.out_nodes != self.spec.classes:
            raise ValueError(f"fusion must emit {self.spec.classes} outputs")

    @property
    def dtype(self) -> np.dtype:
        return self.fusion_weights.dtype

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameter arrays in the fixed (init, update, checkpoint) order."""
        out = []
        for prefix, channel in (("freq", self.freq), ("power", self.power)):
            for i, (w, b) in enumerate(zip(channel.conv_weights, channel.conv_biases)):
                out.append((f"{prefix}.conv{i}.w", w))
                out.append((f"{prefix}.conv{i}.b", b))
            out.append((f"{prefix}.dense.w", channel.dense_weights))
            out.append((f"{prefix}.dense.b", channel.dense_bias))
        out.append(("fusion.w", self.fusion_weights))
        out.append(("fusion.b", self.fusion_bias))
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            spec=self.spec,
            freq_bins=self.freq_bins,
            power_bins=self.power_bins,
            freq=self.freq.copy(),
            power=self.power.copy(),
            fusion_spec=self.fusion_spec,
            fusion_weights=self.fusion_weights.copy(),
            fusion_bias=self.fusion_bias.copy(),
            rng_seed=self.rng_seed,
            norm=self.norm,
        )


def _init_weight(rng, shape, fan_in, fan_out, activation, dtype):
    # He fan-in scaling for relu, symmetric fan-average otherwise.
    if activation == "relu":
        limit = np.sqrt(6.0 / fan_in)
    else:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_model(
    spec: ModelSpec = DEFAULT_MODEL_SPEC,
    freq_bins: int = 65,
    power_bins: int = 33,
    seed: int = 0,
    norm: NormStats | None = None,
    dtype=np.float32,
) -> ModelParams:
    """Seeded parameter initialization (PCG64 generator, fixed draw order)."""
    rng = np.random.default_rng(seed)

    def channel(bins: int) -> ChannelParams:
        conv_weights, conv_biases = [], []
        for conv in spec.convs:
            shape = (conv.filters, conv.in_streams, conv.kernel_len)
            fan_in = conv.in_streams * conv.kernel_len
            fan_out = conv.filters * conv.kernel_len
            conv_weights.append(_init_weight(rng, shape, fan_in, fan_out, conv.activation, dtype))
            conv_biases.append(np.zeros(conv.filters, dtype=dtype))
        in_dim = spec.flat_dim(bins)
        dense_spec = DenseLayerSpec(in_dim, spec.dense_units, spec.dense_activation)
        dense_w = _init_weight(
            rng, (spec.dense_units, in_dim), in_dim, spec.dense_units, spec.dense_activation, dtype
        )
        return ChannelParams(
            conv_weights=conv_weights,
            conv_biases=conv_biases,
            dense_spec=dense_spec,
            dense_weights=dense_w,
            dense_bias=np.zeros(spec.dense_units, dtype=dtype),
        )

    freq = channel(freq_bins)
    power = channel(power_bins)
    fusion_spec = DenseLayerSpec(2 * spec.dense_units, spec.classes, "identity")
    fusion_w = _init_weight(
        rng, (spec.classes, fusion_spec.in_dim), fusion_spec.in_dim, spec.classes, "identity", dtype
    )
    return ModelParams(
        spec=spec,
        freq_bins=freq_bins,
        power_bins=power_bins,
        freq=freq,
        power=power,
        fusion_spec=fusion_spec,
        fusion_weights=fusion_w,
        fusion_bias=np.zeros(spec.classes, dtype=dtype),
        rng_seed=seed,
        norm=norm,
    )


def _channel_forward(x, spec: ModelSpec, channel: ChannelParams):
    caches = []
    h = x
    for conv, pool_w, w, b in zip(
        spec.convs, spec.pool_widths, channel.conv_weights, channel.conv_biases
    ):
        h, conv_cache = conv1d_forward(h, w, b, conv.stride, conv.activation)
        pool_cache = None
        if pool_w > 1:
            h, pool_cache = maxpool1d_forward(h, pool_w)
        caches.append((conv_cache, pool_cache))
    pre_flatten_shape = h.shape
    flat = h.reshape(h.shape[0], -1)
    out, dense_cache = dense_forward(
        flat, channel.dense_weights, channel.dense_bias, channel.dense_spec.activation
    )
    return out, (caches, pre_flatten_shape, dense_cache)


def _channel_backward(d_out, cache, spec: ModelSpec, channel: ChannelParams, prefix, grads):
    caches, pre_flatten_shape, dense_cache = cache
    d_flat, d_dw, d_db = dense_backward(d_out, dense_cache, channel.dense_weights)
    grads[f"{prefix}.dense.w"] = d_dw
    grads[f"{prefix}.dense.b"] = d_db
    d_h = d_flat.reshape(pre_flatten_shape)
    for i in reversed(range(len(spec.convs))):
        conv_cache, pool_cache = caches[i]
        if pool_cache is not None:
            d_h = maxpool1d_backward(d_h, pool_cache)
        d_h, d_w, d_b = conv1d_backward(d_h, conv_cache, channel.conv_weights[i])
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
    f_out, f_cache = _channel_forward(freq, params.spec, params.freq)
    p_out, p_cache = _channel_forward(power, params.spec, params.power)
    concat = np.concatenate([f_out, p_out], axis=1)
    logits, fusion_cache = dense_forward(
        concat, params.fusion_weights, params.fusion_bias, params.fusion_spec.activation
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
    d_concat, d_fw, d_fb = dense_backward(d_logits, fusion_cache, params.fusion_weights)
    grads["fusion.w"] = d_fw
    grads["fusion.b"] = d_fb
    units = params.spec.dense_units
    _channel_backward(d_concat[:, :units], f_cache, params.spec, params.freq, "freq", grads)
    _channel_backward(d_concat[:, units:], p_cache, params.spec, params.power, "power", grads)
    return grads


def predict_batch(params: ModelParams, freq, power, chunk: int = 512) -> np.ndarray:
    """Probabilities (n, classes) computed in chunks to bound memory."""
    parts = []
    for start in range(0, freq.shape[0], chunk):
        _, probs = forward_batch(params, freq[start : start + chunk], power[start : start + chunk])
        parts.append(probs)
    return np.concatenate(parts, axis=0)
