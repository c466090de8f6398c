"""Spectral primitives: radix-2 real FFT, window functions, and Welch PSD.

All functions operate on the last axis; leading axes are treated as a
batch, mirroring the numpy.fft convention. Math is done in float64 /
complex128 regardless of input dtype.

Internally the FFT works transform-axis-first: the batch is flattened to
m signals and held as an (n, m) array, so every butterfly of every stage
is one contiguous run of m values and a stage is three whole-array
ufunc calls into preallocated buffers. The result is transposed back to
the caller's layout, and every output element sees the same operations
in the same order as the textbook last-axis formulation, so the values
are bit-identical to it. Callers keep batches to a few MB
(features.extract_features_batch passes blocks of 32 windows) so these
buffers stay cache-resident. Every buffer belongs to one call and the
cached FFT plans are only read, so calls may run on several threads at
once, as extract_features_batch runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WINDOW_KINDS = ("rectangular", "hamming")


def require_type(kind: type | tuple[type, ...], owner: object, *names: str) -> None:
    """Raise ValueError naming the first of `owner`'s fields holding a bool or a non-`kind`.

    A tuple field is checked entry by entry. Config dataclasses take values
    straight from JSON, where 64.0 and true must not pass for the integer 64
    or the number 1 (bool subclasses int).
    """
    for name in names:
        value = getattr(owner, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, bool) or not isinstance(item, kind):
                what = "integer" if kind is int else "numeric"
                raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class WelchConfig:
    """Segmentation and windowing choices for the Welch PSD estimate.

    segment_len must be even so the one-sided bin count segment_len/2 + 1
    is well defined; overlap is in samples, less than segment_len.
    """

    segment_len: int = 64
    overlap: int = 32
    window_kind: str = "hamming"

    def __post_init__(self) -> None:
        require_type(int, self, "segment_len", "overlap")
        if self.segment_len < 2 or self.segment_len % 2 != 0:
            raise ValueError(f"segment_len must be even and >= 2, got {self.segment_len}")
        if not 0 <= self.overlap < self.segment_len:
            raise ValueError(f"overlap must be in [0, {self.segment_len - 1}], got {self.overlap}")
        if self.window_kind not in WINDOW_KINDS:
            raise ValueError(f"window_kind must be one of {WINDOW_KINDS}, got {self.window_kind!r}")

    @property
    def step(self) -> int:
        return self.segment_len - self.overlap

    @property
    def n_bins(self) -> int:
        return self.segment_len // 2 + 1


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided Welch PSD: `values` has segment_len/2 + 1 bins per signal."""

    values: np.ndarray
    bin_width_hz: float
    segment_len: int
    segment_count: int


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@lru_cache(maxsize=32)
def _fft_plan(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Bit-reversal permutation and per-stage twiddle factors for size n."""
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(levels):
        rev = (rev << 1) | ((idx >> b) & 1)
    twiddles = []
    size = 2
    while size <= n:
        twiddles.append(np.exp(-2j * np.pi * np.arange(size // 2) / size))
        size *= 2
    return rev, tuple(twiddles)


def _fft(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT over the last axis.

    The leading axes are flattened to m signals; one copy does the
    bit-reversal gather and the move to an (n, m) transform-axis-first
    layout. Each stage views the current buffer as (n/size, size, m),
    scales the odd halves by the twiddles (broadcast as (half, 1)) in
    place, and writes even + odd and even - odd into the other of two
    ping-pong buffers. The returned array is a transposed view with the
    input's shape.
    """
    shape = x.shape
    n = shape[-1]
    rev, twiddles = _fft_plan(n)
    signals = x.reshape(-1, n)
    m = signals.shape[0]
    src = np.empty((n, m), dtype=np.complex128)
    src[...] = signals.T[rev]
    dst = np.empty_like(src)
    half = 1
    for tw in twiddles:
        size = 2 * half
        blocks = src.reshape(n // size, size, m)
        out = dst.reshape(n // size, size, m)
        even = blocks[:, :half]
        odd = blocks[:, half:]
        np.multiply(odd, tw[:, None], out=odd)
        np.add(even, odd, out=out[:, :half])
        np.subtract(even, odd, out=out[:, half:])
        src, dst = dst, src
        half = size
    return src.T.reshape(shape)


def fft_real(signal: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a real signal whose length is a power of two.

    Returns the full complex spectrum (same length as the input, negative
    exponent convention, no 1/N factor).
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"signal length must be a power of two >= 2, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    return _fft(x)


def magnitude_onesided(spectrum: np.ndarray) -> np.ndarray:
    """Raw one-sided magnitudes |X(k)| for k = 0 .. N/2 of an even-length spectrum."""
    spec = np.asarray(spectrum)
    n = spec.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ValueError(f"spectrum length must be even and >= 2, got {n}")
    return np.abs(spec[..., : n // 2 + 1])


def make_window(kind: str, length: int) -> np.ndarray:
    """Temporal window of the given kind: all ones, or the 0.54/0.46 Hamming taper."""
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    if kind == "rectangular":
        return np.ones(length)
    if kind == "hamming":
        t = np.arange(length)
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * t / (length - 1))
    raise ValueError(f"unknown window kind {kind!r}")


def window_power(window: np.ndarray) -> float:
    """Mean squared value of the window (the periodogram's normalizing power)."""
    w = np.asarray(window, dtype=np.float64)
    return float(np.mean(w * w))


def windowed_periodogram(segment: np.ndarray, window: np.ndarray) -> np.ndarray:
    """One-sided windowed periodogram of one segment.

    Computes |FFT(u * y)|^2 / (O * P) with P the mean squared window value,
    keeps bins 0 .. O/2 and doubles the interior bins so the one-sided total
    matches the two-sided one.
    """
    seg = np.asarray(segment, dtype=np.float64)
    win = np.asarray(window, dtype=np.float64)
    if win.ndim != 1:
        raise ValueError("window must be one-dimensional")
    length = win.shape[0]
    if seg.shape[-1] != length:
        raise ValueError(f"segment length {seg.shape[-1]} != window length {length}")
    if not _is_pow2(length):
        raise ValueError(f"segment length must be a power of two >= 2, got {length}")
    p = window_power(win)
    if p == 0.0:
        raise ValueError("window power is zero")
    spec = fft_real(seg * win)
    two_sided = (spec.real**2 + spec.imag**2) / (length * p)
    one_sided = two_sided[..., : length // 2 + 1].copy()
    one_sided[..., 1:-1] *= 2.0
    return one_sided


def welch_psd(signal: np.ndarray, cfg: WelchConfig, sample_rate_hz: float = 50.0) -> PsdEstimate:
    """Welch overlapped-segment-averaged PSD estimate.

    Segments start at 0, step, 2*step, ... with step = segment_len - overlap;
    a trailing partial segment is discarded. The result is the mean of the
    one-sided windowed periodograms of the segments.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if cfg.segment_len > n:
        raise ValueError(f"segment_len {cfg.segment_len} exceeds signal length {n}")
    win = make_window(cfg.window_kind, cfg.segment_len)
    segments = sliding_window_view(x, cfg.segment_len, axis=-1)[..., :: cfg.step, :]
    values = windowed_periodogram(segments, win).mean(axis=-2)
    return PsdEstimate(
        values=values,
        bin_width_hz=sample_rate_hz / cfg.segment_len,
        segment_len=cfg.segment_len,
        segment_count=segments.shape[-2],
    )
