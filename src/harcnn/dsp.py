"""Spectral primitives: radix-2 real FFT, window functions, and Welch PSD.

All functions operate on the last axis; leading axes are treated as a
batch, mirroring the numpy.fft convention. Math is done in float64 /
complex128 regardless of input dtype.

A real signal of length N is transformed as N/2 complex values by one
half-length complex FFT, and a split step gives its one-sided spectrum
(rfft). Both feature channels use this path; fft_real, the full spectrum,
is rfft's bins plus their conjugate mirror, so its bins 0 .. N/2 are
bit-identical to rfft's and welch_psd's single-segment periodogram is
bit-identical to one computed from fft_real.

The complex FFT works transform-axis-first: the batch is flattened to m
signals and held as an (n, m) array, so every butterfly of every stage is
one contiguous run of m values and a stage is three whole-array ufunc
calls into preallocated buffers. Every output element sees the same
operations in the same order as the textbook last-axis formulation, so
the complex transform is bit-identical to it; the split step then works
in the same layout, and only the result is a transposed view in the
caller's layout. Callers keep batches to a few MB (harcnn.features
passes blocks of BLOCK_WINDOWS * 9 signals) so these buffers stay
cache-resident.

rfft and welch_psd take their large arrays from a Workspace. A caller
that transforms block after block on one thread passes the same one to
every call, so each block is written with out= into the memory the last
one used, in the same operations and order; without one, a call makes
its own and every buffer belongs to that call. The cached plans and
windows are only read, so calls may run on several threads at once, each
with its own workspace, as harcnn.features runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WINDOW_KINDS = ("rectangular", "hamming")


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class WelchConfig:
    """Segmentation and windowing choices for the Welch PSD estimate.

    segment_len must be a power of two >= 2, a length the FFT takes;
    overlap is in samples, less than segment_len. welch_psd relies on
    these checks and repeats none of them.
    """

    segment_len: int = 64
    overlap: int = 32
    window_kind: str = "hamming"

    def __post_init__(self) -> None:
        if not _is_pow2(self.segment_len):
            raise ValueError(f"segment_len must be a power of two >= 2, got {self.segment_len}")
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


class Workspace:
    """Named scratch arrays that rfft and welch_psd calls reuse, for one thread.

    A name keeps one flat buffer, grown to the largest size asked of it,
    and each request is a C-ordered view of its start. An array that a call
    returns may be such a view: it holds until the next call given the same
    workspace.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized array of `shape` and `dtype` at the start of buffer `name`."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


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


def _fft(x: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT over the last axis.

    The leading axes are flattened to m signals held as an (n, m)
    transform-axis-first layout. Stage 1's twiddle is 1, so its sums and
    differences are taken straight from the two halves of the bit-reversal
    gather. Each later stage views the current buffer as (n/size, size, m),
    scales the odd halves by the twiddles (broadcast as (half, 1)) in
    place, skipping the first, which is 1, and writes even + odd and
    even - odd into the other of two ping-pong buffers. The returned array
    is a transposed view of one of them with the input's shape.
    """
    shape = x.shape
    n = shape[-1]
    if n == 1:
        return x.astype(np.complex128)
    if work is None:
        work = Workspace()
    rev, twiddles = _fft_plan(n)
    signals = x.reshape(-1, n)
    m = signals.shape[0]
    src = work.array("fft.src", (n, m), np.complex128)
    dst = work.array("fft.dst", (n, m), np.complex128)
    # The bit reversal is its own inverse, so scattering signal sample j to row
    # rev[j] gathers sample rev[i] to row i, with no temporary for the gather.
    dst[rev] = signals.T
    pairs = src.reshape(n // 2, 2, m)
    np.add(dst[0::2], dst[1::2], out=pairs[:, 0])
    np.subtract(dst[0::2], dst[1::2], out=pairs[:, 1])
    half = 2
    for tw in twiddles[1:]:
        size = 2 * half
        blocks = src.reshape(n // size, size, m)
        out = dst.reshape(n // size, size, m)
        even = blocks[:, :half]
        odd = blocks[:, half:]
        np.multiply(odd[:, 1:], tw[1:, None], out=odd[:, 1:])
        np.add(even, odd, out=out[:, :half])
        np.subtract(even, odd, out=out[:, half:])
        src, dst = dst, src
        half = size
    return src.T.reshape(shape)


@lru_cache(maxsize=32)
def _split_twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the real-input split step of size n, for bins 1 .. n/2 - 1, as columns.

    With Z the n/2-point FFT of x[2j] + i*x[2j+1], bin k of the real
    signal's spectrum is Z[k] * a[k] + conj(Z[n/2 - k]) * b[k], where
    a = (1 - i*w) / 2, b = (1 + i*w) / 2 and w = exp(-2i*pi*k/n).
    """
    w = np.exp(-2j * np.pi * np.arange(1, n // 2) / n)
    return (0.5 * (1 - 1j * w))[:, None], (0.5 * (1 + 1j * w))[:, None]


def rfft(signal: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """One-sided unnormalized DFT of a real signal whose length N is a power of two.

    Returns bins 0 .. N/2 (negative exponent convention, no 1/N factor).
    The N samples are viewed as N/2 complex values x[2j] + i*x[2j+1], one
    half-length FFT transforms them, and a split step separates the even
    and odd samples' spectra (Sorensen et al. 1987). Bins 0 and N/2 are
    Re Z[0] +- Im Z[0], real by construction. The result is a transposed
    view of the transform-axis-first buffer, one of `work`'s when given.
    """
    x = np.asarray(signal, dtype=np.float64)
    shape = x.shape
    n = shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"signal length must be a power of two >= 2, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    if work is None:
        work = Workspace()
    half = n // 2
    # _fft of the (m, half) packed rows is a transposed view of its (half, m) buffer.
    z = _fft(np.ascontiguousarray(x.reshape(-1, n)).view(np.complex128), work).T
    a, b = _split_twiddles(n)
    out = work.array("rfft.out", (half + 1, z.shape[1]), np.complex128)
    out[0] = z[0].real + z[0].imag
    out[half] = z[0].real - z[0].imag
    # Bins 1 .. half - 1 are conj(Z[half - k]) * b + Z[k] * a: the mirror is
    # written first, then Z, which is this call's buffer, is scaled in place.
    inner = out[1:half]
    np.conjugate(z[:0:-1], out=inner)
    inner *= b
    scaled = z[1:]
    scaled *= a
    inner += scaled
    return out.T.reshape(shape[:-1] + (half + 1,))


def fft_real(signal: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a real signal whose length is a power of two.

    Returns the full complex spectrum (same length as the input, negative
    exponent convention, no 1/N factor): rfft's bins 0 .. N/2, then the
    conjugates of bins N/2 - 1 .. 1.
    """
    onesided = rfft(signal)
    half = onesided.shape[-1] - 1
    spec = np.empty(onesided.shape[:-1] + (2 * half,), dtype=np.complex128)
    spec[..., : half + 1] = onesided
    np.conjugate(onesided[..., half - 1 : 0 : -1], out=spec[..., half + 1 :])
    return spec


def make_window(kind: str, length: int) -> np.ndarray:
    """Temporal window of a WelchConfig's kind and segment_len.

    "rectangular" is all ones; "hamming" is the 0.54/0.46 Hamming taper.
    """
    if kind == "rectangular":
        return np.ones(length)
    t = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * t / (length - 1))


@lru_cache(maxsize=32)
def _window(kind: str, length: int) -> tuple[np.ndarray, float]:
    """make_window's window, read-only so that threads share it, and its mean squared value."""
    win = make_window(kind, length)
    win.flags.writeable = False
    return win, float(np.mean(win * win))


def welch_psd(signal: np.ndarray, cfg: WelchConfig, work: Workspace | None = None) -> np.ndarray:
    """Welch overlapped-segment-averaged PSD over the last axis: cfg.n_bins values per signal.

    Segments start at 0, step, 2*step, ... with step = segment_len - overlap;
    a trailing partial segment is discarded. Each segment y of length O
    gives the one-sided windowed periodogram |FFT(u * y)|^2 / (O * P), with
    P the mean squared window value, keeping bins 0 .. O/2 and doubling the
    interior bins so the one-sided total matches the two-sided one. The
    result is the mean of these periodograms over the segments, in one of
    `work`'s buffers when given.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    length = cfg.segment_len
    if length > n:
        raise ValueError(f"segment_len {length} exceeds signal length {n}")
    if work is None:
        work = Workspace()
    win, power = _window(cfg.window_kind, length)
    segments = sliding_window_view(x, length, axis=-1)[..., :: cfg.step, :]
    windowed = work.array("welch.scratch", segments.shape)
    spec = rfft(np.multiply(segments, win, out=windowed), work)
    # The periodograms take rfft's layout, bins outermost, as a ufunc's own
    # result would, so the segment axis that mean reduces stays innermost.
    *lead, bins = spec.shape
    one_sided = np.moveaxis(work.array("welch.power", (bins, *lead)), 0, -1)
    np.square(spec.real, out=one_sided)
    # The windowed segments are spent once rfft returns.
    one_sided += np.square(spec.imag, out=work.array("welch.scratch", spec.shape))
    one_sided /= length * power
    one_sided[..., 1:-1] *= 2.0
    count = one_sided.shape[-2]
    total = work.array("welch.total", (*lead[:-1], bins))
    if count >= 8:  # numpy's mean adds 8 or more values pairwise
        return np.mean(one_sided, axis=-2, out=total)
    # Fewer are added in order, so whole-row adds give mean's bits without
    # its reduction over the axis that rfft's layout leaves innermost.
    np.copyto(total, one_sided[..., 0, :])
    for k in range(1, count):
        total += one_sided[..., k, :]
    total /= count
    return total
