import numpy as np
import pytest

from harcnn import dsp
from harcnn.dsp import (
    WelchConfig, Workspace, _fft, _fft_plan, fft_real, make_window, rfft, welch_psd,
)

POW2_SIZES = [8, 16, 32, 64, 128, 256, 512, 1024]


def naive_dft(x):
    """O(N^2) reference DFT over the last axis: X[k] = sum_n x[n] * exp(-2i*pi*k*n/N)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    k = np.arange(n)
    return x @ np.exp(-2j * np.pi * np.outer(k, k) / n)


def concat_butterfly_fft(x):
    """Last-axis radix-2 FFT with a concatenate per stage: the bit-exact reference.

    _fft runs the same operations per element in another memory layout,
    so the two must agree bit for bit, not just within a tolerance.
    """
    n = x.shape[-1]
    rev, twiddles = _fft_plan(n)
    out = np.asarray(x, dtype=np.complex128)[..., rev]
    half = 1
    for tw in twiddles:
        size = 2 * half
        blocks = out.reshape(out.shape[:-1] + (n // size, size))
        even = blocks[..., :half]
        odd = blocks[..., half:] * tw
        out = np.concatenate((even + odd, even - odd), axis=-1).reshape(out.shape[:-1] + (n,))
        half = size
    return out


def rel_err(got, want):
    scale = np.max(np.abs(want))
    if scale == 0.0:
        return np.max(np.abs(got))
    return np.max(np.abs(got - want)) / scale


class TestFftReal:
    def test_constant_signal_is_dc_only(self):
        c = 2.75
        bins = fft_real(np.full(8, c))
        assert abs(bins[0] - 8 * c) < 1e-12
        assert np.all(np.abs(bins[1:]) < 1e-12)

    def test_impulse_has_flat_spectrum(self):
        x = np.zeros(8)
        x[0] = 1.0
        assert np.allclose(fft_real(x), np.ones(8), atol=1e-12)

    def test_matches_naive_dft_on_256_random_signals(self):
        rng = np.random.default_rng(20240511)
        worst = 0.0
        for i in range(256):
            n = POW2_SIZES[i % len(POW2_SIZES)]
            x = rng.standard_normal(n)
            worst = max(worst, rel_err(fft_real(x), naive_dft(x)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("n", POW2_SIZES)
    def test_conjugate_symmetry(self, n):
        rng = np.random.default_rng(n)
        bins = fft_real(rng.standard_normal(n))
        for k in range(1, n):
            assert abs(bins[k] - np.conj(bins[n - k])) < 1e-9 * n

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(128), rng.standard_normal(128)
        a, b = -1.7, 0.45
        combined = fft_real(a * x + b * y)
        separate = a * fft_real(x) + b * fft_real(y)
        assert rel_err(combined, separate) <= 1e-9

    def test_parseval_energy_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            x = rng.standard_normal(256)
            spectrum_energy = np.sum(np.abs(fft_real(x)) ** 2) / x.size
            assert abs(spectrum_energy - np.sum(x * x)) <= 1e-9 * np.sum(x * x)

    def test_batched_input_matches_per_signal(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 64))
        got = fft_real(batch)
        for row in range(5):
            assert np.array_equal(got[row], fft_real(batch[row]))

    @pytest.mark.parametrize("n", [1, 3, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power of two"):
            fft_real(np.zeros(n) if n else np.zeros(1))

    def test_rejects_non_finite(self):
        x = np.zeros(8)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fft_real(x)


def complex_normal(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFft:
    """The complex transform under rfft, against the textbook butterflies."""

    # Sizes 1 and 2 have no stage past the first, which comes from the bit-reversal gather.
    @pytest.mark.parametrize("n", [1, 2, 4, *POW2_SIZES])
    def test_batch_bit_identical_to_concat_reference(self, n):
        x = complex_normal(n + 1, (3, 5, n))
        got = _fft(x)
        assert got.shape == x.shape
        assert np.array_equal(got, concat_butterfly_fft(x))

    def test_strided_view_bit_identical_to_concat_reference(self):
        x = complex_normal(12, (6, 4, 256))[::2, :, ::2]
        assert not x.flags.c_contiguous
        assert np.array_equal(_fft(x), concat_butterfly_fft(x))

    def test_single_signal_bit_identical_to_concat_reference(self):
        x = complex_normal(13, 128)
        assert np.array_equal(_fft(x), concat_butterfly_fft(x))


class TestRfft:
    @pytest.mark.parametrize("n", [2, 4, *POW2_SIZES])
    def test_batch_matches_naive_dft_onesided(self, n):
        x = np.random.default_rng(n + 2).standard_normal((3, 4, n))
        got = rfft(x)
        assert got.shape == (3, 4, n // 2 + 1)
        assert rel_err(got, naive_dft(x)[..., : n // 2 + 1]) <= 1e-9

    @pytest.mark.parametrize("n", [2, 4, 256])
    def test_strided_view_matches_naive_dft_onesided(self, n):
        x = np.random.default_rng(n + 3).standard_normal((6, 4, 2 * n))[::2, :, ::2]
        assert not x.flags.c_contiguous
        assert rel_err(rfft(x), naive_dft(x)[..., : n // 2 + 1]) <= 1e-9

    def test_half_lengths_one_and_two_exactly(self):
        assert np.array_equal(rfft(np.array([3.0, -1.0])), [2.0, 4.0])
        assert np.array_equal(rfft(np.array([1.0, 2.0, 3.0, 4.0])), [10.0, -2.0 + 2.0j, -2.0])

    @pytest.mark.parametrize("n", [2, 4, 64])
    def test_fft_real_is_rfft_and_its_conjugate_mirror(self, n):
        x = np.random.default_rng(n + 4).standard_normal((5, n))
        onesided, full = rfft(x), fft_real(x)
        assert np.array_equal(full[:, : n // 2 + 1], onesided)
        assert np.array_equal(full[:, n // 2 + 1 :], np.conj(onesided[:, n // 2 - 1 : 0 : -1]))

    @pytest.mark.parametrize(
        "bad, message",
        [(np.zeros(12), "power of two"), (np.array([0.0, np.nan, 0.0, 0.0]), "non-finite")],
    )
    def test_rejects_what_fft_real_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            rfft(bad)


class TestMagnitudeOnesided:
    def test_exact_bin_sinusoid(self):
        t = np.arange(128)
        mag = np.abs(rfft(np.sin(2 * np.pi * 3 * t / 128)))
        assert mag.shape == (65,)
        assert abs(mag[3] - 64.0) < 1e-9
        others = np.delete(mag, 3)
        assert np.all(others <= 1e-9)

    def test_constant_signal(self):
        c = -0.5
        mag = np.abs(rfft(np.full(128, c)))
        assert abs(mag[0] - 128 * abs(c)) < 1e-9
        assert np.all(mag[1:] <= 1e-9)


class TestMakeWindow:
    def test_hamming_endpoints(self):
        w = make_window("hamming", 64)
        assert abs(w[0] - 0.08) < 1e-12
        assert abs(w[63] - 0.08) < 1e-12

    @pytest.mark.parametrize("length", [2, 33, 64, 127])
    def test_hamming_symmetry(self, length):
        w = make_window("hamming", length)
        assert np.allclose(w, w[::-1], atol=1e-12)

    def test_rectangular_is_ones(self):
        assert np.array_equal(make_window("rectangular", 32), np.ones(32))


def one_segment(length, kind):
    """Welch config whose only segment is the whole signal, so it is one periodogram."""
    return WelchConfig(segment_len=length, overlap=0, window_kind=kind)


def reference_periodogram(x, kind):
    """One-sided windowed periodogram of one segment from the O(N^2) DFT."""
    win = make_window(kind, x.shape[-1])
    plain = np.abs(naive_dft(x * win)) ** 2 / (x.shape[-1] * np.mean(win * win))
    one_sided = plain[: x.shape[-1] // 2 + 1].copy()
    one_sided[1:-1] *= 2.0
    return one_sided


class TestWelchPsd:
    def test_zero_segment_gives_zero(self):
        out = welch_psd(np.zeros(64), one_segment(64, "hamming"))
        assert out.shape == (33,)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("kind", ["rectangular", "hamming"])
    def test_single_segment_matches_dft_periodogram(self, kind):
        x = np.random.default_rng(17).standard_normal(64)
        assert rel_err(welch_psd(x, one_segment(64, kind)), reference_periodogram(x, kind)) <= 1e-9

    def test_exact_bin_sinusoid_peak(self):
        amp, bin_idx, length = 1.8, 5, 64
        t = np.arange(length)
        x = amp * np.sin(2 * np.pi * bin_idx * t / length)
        got = welch_psd(x, one_segment(length, "rectangular"))
        # Brute-force expectation from the reference DFT, same one-sided doubling.
        plain = np.abs(naive_dft(x)) ** 2 / length
        expected_peak = 2.0 * plain[bin_idx]
        assert abs(got[bin_idx] - expected_peak) <= 1e-9 * expected_peak
        assert abs(got[bin_idx] - amp * amp * length / 2.0) <= 1e-6 * got[bin_idx]

    def test_segment_offsets_and_count(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128)
        got = welch_psd(x, WelchConfig(segment_len=64, overlap=32, window_kind="hamming"))
        manual = np.mean(
            [welch_psd(x[off : off + 64], one_segment(64, "hamming")) for off in (0, 32, 64)],
            axis=0,
        )
        assert np.allclose(got, manual, rtol=1e-12)

    # 1, 3, 7, 9, 15 and 127 segments: numpy adds fewer than 8 values in order, more pairwise.
    @pytest.mark.parametrize("length, overlap", [(128, 0), (64, 32), (32, 16), (32, 20),
                                                 (16, 8), (2, 1)])
    def test_average_is_numpys_mean_of_the_periodograms_bit_for_bit(self, length, overlap):
        rng = np.random.default_rng(length + overlap)
        x = rng.standard_normal(128) * 10.0 ** rng.uniform(-3, 3, 128)
        cfg = WelchConfig(segment_len=length, overlap=overlap, window_kind="hamming")
        periodograms = np.stack(
            [welch_psd(x[off : off + length], one_segment(length, "hamming"))
             for off in range(0, 128 - length + 1, cfg.step)],
            axis=-1,
        )
        assert welch_psd(x, cfg).tobytes() == periodograms.mean(axis=-1).tobytes()

    def test_trailing_partial_segment_is_dropped(self):
        x = np.random.default_rng(12).standard_normal(100)
        got = welch_psd(x, WelchConfig(segment_len=32, overlap=0, window_kind="hamming"))
        assert np.array_equal(got, welch_psd(x[:96], WelchConfig(32, 0, "hamming")))

    def test_tiled_signal_average_is_exact(self):
        rng = np.random.default_rng(23)
        seg = rng.standard_normal(64)
        tiled = np.tile(seg, 4)
        got = welch_psd(tiled, WelchConfig(segment_len=64, overlap=0, window_kind="hamming"))
        assert np.array_equal(got, welch_psd(seg, one_segment(64, "hamming")))

    def test_batch_matches_per_signal(self):
        x = np.random.default_rng(24).standard_normal((3, 4, 128))
        got = welch_psd(x, WelchConfig())
        assert got.shape == (3, 4, 33)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(got[i, j], welch_psd(x[i, j], WelchConfig()))

    # 15 segments of 16 samples take numpy's pairwise mean, 3 of 64 the in-order adds.
    @pytest.mark.parametrize("cfg", [WelchConfig(), WelchConfig(16, 8, "rectangular")])
    def test_one_workspace_gives_each_calls_own_bits(self, cfg):
        # Blocks of 288, 12 and 288 rows, as a stream task's, each written at the start of
        # buffers that the block before may have filled further.
        rng = np.random.default_rng(25)
        x = rng.standard_normal((588, 128)) * 10.0 ** rng.uniform(-3, 3, (588, 1))
        work = Workspace()
        for block in (slice(0, 288), slice(288, 300), slice(300, 588)):
            assert np.abs(rfft(x[block], work)).tobytes() == np.abs(rfft(x[block])).tobytes()
            assert welch_psd(x[block], cfg, work).tobytes() == welch_psd(x[block], cfg).tobytes()

    def test_window_is_made_once_and_shared_read_only(self, monkeypatch):
        made = []

        def making(kind, length):
            made.append((kind, length))
            return make_window(kind, length)

        dsp._window.cache_clear()
        monkeypatch.setattr(dsp, "make_window", making)
        x = np.random.default_rng(26).standard_normal((4, 128))
        first = welch_psd(x, WelchConfig())
        assert welch_psd(x, WelchConfig()).tobytes() == first.tobytes()
        assert made == [("hamming", 64)]
        win, power = dsp._window("hamming", 64)
        assert not win.flags.writeable and power == np.mean(win * win)

    def test_white_noise_total_power_matches_variance(self):
        cfg = WelchConfig(segment_len=64, overlap=32, window_kind="hamming")
        totals = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal(4096)
            totals.append(np.sum(welch_psd(x, cfg)) / cfg.segment_len)
        assert abs(np.mean(totals) - 1.0) < 0.10

    def test_values_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.choice([64, 128, 256]))
            x = rng.standard_normal(n) * rng.uniform(0.01, 100.0)
            overlap = int(rng.integers(0, 64))
            kind = "hamming" if rng.integers(2) else "rectangular"
            got = welch_psd(x, WelchConfig(64, overlap, kind))
            assert np.all(got >= 0.0)
            assert np.all(np.isfinite(got))

    def test_rejects_segment_longer_than_signal(self):
        with pytest.raises(ValueError, match="exceeds"):
            welch_psd(np.zeros(32), WelchConfig(segment_len=64))

    def test_rejects_non_finite(self):
        x = np.zeros(128)
        x[70] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            welch_psd(x, WelchConfig())


class TestWelchConfig:
    @pytest.mark.parametrize("length", [-2, 0, 1, 6, 48, 63, 100])
    def test_rejects_segment_not_power_of_two(self, length):
        with pytest.raises(ValueError, match=f"power of two >= 2, got {length}"):
            WelchConfig(segment_len=length, overlap=0)

    @pytest.mark.parametrize("length", [2, 4, 64, 256])
    def test_accepts_power_of_two_segment(self, length):
        assert WelchConfig(segment_len=length, overlap=0).n_bins == length // 2 + 1

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            WelchConfig(segment_len=64, overlap=64)

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError, match="window_kind"):
            WelchConfig(window_kind="kaiser")
