import os
import threading

import numpy as np
import pytest

from harcnn import features
from harcnn.binio import FormatError
from harcnn.dataset import SAMPLE_RATE_HZ
from harcnn.dsp import fft_real, magnitude_onesided, welch_psd
from harcnn.features import (
    BLOCK_WINDOWS,
    DEFAULT_WELCH,
    FeatureSet,
    extract_features_batch,
    fit_normalizer_arrays,
    normalize_set,
    read_feature_cache,
    write_feature_cache,
)


def random_pair(rng, scale=1.0):
    """(freq, power) matrices of one window."""
    return scale * rng.standard_normal((9, 65)), scale * np.abs(rng.standard_normal((9, 33)))


def stacked(pairs):
    """(n, 9, 65) freq and (n, 9, 33) power stacks of (freq, power) pairs."""
    return np.stack([f for f, _ in pairs]), np.stack([p for _, p in pairs])


def one_window_set(freq, power):
    return FeatureSet(freq=freq[None], power=power[None], labels=np.ones(1, dtype=np.int64))


class TestExtractFeatures:
    def test_zero_window_gives_zero_features(self):
        freq, power = extract_features_batch(np.zeros((1, 9, 128)))
        assert freq.shape == (1, 9, 65)
        assert power.shape == (1, 9, 33)
        assert np.all(freq == 0.0)
        assert np.all(power == 0.0)

    def test_single_stream_sinusoid(self):
        window = np.zeros((9, 128))
        t = np.arange(128)
        window[0] = np.sin(2 * np.pi * 3 * t / 128)
        freq = extract_features_batch(window[None])[0][0]
        assert abs(freq[0, 3] - 64.0) < 1e-9
        mask = np.ones_like(freq, dtype=bool)
        mask[0, 3] = False
        assert np.all(freq[mask] <= 1e-9)

    def test_shapes_and_nonnegative_power(self):
        rng = np.random.default_rng(8)
        freq, power = extract_features_batch(rng.standard_normal((1, 9, 128)))
        assert freq.shape == (1, 9, 65)
        assert power.shape == (1, 9, 33)
        assert np.all(power >= 0.0)
        assert np.all(np.isfinite(freq))

    def test_batch_matches_per_window(self):
        rng = np.random.default_rng(21)
        windows = rng.standard_normal((4, 9, 128))
        freq, power = extract_features_batch(windows)
        for i in range(4):
            assert np.array_equal(freq[i], magnitude_onesided(fft_real(windows[i])))
            psd = welch_psd(windows[i], DEFAULT_WELCH, SAMPLE_RATE_HZ)
            assert np.array_equal(power[i], psd.values)

    def test_batch_across_block_boundaries_matches_per_window(self):
        n = 2 * BLOCK_WINDOWS + 5
        windows = np.random.default_rng(22).standard_normal((n, 9, 128))
        freq, power = extract_features_batch(windows)
        assert freq.shape == (n, 9, 65)
        assert power.shape == (n, 9, 33)
        for i in range(n):
            assert np.array_equal(freq[i], magnitude_onesided(fft_real(windows[i])))
            psd = welch_psd(windows[i], DEFAULT_WELCH, SAMPLE_RATE_HZ)
            assert np.array_equal(power[i], psd.values)

    def test_one_cpu_starts_no_thread_and_gives_the_same_bytes(self, monkeypatch, four_cpus):
        windows = np.random.default_rng(23).standard_normal((3 * BLOCK_WINDOWS + 1, 9, 128))
        threaded = extract_features_batch(windows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        seen = []

        def fft(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return fft_real(*args)

        monkeypatch.setattr(features, "fft_real", fft)
        serial = extract_features_batch(windows)
        assert seen == [(threading.current_thread(), before)] * 4
        assert np.array_equal(serial[0], threaded[0]) and np.array_equal(serial[1], threaded[1])

    def test_empty_batch_gives_empty_stacks(self):
        freq, power = extract_features_batch(np.zeros((0, 9, 128)))
        assert freq.shape == (0, 9, 65)
        assert power.shape == (0, 9, 33)

    def test_window_permutation_permutes_outputs(self):
        rng = np.random.default_rng(4)
        windows = rng.standard_normal((3, 9, 128))
        freq, power = extract_features_batch(windows)
        freq_r, power_r = extract_features_batch(windows[::-1])
        assert np.array_equal(freq_r, freq[::-1])
        assert np.array_equal(power_r, power[::-1])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="windows shape"):
            extract_features_batch(np.zeros((1, 9, 64)))
        with pytest.raises(ValueError, match="windows shape"):
            extract_features_batch(np.zeros((2, 3, 128)))


class TestFitNormalizer:
    def test_identical_tensors_give_zero_std(self):
        rng = np.random.default_rng(2)
        t = random_pair(rng)
        stats = fit_normalizer_arrays(*stacked([t, t]))
        assert np.all(stats.freq_std == 0.0)
        assert np.all(stats.power_std == 0.0)
        assert np.allclose(stats.freq_mean, t[0], atol=1e-6)

    def test_two_point_mean_and_std(self):
        zero = (np.zeros((9, 65)), np.zeros((9, 33)))
        two = (np.full((9, 65), 2.0), np.full((9, 33), 2.0))
        stats = fit_normalizer_arrays(*stacked([zero, two]))
        assert np.all(stats.freq_mean == 1.0)
        assert np.all(stats.freq_std == 1.0)
        assert np.all(stats.power_mean == 1.0)
        assert np.all(stats.power_std == 1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer_arrays(np.zeros((0, 9, 65)), np.zeros((0, 9, 33)))

    def test_matches_streaming_mean_oracle(self):
        rng = np.random.default_rng(77)
        freq = rng.standard_normal((50, 9, 65)) * 3.0 + 1.5
        power = np.abs(rng.standard_normal((50, 9, 33)))
        stats = fit_normalizer_arrays(freq, power)
        # Welford online mean/variance, independent of the numpy reduction.
        mean = np.zeros((9, 65))
        m2 = np.zeros((9, 65))
        for i in range(50):
            delta = freq[i] - mean
            mean += delta / (i + 1)
            m2 += delta * (freq[i] - mean)
        assert np.allclose(stats.freq_mean, mean, atol=1e-5)
        assert np.allclose(stats.freq_std, np.sqrt(m2 / 50), atol=1e-5)


class TestApplyNormalizer:
    def test_mean_input_maps_to_zero(self):
        rng = np.random.default_rng(3)
        tensors = [random_pair(rng) for _ in range(10)]
        stats = fit_normalizer_arrays(*stacked(tensors))
        mean_set = one_window_set(
            stats.freq_mean.astype(np.float64), stats.power_mean.astype(np.float64)
        )
        out = normalize_set(mean_set, stats)
        assert np.allclose(out.freq, 0.0, atol=1e-12)
        assert np.allclose(out.power, 0.0, atol=1e-12)

    def test_zero_std_position_stays_finite_zero(self):
        t = (np.ones((9, 65)), np.ones((9, 33)))
        stats = fit_normalizer_arrays(*stacked([t, t]))
        out = normalize_set(one_window_set(*t), stats)
        assert np.all(out.freq == 0.0)
        assert np.all(np.isfinite(out.freq))

    def test_round_trip_recovers_input(self):
        rng = np.random.default_rng(13)
        tensors = [random_pair(rng, scale=10.0) for _ in range(8)]
        stats = fit_normalizer_arrays(*stacked(tensors))
        t_freq = tensors[3][0]
        out = normalize_set(one_window_set(*tensors[3]), stats)
        scale = stats.freq_std.astype(np.float64) + stats.epsilon
        freq_back = out.freq[0] * scale + stats.freq_mean
        assert np.max(np.abs(freq_back - t_freq)) <= 1e-9 * max(1.0, np.max(np.abs(t_freq)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_formula_and_leaves_input_alone(self, dtype):
        rng = np.random.default_rng(56)
        freq = (rng.standard_normal((30, 9, 65)) * 3.0).astype(dtype)
        power = np.abs(rng.standard_normal((30, 9, 33))).astype(dtype)
        stats = fit_normalizer_arrays(freq, power)
        kept = freq.copy(), power.copy()
        out = normalize_set(FeatureSet(freq, power, np.ones(30, dtype=np.int64)), stats)
        for x, mean, std, got in (
            (freq, stats.freq_mean, stats.freq_std, out.freq),
            (power, stats.power_mean, stats.power_std, out.power),
        ):
            f64 = np.float64
            ref = (x.astype(f64) - mean.astype(f64)) / (std.astype(f64) + stats.epsilon)
            assert got.dtype == f64 and np.array_equal(got, ref)
        assert np.array_equal(freq, kept[0]) and np.array_equal(power, kept[1])

    def test_normalized_training_set_is_standardized(self):
        rng = np.random.default_rng(55)
        freq = rng.standard_normal((200, 9, 65)) * 5.0 - 2.0
        power = np.abs(rng.standard_normal((200, 9, 33))) * 2.0
        stats = fit_normalizer_arrays(freq, power)
        norm = normalize_set(
            FeatureSet(freq=freq, power=power, labels=np.ones(200, dtype=np.int64)), stats
        )
        live = stats.freq_std.astype(np.float64) > stats.epsilon
        assert np.max(np.abs(norm.freq.mean(axis=0))) <= 1e-6
        assert np.max(np.abs(norm.freq.std(axis=0)[live] - 1.0)) <= 1e-3
        assert np.max(np.abs(norm.power.std(axis=0) - 1.0)) <= 1e-3

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        stats = fit_normalizer_arrays(*stacked([random_pair(rng)]))
        bad = one_window_set(np.zeros((9, 33)), np.zeros((9, 65)))
        with pytest.raises(ValueError, match="do not match"):
            normalize_set(bad, stats)


class TestFeatureCache:
    def _feature_set(self, n=12, seed=5):
        rng = np.random.default_rng(seed)
        return FeatureSet(
            freq=rng.standard_normal((n, 9, 65)).astype(np.float32),
            power=np.abs(rng.standard_normal((n, 9, 33))).astype(np.float32),
            labels=rng.integers(1, 7, size=n).astype(np.int64),
        )

    def test_round_trip_values(self, tmp_path):
        fs = self._feature_set()
        path = tmp_path / "train.harfeat"
        write_feature_cache(path, fs)
        back = read_feature_cache(path)
        assert np.array_equal(back.freq, fs.freq)
        assert np.array_equal(back.power, fs.power)
        assert np.array_equal(back.labels, fs.labels)

    def test_round_trip_is_byte_exact(self, tmp_path):
        fs = self._feature_set(seed=9)
        first = tmp_path / "a.harfeat"
        second = tmp_path / "b.harfeat"
        write_feature_cache(first, fs)
        write_feature_cache(second, read_feature_cache(first))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.harfeat"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="bad feature cache magic"):
            read_feature_cache(path)

    def test_truncated_cache_rejected(self, tmp_path):
        fs = self._feature_set(n=3)
        path = tmp_path / "trunc.harfeat"
        write_feature_cache(path, fs)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="cache size"):
            read_feature_cache(path)

    def test_default_welch_shapes(self):
        assert DEFAULT_WELCH.segment_len == 64
        assert DEFAULT_WELCH.overlap == 32
        assert DEFAULT_WELCH.n_bins == 33
