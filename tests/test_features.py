import numpy as np
import pytest

from harcnn.binio import FormatError
from harcnn.features import (
    BLOCK_WINDOWS,
    DEFAULT_WELCH,
    FeatureSet,
    FeatureTensor,
    apply_normalizer,
    extract_features,
    extract_features_batch,
    fit_normalizer,
    fit_normalizer_arrays,
    normalize_set,
    read_feature_cache,
    write_feature_cache,
)


def random_tensor(rng, scale=1.0):
    return FeatureTensor(
        freq=scale * rng.standard_normal((9, 65)),
        power=scale * np.abs(rng.standard_normal((9, 33))),
    )


class TestExtractFeatures:
    def test_zero_window_gives_zero_features(self):
        out = extract_features(np.zeros((9, 128)))
        assert out.freq.shape == (9, 65)
        assert out.power.shape == (9, 33)
        assert np.all(out.freq == 0.0)
        assert np.all(out.power == 0.0)

    def test_single_stream_sinusoid(self):
        window = np.zeros((9, 128))
        t = np.arange(128)
        window[0] = np.sin(2 * np.pi * 3 * t / 128)
        out = extract_features(window)
        assert abs(out.freq[0, 3] - 64.0) < 1e-9
        mask = np.ones_like(out.freq, dtype=bool)
        mask[0, 3] = False
        assert np.all(out.freq[mask] <= 1e-9)

    def test_shapes_and_nonnegative_power(self):
        rng = np.random.default_rng(8)
        out = extract_features(rng.standard_normal((9, 128)))
        assert out.freq.shape == (9, 65)
        assert out.power.shape == (9, 33)
        assert np.all(out.power >= 0.0)
        assert np.all(np.isfinite(out.freq))

    def test_batch_matches_per_window(self):
        rng = np.random.default_rng(21)
        windows = rng.standard_normal((4, 9, 128))
        freq, power = extract_features_batch(windows)
        for i in range(4):
            single = extract_features(windows[i])
            assert np.array_equal(freq[i], single.freq)
            assert np.array_equal(power[i], single.power)

    def test_batch_across_block_boundaries_matches_per_window(self):
        n = 2 * BLOCK_WINDOWS + 5
        windows = np.random.default_rng(22).standard_normal((n, 9, 128))
        freq, power = extract_features_batch(windows)
        assert freq.shape == (n, 9, 65)
        assert power.shape == (n, 9, 33)
        for i in range(n):
            single = extract_features(windows[i])
            assert np.array_equal(freq[i], single.freq)
            assert np.array_equal(power[i], single.power)

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
        with pytest.raises(ValueError, match="window shape"):
            extract_features(np.zeros((9, 64)))
        with pytest.raises(ValueError, match="windows shape"):
            extract_features_batch(np.zeros((2, 3, 128)))


class TestFitNormalizer:
    def test_identical_tensors_give_zero_std(self):
        rng = np.random.default_rng(2)
        t = random_tensor(rng)
        stats = fit_normalizer([t, t])
        assert np.all(stats.freq_std == 0.0)
        assert np.all(stats.power_std == 0.0)
        assert np.allclose(stats.freq_mean, t.freq, atol=1e-6)

    def test_two_point_mean_and_std(self):
        zero = FeatureTensor(freq=np.zeros((9, 65)), power=np.zeros((9, 33)))
        two = FeatureTensor(freq=np.full((9, 65), 2.0), power=np.full((9, 33), 2.0))
        stats = fit_normalizer([zero, two])
        assert np.all(stats.freq_mean == 1.0)
        assert np.all(stats.freq_std == 1.0)
        assert np.all(stats.power_mean == 1.0)
        assert np.all(stats.power_std == 1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer([])

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
        tensors = [random_tensor(rng) for _ in range(10)]
        stats = fit_normalizer(tensors)
        mean_tensor = FeatureTensor(
            freq=stats.freq_mean.astype(np.float64), power=stats.power_mean.astype(np.float64)
        )
        out = apply_normalizer(mean_tensor, stats)
        assert np.allclose(out.freq, 0.0, atol=1e-12)
        assert np.allclose(out.power, 0.0, atol=1e-12)

    def test_zero_std_position_stays_finite_zero(self):
        t = FeatureTensor(freq=np.ones((9, 65)), power=np.ones((9, 33)))
        stats = fit_normalizer([t, t])
        out = apply_normalizer(t, stats)
        assert np.all(out.freq == 0.0)
        assert np.all(np.isfinite(out.freq))

    def test_round_trip_recovers_input(self):
        rng = np.random.default_rng(13)
        tensors = [random_tensor(rng, scale=10.0) for _ in range(8)]
        stats = fit_normalizer(tensors)
        t = tensors[3]
        out = apply_normalizer(t, stats)
        freq_back = out.freq * (stats.freq_std.astype(np.float64) + stats.epsilon) + stats.freq_mean
        assert np.max(np.abs(freq_back - t.freq)) <= 1e-9 * max(1.0, np.max(np.abs(t.freq)))

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
        stats = fit_normalizer([random_tensor(rng)])
        bad = FeatureTensor(freq=np.zeros((9, 33)), power=np.zeros((9, 65)))
        with pytest.raises(ValueError, match="do not match"):
            apply_normalizer(bad, stats)


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
