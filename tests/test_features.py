import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import write_uci_split
from harcnn import features, parallel
from harcnn.binio import FormatError
from harcnn.dataset import N_STREAMS, load_split
from harcnn.dsp import WelchConfig, rfft, welch_psd
from harcnn.features import (
    BLOCK_WINDOWS,
    EPSILON,
    FeatureSet,
    NormStats,
    extract_features,
    extract_features_batch,
    extract_split,
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


def one_window(freq, power):
    """(1, 9, F) and (1, 9, P) stacks of one window's matrices."""
    return freq[None], power[None]


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
            assert np.array_equal(freq[i], np.abs(rfft(windows[i])))
            assert np.array_equal(power[i], welch_psd(windows[i], WelchConfig()))

    def test_batch_across_block_boundaries_matches_per_window(self):
        n = 2 * BLOCK_WINDOWS + 5
        windows = np.random.default_rng(22).standard_normal((n, 9, 128))
        freq, power = extract_features_batch(windows)
        assert freq.shape == (n, 9, 65)
        assert power.shape == (n, 9, 33)
        for i in range(n):
            assert np.array_equal(freq[i], np.abs(rfft(windows[i])))
            assert np.array_equal(power[i], welch_psd(windows[i], WelchConfig()))

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


class TestExtractFeaturesPerStream:
    """The per-stream path against load_split -> extract_split -> fit_normalizer_arrays."""

    # 300 rows span two blocks of BLOCK_WINDOWS * N_STREAMS rows in a stream.
    @pytest.mark.parametrize("n", [1, 37, 300])
    def test_stream_stats_equal_fit_normalizer_arrays(self, tmp_path, n):
        rng = np.random.default_rng(n)
        windows = rng.standard_normal((n, N_STREAMS, 128)) * rng.uniform(0.1, 10, (1, N_STREAMS, 1))
        labels, subjects = np.arange(n) % 6 + 1, np.arange(n) % 30 + 1
        write_uci_split(tmp_path, "train", windows, labels, subjects)
        got_set, got = extract_features(tmp_path, "train", strict_counts=False, fit=True)
        whole = extract_split(load_split(tmp_path, "train", strict_counts=False))
        want = fit_normalizer_arrays(whole.freq, whole.power)
        assert len(got_set) == n
        for name in ("freq_mean", "freq_std", "power_mean", "power_std"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # The float64 moments agree too, not only their float32 roundings.
        mean, std = features._moments(whole.freq)
        for s in range(N_STREAMS):
            stream_mean, stream_std = features._moments(np.ascontiguousarray(whole.freq[:, s]))
            assert stream_mean.tobytes() == mean[s].tobytes()
            assert stream_std.tobytes() == std[s].tobytes()

    def test_without_fit_no_stats_and_no_file(self, tmp_path):
        windows = np.random.default_rng(2).standard_normal((4, N_STREAMS, 128))
        write_uci_split(tmp_path, "test", windows, np.arange(4) + 1, np.arange(4) + 1)
        files = sorted(tmp_path.rglob("*"))
        got, stats = extract_features(tmp_path, "test", strict_counts=False, subset=3)
        assert stats is None
        assert sorted(tmp_path.rglob("*")) == files
        whole = extract_split(load_split(tmp_path, "test", strict_counts=False))
        assert got.freq.dtype == got.power.dtype == np.float32
        assert np.array_equal(got.freq, whole.freq[:3].astype(np.float32))
        assert np.array_equal(got.power, whole.power[:3].astype(np.float32))
        assert np.array_equal(got.labels, [1, 2, 3])

    def test_empty_split_cannot_be_fitted(self, tmp_path):
        write_uci_split(tmp_path, "train", np.zeros((0, N_STREAMS, 128)), [], [])
        assert len(extract_features(tmp_path, "train", strict_counts=False)[0]) == 0
        with pytest.raises(ValueError, match="cannot fit a normalizer on an empty sequence"):
            extract_features(tmp_path, "train", strict_counts=False, fit=True)

    def test_one_cpu_starts_no_thread_and_gives_the_same_bytes(self, tmp_path, monkeypatch,
                                                              four_cpus):
        n = BLOCK_WINDOWS * N_STREAMS + 12  # two blocks in each stream
        windows = np.random.default_rng(23).standard_normal((n, N_STREAMS, 128))
        write_uci_split(tmp_path, "train", windows, np.arange(n) % 6 + 1, np.arange(n) % 30 + 1)
        threaded = extract_features(tmp_path, "train", strict_counts=False, fit=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        seen = []

        def fft(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return rfft(*args)

        monkeypatch.setattr(features, "rfft", fft)
        serial = extract_features(tmp_path, "train", strict_counts=False, fit=True)
        assert seen == [(threading.current_thread(), before)] * 2 * N_STREAMS
        for got, want in zip(serial, threaded):
            for name, value in vars(want).items():
                assert getattr(got, name).tobytes() == value.tobytes(), name


    def test_racing_stream_tasks_make_one_pair_of_stacks(self, tmp_path, monkeypatch):
        # Nine threads on this host's cores, switching every microsecond: a second pair of
        # stacks made by a racing task would lose that task's columns.
        n = 40
        windows = np.random.default_rng(31).standard_normal((n, N_STREAMS, 128))
        write_uci_split(tmp_path, "train", windows, np.arange(n) % 6 + 1, np.arange(n) % 30 + 1)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        want = extract_features(tmp_path, "train", strict_counts=False)[0]
        monkeypatch.setattr(parallel, "cpu_count", lambda: N_STREAMS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                got = extract_features(tmp_path, "train", strict_counts=False)[0]
                assert got.freq.tobytes() == want.freq.tobytes()
                assert got.power.tobytes() == want.power.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("fit", [False, True])
    def test_allocates_almost_nothing_once_the_split_is_read(self, tmp_path, monkeypatch, fit):
        # The stream tasks cast their features into the split's stacks, so no stack is made after.
        n = 600
        windows = np.random.default_rng(29).standard_normal((n, N_STREAMS, 128))
        write_uci_split(tmp_path, "train", windows, np.arange(n) % 6 + 1, np.arange(n) % 30 + 1)
        read_split, held = features.read_split, []

        def reading(*args):
            result = read_split(*args)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return result

        monkeypatch.setattr(features, "read_split", reading)
        tracemalloc.start()
        try:
            got, _ = extract_features(tmp_path, "train", strict_counts=False, fit=fit)
            allocated = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        stack_bytes = got.freq.nbytes + got.power.nbytes
        assert allocated < 0.05 * stack_bytes, (allocated, stack_bytes)


class TestNormStats:
    def test_bins_are_the_array_widths(self):
        assert fit_normalizer_arrays(np.ones((2, 9, 65)), np.ones((2, 9, 17))).bins == (65, 17)

    @pytest.mark.parametrize(
        "shapes, message",
        [
            (((9, 65), (9, 64), (9, 33), (9, 33)), r"freq stats have shapes \(9, 65\)/\(9, 64\)"),
            (((9, 65), (9, 65), (8, 33), (8, 33)), r"power stats have shapes \(8, 33\)/\(8, 33\)"),
            (((9, 65), (9, 65), (33,), (33,)), r"power stats have shapes \(33,\)/\(33,\)"),
        ],
    )
    def test_each_pair_needs_one_stream_by_bins_shape(self, shapes, message):
        with pytest.raises(ValueError, match=message):
            NormStats(*(np.ones(shape, dtype=np.float32) for shape in shapes))

    def test_negative_std_rejected(self):
        power_std = np.ones((9, 33), dtype=np.float32)
        power_std[4, 7] = -1e-30
        ones = np.ones((9, 65), dtype=np.float32)
        with pytest.raises(ValueError, match="power_std holds a negative std"):
            NormStats(ones, ones, np.ones((9, 33), dtype=np.float32), power_std)


class TestApplyNormalizer:
    def test_mean_input_maps_to_zero(self):
        rng = np.random.default_rng(3)
        tensors = [random_pair(rng) for _ in range(10)]
        stats = fit_normalizer_arrays(*stacked(tensors))
        freq, power = normalize_set(
            *one_window(stats.freq_mean.astype(np.float64), stats.power_mean.astype(np.float64)),
            stats,
        )
        assert np.allclose(freq, 0.0, atol=1e-12)
        assert np.allclose(power, 0.0, atol=1e-12)

    def test_zero_std_position_stays_finite_zero(self):
        t = (np.ones((9, 65)), np.ones((9, 33)))
        stats = fit_normalizer_arrays(*stacked([t, t]))
        freq, _ = normalize_set(*one_window(*t), stats)
        assert np.all(freq == 0.0)
        assert np.all(np.isfinite(freq))

    def test_round_trip_recovers_input(self):
        rng = np.random.default_rng(13)
        tensors = [random_pair(rng, scale=10.0) for _ in range(8)]
        stats = fit_normalizer_arrays(*stacked(tensors))
        t_freq = tensors[3][0]
        freq, _ = normalize_set(*one_window(*tensors[3]), stats)
        scale = stats.freq_std.astype(np.float64) + EPSILON
        freq_back = freq[0] * scale + stats.freq_mean
        assert np.max(np.abs(freq_back - t_freq)) <= 1e-9 * max(1.0, np.max(np.abs(t_freq)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_formula_and_leaves_input_alone(self, dtype):
        rng = np.random.default_rng(56)
        freq = (rng.standard_normal((30, 9, 65)) * 3.0).astype(dtype)
        power = np.abs(rng.standard_normal((30, 9, 33))).astype(dtype)
        stats = fit_normalizer_arrays(freq, power)
        kept = freq.copy(), power.copy()
        out = normalize_set(freq, power, stats)
        for x, mean, std, got in (
            (freq, stats.freq_mean, stats.freq_std, out[0]),
            (power, stats.power_mean, stats.power_std, out[1]),
        ):
            f64 = np.float64
            ref = (x.astype(f64) - mean.astype(f64)) / (std.astype(f64) + EPSILON)
            assert got.dtype == f64 and np.array_equal(got, ref)
        assert np.array_equal(freq, kept[0]) and np.array_equal(power, kept[1])

    def test_normalized_training_set_is_standardized(self):
        rng = np.random.default_rng(55)
        freq = rng.standard_normal((200, 9, 65)) * 5.0 - 2.0
        power = np.abs(rng.standard_normal((200, 9, 33))) * 2.0
        stats = fit_normalizer_arrays(freq, power)
        norm_freq, norm_power = normalize_set(freq, power, stats)
        live = stats.freq_std.astype(np.float64) > EPSILON
        assert np.max(np.abs(norm_freq.mean(axis=0))) <= 1e-6
        assert np.max(np.abs(norm_freq.std(axis=0)[live] - 1.0)) <= 1e-3
        assert np.max(np.abs(norm_power.std(axis=0) - 1.0)) <= 1e-3

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        stats = fit_normalizer_arrays(*stacked([random_pair(rng)]))
        with pytest.raises(ValueError, match="do not match"):
            normalize_set(*one_window(np.zeros((9, 33)), np.zeros((9, 65))), stats)


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

    def test_read_holds_the_file_once_and_its_stacks_are_read_only(self, tmp_path):
        path = tmp_path / "train.harfeat"
        write_feature_cache(path, self._feature_set(n=2000))
        tracemalloc.start()
        try:
            back = read_feature_cache(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size
        for stack in (back.freq, back.power):
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0

    def test_write_holds_one_chunk_of_records(self, tmp_path):
        path = tmp_path / "train.harfeat"
        fs = self._feature_set(n=3000)
        tracemalloc.start()
        try:
            write_feature_cache(path, fs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 20 + 3000 * (1 + 4 * 9 * (65 + 33))  # 10.6 MB
        assert peak < 2**20, peak
        assert np.array_equal(read_feature_cache(path).power, fs.power)

    @pytest.mark.parametrize("n", [0, 1, features.CACHE_CHUNK_WINDOWS,
                                   2 * features.CACHE_CHUNK_WINDOWS + 1])
    def test_chunk_boundaries_keep_every_record(self, tmp_path, n):
        fs = self._feature_set(n=n)
        write_feature_cache(tmp_path / "a.harfeat", fs)
        back = read_feature_cache(tmp_path / "a.harfeat")
        for name in ("freq", "power", "labels"):
            assert np.array_equal(getattr(back, name), getattr(fs, name)), name

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
        welch = WelchConfig()
        assert welch.segment_len == 64
        assert welch.overlap == 32
        assert welch.n_bins == 33
