import contextlib
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import extract, open_spills, write_uci_layout_split, write_uci_split
from harcnn import features, parallel
from harcnn.binio import FormatError
from harcnn.dataset import (
    BLOCK_ROWS, BLOCK_WINDOWS, N_STREAMS, WINDOW_LEN, DatasetError, load_split, parse_signal_file,
)
from harcnn.dsp import WelchConfig, rfft, welch_psd
from harcnn.features import (
    EPSILON,
    FeatureCache,
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

    def test_one_workspace_gives_the_batch_bits_whatever_the_block_lengths(self):
        # A short block between two full ones is written at the start of the same buffers,
        # so it must read none of the rows the block before it left there.
        n = 2 * BLOCK_ROWS + 12
        windows = np.random.default_rng(24).standard_normal((n, N_STREAMS, 128))
        freq, power = extract_features_batch(windows)
        transform = features._Transform(WelchConfig())
        for block in (slice(0, BLOCK_ROWS), slice(BLOCK_ROWS, BLOCK_ROWS + 12),
                      slice(BLOCK_ROWS + 12, n)):
            got = features._rows_features(np.ascontiguousarray(windows[block, 3]), transform)
            assert got[0].tobytes() == freq[block, 3].tobytes()
            assert got[1].tobytes() == power[block, 3].tobytes()

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

    def test_moments_of_offset_data_match_an_exactly_summed_two_pass(self):
        # A spread of 1e-3 on an offset of 1e6, over 7 chunks and 5 rows: the merged chunk
        # moments must not carry the offset's rounding into the variance.
        n = 7 * BLOCK_ROWS + 5
        x = 1e6 + 1e-3 * np.random.default_rng(9).standard_normal((n, 40))
        mean, std = features._moments(x)
        for column, got_mean, got_std in zip(x.T, mean, std):
            want_mean = math.fsum(column) / n
            want_std = math.sqrt(math.fsum((column - want_mean) ** 2) / n)
            assert abs(got_mean - want_mean) <= 1e-10 * abs(want_mean)
            assert abs(got_std - want_std) <= 1e-10 * want_std


class TestExtractFeaturesPerStream:
    """The per-stream path against load_split -> extract_split -> fit_normalizer_arrays."""

    # 300 rows span two blocks of BLOCK_ROWS rows in a stream.
    @pytest.mark.parametrize("n", [1, 37, 300])
    def test_stream_stats_equal_fit_normalizer_arrays(self, tmp_path, n):
        rng = np.random.default_rng(n)
        windows = rng.standard_normal((n, N_STREAMS, 128)) * rng.uniform(0.1, 10, (1, N_STREAMS, 1))
        labels, subjects = np.arange(n) % 6 + 1, np.arange(n) % 30 + 1
        write_uci_split(tmp_path, "train", windows, labels, subjects)
        got_set, got = extract(tmp_path, "train", strict_counts=False, fit=True)
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

    def test_a_subset_cut_inside_a_block_gives_the_cut_stacks_stats(self, tmp_path):
        n, subset = 2 * BLOCK_ROWS + 30, BLOCK_ROWS + 100
        windows = np.random.default_rng(6).standard_normal((n, N_STREAMS, 128))
        write_uci_split(tmp_path, "train", windows, np.arange(n) % 6 + 1, np.arange(n) % 30 + 1)
        got_set, got = extract(tmp_path, "train", strict_counts=False, subset=subset, fit=True)
        whole = extract_split(load_split(tmp_path, "train", strict_counts=False))
        want = fit_normalizer_arrays(whole.freq[:subset], whole.power[:subset])
        assert len(got_set) == subset
        for name, value in vars(want).items():
            assert getattr(got, name).tobytes() == value.tobytes(), name

    def test_without_fit_no_stats_and_no_file(self, tmp_path):
        windows = np.random.default_rng(2).standard_normal((4, N_STREAMS, 128))
        write_uci_split(tmp_path, "test", windows, np.arange(4) + 1, np.arange(4) + 1)
        files = sorted(tmp_path.rglob("*"))
        got, stats = extract(tmp_path, "test", strict_counts=False, subset=3)
        assert stats is None
        assert sorted(tmp_path.rglob("*")) == files
        whole = extract_split(load_split(tmp_path, "test", strict_counts=False))
        assert got.freq.dtype == got.power.dtype == np.float32
        assert np.array_equal(got.freq, whole.freq[:3].astype(np.float32))
        assert np.array_equal(got.power, whole.power[:3].astype(np.float32))
        assert np.array_equal(got.labels, [1, 2, 3])

    def test_empty_split_cannot_be_fitted(self, tmp_path):
        write_uci_split(tmp_path, "train", np.zeros((0, N_STREAMS, 128)), [], [])
        assert len(extract(tmp_path, "train", strict_counts=False)[0]) == 0
        with pytest.raises(ValueError, match="cannot fit a normalizer on an empty sequence"):
            extract(tmp_path, "train", strict_counts=False, fit=True)

    def test_one_cpu_starts_no_thread_and_gives_the_same_bytes(self, tmp_path, monkeypatch,
                                                              four_cpus):
        n = BLOCK_ROWS + 12  # two blocks in each stream
        windows = np.random.default_rng(23).standard_normal((n, N_STREAMS, 128))
        write_uci_split(tmp_path, "train", windows, np.arange(n) % 6 + 1, np.arange(n) % 30 + 1)
        threaded = extract(tmp_path, "train", strict_counts=False, fit=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        seen = []

        def fft(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return rfft(*args)

        monkeypatch.setattr(features, "rfft", fft)
        serial = extract(tmp_path, "train", strict_counts=False, fit=True)
        assert seen == [(threading.current_thread(), before)] * 2 * N_STREAMS
        for got, want in zip(serial, threaded):
            for name, value in vars(want).items():
                assert getattr(got, name).tobytes() == value.tobytes(), name


    def test_racing_stream_tasks_give_the_serial_bytes(self, tmp_path, monkeypatch):
        # Nine threads on this host's cores, switching every microsecond, each writing its
        # blocks at their offsets in its own spill.
        n = 40
        windows = np.random.default_rng(31).standard_normal((n, N_STREAMS, 128))
        write_uci_split(tmp_path, "train", windows, np.arange(n) % 6 + 1, np.arange(n) % 30 + 1)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        want = extract(tmp_path, "train", strict_counts=False)[0]
        monkeypatch.setattr(parallel, "cpu_count", lambda: N_STREAMS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                got = extract(tmp_path, "train", strict_counts=False)[0]
                assert got.freq.tobytes() == want.freq.tobytes()
                assert got.power.tobytes() == want.power.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("fit", [False, True])
    def test_allocates_almost_nothing_once_the_split_is_read(self, tmp_path, monkeypatch, fit):
        # The stream tasks write their features to the spills, so no stack is made after, and
        # the cache is written from one chunk of records and one of spill rows.
        n = 3 * features.CACHE_CHUNK_WINDOWS + 5
        write_uci_layout_split(tmp_path, "train", n, lines=61)
        read_split, held = features.read_split, []

        def reading(*args):
            result = read_split(*args)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return result

        monkeypatch.setattr(features, "read_split", reading)
        with contextlib.ExitStack() as stack:
            spills = open_spills(stack, tmp_path)
            tracemalloc.start()
            try:
                got, _ = extract_features(tmp_path, "train", spills=spills,
                                          strict_counts=False, fit=fit)
                allocated = tracemalloc.get_traced_memory()[1] - held[0]
                tracemalloc.reset_peak()
                write_feature_cache(tmp_path / "train.harfeat", got)
                writing = tracemalloc.get_traced_memory()[1] - held[0]
            finally:
                tracemalloc.stop()
        chunk_bytes = features.CACHE_CHUNK_WINDOWS * (1 + N_STREAMS * 4 * (65 + 33))
        assert allocated < 0.05 * chunk_bytes, (allocated, chunk_bytes)
        assert writing < 2.1 * chunk_bytes, (writing, chunk_bytes)
        cached = read_feature_cache(tmp_path / "train.harfeat")
        whole = extract_split(load_split(tmp_path, "train", strict_counts=False))
        assert cached.freq.tobytes() == whole.freq.astype(np.float32).tobytes()
        assert cached.power.tobytes() == whole.power.astype(np.float32).tobytes()

    def test_peak_does_not_grow_with_the_split(self, tmp_path, monkeypatch):
        # A stream task holds one block of its file, not the parsed file, and writes its
        # features to its spill: from 600 to 2,400 windows the peak stays put. Whether the two
        # tasks' block peaks coincide moves it by up to about 0.5 MB; when each task held its
        # parsed file and its float64 features, it grew by about 6.5 MB, and the float32
        # stacks grew it by 5.3 MB more.
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)  # the same threads on any host
        peaks = []
        for n in (600, 2400):
            write_uci_layout_split(tmp_path / str(n), "train", n, lines=61)
            with contextlib.ExitStack() as stack:
                spills = open_spills(stack, tmp_path)
                tracemalloc.start()
                try:
                    held = tracemalloc.get_traced_memory()[0]
                    got, _ = extract_features(tmp_path / str(n), "train", spills=spills,
                                              strict_counts=False)
                    peaks.append(tracemalloc.get_traced_memory()[1] - held)
                finally:
                    tracemalloc.stop()
                assert len(got) == n
        assert peaks[1] - peaks[0] < 1e6, peaks

    def test_fitting_peak_does_not_grow_with_the_split(self, tmp_path, monkeypatch):
        # With fit a stream task adds each block's features to running moments, so on one
        # CPU the peak grows by under 0.5 MB from 3 to 12 blocks a stream. When the task kept
        # its stream's float64 features for the moments, it grew by about 2 MB.
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        peaks = []
        for n in (3 * BLOCK_ROWS, 12 * BLOCK_ROWS):
            write_uci_layout_split(tmp_path / str(n), "train", n, lines=61)
            with contextlib.ExitStack() as stack:
                spills = open_spills(stack, tmp_path)
                tracemalloc.start()
                try:
                    held = tracemalloc.get_traced_memory()[0]
                    extract_features(tmp_path / str(n), "train", spills=spills,
                                     strict_counts=False, fit=True)
                    peaks.append(tracemalloc.get_traced_memory()[1] - held)
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5e6, peaks


class TestLayoutBreakAfterTheFirstBlock:
    """A signal file that leaves the UCI layout after its first block of BLOCK_ROWS rows."""

    N = 2 * BLOCK_ROWS + 24  # three blocks

    @staticmethod
    def broken_file(root, rows):
        """Write a UCI-layout train split; its first stream's file, which one CPU reads first."""
        write_uci_layout_split(root, "train", rows, lines=61)
        return root / "train" / "Inertial Signals" / "body_acc_x_train.txt"

    @staticmethod
    def assert_extracts_as_load_split(root):
        whole = extract_split(load_split(root, "train", strict_counts=False))
        want = fit_normalizer_arrays(whole.freq, whole.power)
        for fit in (False, True):
            got, stats = extract(root, "train", strict_counts=False, fit=fit)
            assert got.freq.tobytes() == whole.freq.astype(np.float32).tobytes()
            assert got.power.tobytes() == whole.power.astype(np.float32).tobytes()
            if fit:
                for name, value in vars(want).items():
                    assert getattr(stats, name).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_tab_in_block_two(self, tmp_path, monkeypatch, cpus):
        path = self.broken_file(tmp_path, self.N)
        clean = extract(tmp_path, "train", strict_counts=False, fit=True)[1]
        lines = path.read_bytes().splitlines(keepends=True)
        lines[BLOCK_ROWS + 11] = b"\t" + lines[BLOCK_ROWS + 11][1:]
        path.write_bytes(b"".join(lines))
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        transform, seen = features._rows_features, []

        def counting(rows, cfg):
            seen.append(len(rows))
            return transform(rows, cfg)

        monkeypatch.setattr(features, "_rows_features", counting)
        self.assert_extracts_as_load_split(tmp_path)
        # The file's first block was transformed before the tab was seen, then the whole file.
        assert {BLOCK_ROWS, self.N} <= set(seen)
        # Its moments started again there: the stats are the clean file's.
        stats = extract(tmp_path, "train", strict_counts=False, fit=True)[1]
        for name, value in vars(clean).items():
            assert getattr(stats, name).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_bad_token_at_row_300_fails_as_parse_signal_file(self, tmp_path, monkeypatch, cpus):
        path = self.broken_file(tmp_path, self.N)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[299] = b"  2.5808950x-001" + lines[299][16:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetError) as want:
            parse_signal_file(path)
        assert "line 300: unparsable value '2.5808950x-001' at column 1" in str(want.value)
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        with pytest.raises(DatasetError) as got:
            extract(tmp_path, "train", strict_counts=False)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_file_sized_for_another_row_count(self, tmp_path, monkeypatch, cpus):
        # Three UCI lines in block 2 become three shorter lines of two UCI lines' bytes, so the
        # file's size is a whole number of UCI lines, one fewer than it has. The first block
        # is transformed for that wrong count before the text path finds the right one.
        path = self.broken_file(tmp_path, self.N + 1)
        lines = path.read_bytes().splitlines(keepends=True)
        width = len(lines[0])
        short = np.random.default_rng(4).standard_normal((3, WINDOW_LEN))
        at = BLOCK_ROWS + 10
        lines[at : at + 3] = [" ".join(f"{v:.2e}" for v in row).encode().ljust(2 * width // 3 - 1)
                              + b"\n" for row in short]
        path.write_bytes(b"".join(lines))
        assert path.stat().st_size == self.N * width
        assert len(parse_signal_file(path)) == self.N + 1
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        self.assert_extracts_as_load_split(tmp_path)


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

    # The check reads CACHE_CHUNK_WINDOWS (256) records at a time: each fault below lies
    # in another chunk than the one it must win against.
    @pytest.mark.parametrize("faults, message", [
        ({10: "nan", 500: 0}, "record 500 has label 0, not a class id in 1..6"),
        ({300: 9, 520: 0}, "record 300 has label 9, not a class id in 1..6"),
        ({10: "nan", 599: "inf"}, "feature cache holds non-finite values"),
        ({599: "inf"}, "feature cache holds non-finite values"),
    ])
    @pytest.mark.parametrize("reader", [read_feature_cache, FeatureCache])
    def test_checks_keep_their_precedence_across_chunks(self, tmp_path, reader, faults, message):
        fs = self._feature_set(n=600)
        for record, fault in faults.items():
            if isinstance(fault, str):
                fs.power[record, 8, 32] = float(fault)
            else:
                fs.labels[record] = fault
        path = tmp_path / "faulty.harfeat"
        write_feature_cache(path, fs)
        with pytest.raises(FormatError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {message}"

    def test_open_cache_keeps_only_its_labels_and_reads_rows_as_asked(self, tmp_path):
        fs = self._feature_set(n=2000)
        path = tmp_path / "train.harfeat"
        write_feature_cache(path, fs)
        tracemalloc.start()
        try:
            with FeatureCache(path) as cache:
                held = tracemalloc.get_traced_memory()[0]
                batch = np.random.default_rng(3).permutation(len(cache))[:64]
                freq, power = cache.rows(batch)
                chunk_freq, chunk_power = cache.rows(slice(1536, 2048))
        finally:
            tracemalloc.stop()
        assert held < 2000 * 8 + 10_000, held  # the int64 labels and the file object
        assert np.array_equal(cache.labels, fs.labels)
        assert np.array_equal(freq, fs.freq[batch]) and np.array_equal(power, fs.power[batch])
        assert np.array_equal(chunk_freq, fs.freq[1536:])
        assert np.array_equal(chunk_power, fs.power[1536:])
        with pytest.raises(ValueError, match="read-only"):
            freq[0, 0, 0] = 1.0

    def test_default_welch_shapes(self):
        welch = WelchConfig()
        assert welch.segment_len == 64
        assert welch.overlap == 32
        assert welch.n_bins == 33
