import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_synthetic_dataset, uci_line
from harcnn import parallel
from harcnn.dataset import (
    BLOCK_ROWS,
    WINDOW_LEN,
    Activity,
    DatasetError,
    EXPECTED_COUNTS,
    EXPECTED_TOTALS,
    SplitManifest,
    _parse_text,
    class_counts,
    load_split,
    parse_signal_file,
    signal_blocks,
    table_count_mismatches,
)


def uci_token(negative: bool, mantissa: int, exponent: int) -> str:
    """The UCI token of (-1)**negative * mantissa * 10**(exponent - 7), mantissa below 10**8."""
    sign = "-" if negative else " "
    return f" {sign}{mantissa // 10**7}.{mantissa % 10**7:07d}e{exponent:+04d}"


def uci_rows(rows: int, columns: int) -> bytes:
    """Seeded normal values as UCI signal text."""
    values = np.random.default_rng(3).standard_normal((rows, columns))
    return "".join(uci_line(row) + "\n" for row in values).encode()


# Bytes at and beyond the ends of what each byte of a UCI token may be.
EDGE_BYTES = b" !,-./09:dfeE+\t\r\n\0\x7f\x80\xff"


def outcome(parse, path, columns):
    """The bytes of parse(path, columns), or the message of the DatasetError it raises."""
    try:
        return parse(path, columns).tobytes()
    except DatasetError as exc:
        return str(exc)


def no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called: a UCI-layout file missed the block parser")


def to_uci_layout(root, split="train"):
    """Rewrite a split's signal files, parsed as they are, in the UCI token layout."""
    for path in (root / split / "Inertial Signals").iterdir():
        rows = parse_signal_file(path)
        path.write_text("".join(uci_line(row) + "\n" for row in rows))


class TestParseSignalFile:
    def test_parses_rows_and_columns(self, tmp_path):
        path = tmp_path / "sig.txt"
        rows = np.arange(256, dtype=float).reshape(2, 128) / 7.0
        with open(path, "w") as f:
            for row in rows:
                f.write(" ".join(f"{v:.17e}" for v in row) + "\n")
        got = parse_signal_file(path)
        assert got.shape == (2, 128)
        assert np.array_equal(got, rows)

    def test_scientific_notation_tokens(self, tmp_path):
        path = tmp_path / "sci.txt"
        path.write_text("1.0e-3 -2.5E+1 7e0\n")
        got = parse_signal_file(path, columns=3)
        assert np.array_equal(got, [[0.001, -25.0, 7.0]])

    def test_empty_file_gives_zero_rows(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        got = parse_signal_file(path)
        assert got.shape == (0, 128)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0.0 " * 128 + "\n" + "0.0 " * 127 + "\n")
        with pytest.raises(DatasetError, match="line 2: expected 128 columns, got 127"):
            parse_signal_file(path)

    @pytest.mark.parametrize(
        "text, columns, message",
        [
            # loadtxt skips blank and whitespace-only lines; the per-line parse must not.
            ("1 2 3\n\n4 5 6\n", 3, "line 2: expected 3 columns, got 0"),
            ("1 2 3\n \t \n4 5 6\n", 3, "line 2: expected 3 columns, got 0"),
            ("1 2 3\n4 5 6\n\n", 3, "line 3: expected 3 columns, got 0"),
            ("1 2 3\n4 5 6\n  ", 3, "line 3: expected 3 columns, got 0"),
            # No comment character: a trailing '# note' is two more columns.
            ("1 2 3 # note\n", 3, "line 1: expected 3 columns, got 5"),
        ],
        ids=["blank-line", "whitespace-line", "trailing-blank-line",
             "trailing-whitespace", "comment-is-data"],
    )
    def test_wrong_column_count_edge_cases(self, tmp_path, text, columns, message):
        path = tmp_path / "short.txt"
        path.write_text(text)
        with pytest.raises(DatasetError, match=message):
            parse_signal_file(path, columns=columns)

    def test_unparsable_token_names_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 oops 3.0\n")
        with pytest.raises(DatasetError, match="line 1: unparsable value 'oops' at column 2"):
            parse_signal_file(path, columns=3)

    def test_hash_token_is_unparsable(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0\n4.0 # 6.0\n")
        with pytest.raises(DatasetError, match="line 2: unparsable value '#' at column 2"):
            parse_signal_file(path, columns=3)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1.0 nan 3.0\n")
        with pytest.raises(DatasetError, match="non-finite value at column 2"):
            parse_signal_file(path, columns=3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.0 2.0 inf\n", "line 1: non-finite value at column 3"),
            ("1.0 2.0 3.0\n-inf 2.0 3.0\n", "line 2: non-finite value at column 1"),
        ],
        ids=["inf", "-inf"],
    )
    def test_infinite_value_rejected(self, tmp_path, text, message):
        path = tmp_path / "nan.txt"
        path.write_text(text)
        with pytest.raises(DatasetError, match=message):
            parse_signal_file(path, columns=3)

    @pytest.mark.parametrize(
        "data",
        [b"1 2 3\r\n4 5 6\r\n", b"1 2 3\n4 5 6", b"1 2 3\r4 5 6\r", b"1 2 3\r\n4 5 6"],
        ids=["crlf", "no-final-newline", "lone-cr", "crlf-no-final-newline"],
    )
    def test_line_endings(self, tmp_path, data):
        path = tmp_path / "eol.txt"
        path.write_bytes(data)
        got = parse_signal_file(path, columns=3)
        assert np.array_equal(got, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_uci_width_tokens_match_float_bitwise(self, tmp_path, monkeypatch):
        # UCI layout: 16-byte tokens, two-space lead, 3-digit exponents. With
        # loadtxt raising, only the block parser can pass.
        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((6, 128)) * 10.0 ** rng.integers(-6, 3, (6, 128))
        lines = ["  2.5808950e-001 -1.2715709e-002" + "  0.0000000e+000" * 126]
        lines += [uci_line(row) for row in values]
        path = tmp_path / "uci.txt"
        path.write_text("\n".join(lines) + "\n")
        got = parse_signal_file(path)
        expected = np.array([[float(tok) for tok in line.split()] for line in lines])
        assert got.shape == (7, 128)
        assert got.tobytes() == expected.tobytes()
        assert got[0, 0] == 0.25808950 and got[0, 1] == -0.012715709

    def test_every_exact_exponent_matches_float_bitwise(self, tmp_path, monkeypatch):
        # e-015..e+029 scale the 8-digit mantissa by 10**-22..10**22, the exact powers.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        path = tmp_path / "uci.txt"

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(mantissa=st.integers(0, 10**8 - 1), negative=st.booleans())
        @hypothesis.example(mantissa=0, negative=True)  # -0.0000000e+000
        @hypothesis.example(mantissa=0, negative=False)
        @hypothesis.example(mantissa=1234567, negative=False)  # 0.1234567
        @hypothesis.example(mantissa=10**8 - 1, negative=True)
        def check(mantissa, negative):
            line = "".join(uci_token(negative, mantissa, e) for e in range(-15, 30))
            path.write_text(line + "\n")
            expected = np.array([[float(tok) for tok in line.split()]])
            assert parse_signal_file(path, columns=45).tobytes() == expected.tobytes()

        check()

    @pytest.mark.parametrize("exponent", [-16, 30])
    def test_inexact_exponents_take_loadtxt_with_the_same_bits(self, tmp_path, monkeypatch,
                                                               exponent):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        line = uci_token(False, 12345678, 3) + uci_token(True, 98765432, exponent)
        path = tmp_path / "uci.txt"
        path.write_text(line + "\n")
        got = parse_signal_file(path, columns=2)
        assert calls == [1]
        assert got.tobytes() == np.array([[float(tok) for tok in line.split()]]).tobytes()

    def test_three_blocks_parse_as_the_text_path_does(self, tmp_path, monkeypatch):
        # 600 rows span three blocks of BLOCK_ROWS (288), the last one short.
        rng = np.random.default_rng(8)
        path = tmp_path / "uci.txt"
        path.write_text("".join(uci_line(row) + "\n" for row in rng.standard_normal((600, 128))))
        expected = _parse_text(path, 128)
        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        assert parse_signal_file(path).tobytes() == expected.tobytes()

    def test_holds_only_its_buffers_between_two_blocks(self, tmp_path):
        # While a consumer has a block, the reader holds its token buffer (16 bytes a token)
        # and the block's values (8 bytes a token), both reused, and under 0.25 MB more: the
        # line ends and readv's two views a line. When each block's parse temporaries stayed
        # alive across the yield, it held 2.8 MB.
        path = tmp_path / "uci.txt"
        path.write_bytes(uci_rows(3 * BLOCK_ROWS, WINDOW_LEN))
        held = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in signal_blocks(path):
                held.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert len(held) == 3
        assert max(held) < 24 * BLOCK_ROWS * WINDOW_LEN + 0.25e6, held

    def test_one_damaged_byte_parses_or_fails_as_the_text_path_does(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        clean = uci_rows(3, 3)
        path = tmp_path / "damaged.txt"

        @st.composite
        def one_byte_changed(draw):
            at = draw(st.integers(0, len(clean) - 1))
            byte = draw(st.integers(0, 255) | st.sampled_from(EDGE_BYTES))
            return clean[:at] + bytes([byte]) + clean[at + 1:]

        def at(offset, byte):
            return clean[:offset] + byte + clean[offset + 1:]

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(data=one_byte_changed())
        @hypothesis.example(data=clean.replace(b"\n", b"\r\n"))
        @hypothesis.example(data=clean[:-1])  # no final newline
        @hypothesis.example(data=clean[:-20])  # the last line cut short
        @hypothesis.example(data=clean.replace(b"e", b"E", 1))
        @hypothesis.example(data=clean.replace(b"  ", b" +", 1))
        @hypothesis.example(data=at(0, b"\t"))
        @hypothesis.example(data=at(5, b"\0"))
        @hypothesis.example(data=at(60, b"\xe9"))
        def check(data):
            path.write_bytes(data)
            assert outcome(parse_signal_file, path, 3) == outcome(_parse_text, path, 3)

        check()
        path.write_bytes(at(len(clean) // 3 + 5, b"\xe9"))
        with pytest.raises(DatasetError, match="damaged.txt: line 2: non-ASCII byte 0xe9$"):
            parse_signal_file(path, 3)

    def test_edge_bytes_at_every_offset_of_a_line(self, tmp_path):
        # Each byte of the middle line, a token's and the line end's, set to the
        # bytes just inside and outside the ranges a token allows there.
        clean = uci_rows(3, 2)
        width = len(clean) // 3
        path = tmp_path / "edge.txt"
        for offset in range(width, 2 * width):
            for byte in EDGE_BYTES:
                path.write_bytes(clean[:offset] + bytes([byte]) + clean[offset + 1:])
                got, want = outcome(parse_signal_file, path, 2), outcome(_parse_text, path, 2)
                assert got == want, (offset, bytes([byte]))

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, lineno):
        lines = ["1.0 2.0 3.0", "4.0 5.0 6.0"]
        lines[lineno - 1] = lines[lineno - 1].replace(".0 ", ".\u00e9 ", 1)
        path = tmp_path / "accent.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"accent.txt: line {lineno}: non-ASCII byte 0xc3"):
            parse_signal_file(path, columns=3)


class TestLoadSplit:
    def test_loads_synthetic_split(self, synthetic_root):
        manifest = load_split(synthetic_root, "train", strict_counts=False)
        assert manifest.windows.shape == (48, 9, 128)
        assert all(class_counts(manifest.labels)[a] == 8 for a in Activity)
        assert manifest.labels.shape == manifest.subjects.shape == (48,)
        assert set(manifest.labels.tolist()) == {a.value for a in Activity}
        assert np.all((manifest.subjects >= 1) & (manifest.subjects <= 30))

    def test_streams_aligned_by_row(self, tmp_path):
        # Encode (row, stream, column) into each value, then check assembly.
        root = tmp_path / "aligned"
        windows = np.zeros((3, 9, 128))
        for r in range(3):
            for s in range(9):
                windows[r, s] = r * 100.0 + s + np.arange(128) / 1000.0
        labels = np.array([1, 2, 3], dtype=np.int64)
        subjects = np.array([5, 6, 7], dtype=np.int64)
        from conftest import write_uci_split

        write_uci_split(root, "test", windows, labels, subjects)
        manifest = load_split(root, "test", strict_counts=False)
        assert np.array_equal(manifest.windows, windows)
        assert np.array_equal(manifest.labels, labels)
        assert np.array_equal(manifest.subjects, subjects)

    def test_two_loads_are_identical(self, synthetic_root):
        a = load_split(synthetic_root, "train", strict_counts=False)
        b = load_split(synthetic_root, "train", strict_counts=False)
        assert np.array_equal(a.windows, b.windows)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.subjects, b.subjects)

    def test_strict_counts_reject_non_pristine_data(self, synthetic_root):
        with pytest.raises(DatasetError, match="do not match the published split") as info:
            load_split(synthetic_root, "train", strict_counts=True)
        message = str(info.value)
        assert "\n" not in message
        # Every mismatch is kept: the total and all six classes differ.
        assert "train: total 48 != expected 7352" in message
        for activity in Activity:
            assert f"train/{activity.short}: 8 != expected" in message

    def test_missing_signal_file_named(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "broken", train_per_class=2, test_per_class=1)
        victim = root / "train" / "Inertial Signals" / "body_gyro_y_train.txt"
        victim.unlink()
        with pytest.raises(DatasetError, match="missing file.*body_gyro_y_train"):
            load_split(root, "train", strict_counts=False)

    def test_a_bad_label_is_reported_before_a_missing_subject_file(self, tmp_path):
        # The label file is parsed before the subject file is opened.
        root = build_synthetic_dataset(tmp_path / "both", train_per_class=2, test_per_class=1)
        label_file = root / "train" / "y_train.txt"
        lines = label_file.read_text().splitlines()
        lines[3] = "7"
        label_file.write_text("\n".join(lines) + "\n")
        (root / "train" / "subject_train.txt").unlink()
        with pytest.raises(DatasetError, match="y_train.txt: line 4: unknown activity id 7$"):
            load_split(root, "train", strict_counts=False)

    def test_first_failing_stream_is_named_as_in_a_serial_loop(self, tmp_path, four_cpus):
        root = build_synthetic_dataset(tmp_path / "two", train_per_class=2, test_per_class=1)
        signals = root / "train" / "Inertial Signals"
        (signals / "body_gyro_y_train.txt").unlink()
        (signals / "total_acc_z_train.txt").write_bytes(b"\xe9\n")
        with pytest.raises(DatasetError, match="missing file.*body_gyro_y_train"):
            load_split(root, "train", strict_counts=False)

    def test_windows_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch):
        root = build_synthetic_dataset(tmp_path / "uci", train_per_class=2, test_per_class=1)
        to_uci_layout(root)
        alone = load_split(root, "train", strict_counts=False).windows
        loads = []
        for cpus in (1, 4):
            monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
            loads.append(load_split(root, "train", strict_counts=False).windows)
        assert alone.tobytes() == loads[0].tobytes() == loads[1].tobytes()
        first = parse_signal_file(root / "train" / "Inertial Signals" / "body_acc_x_train.txt")
        assert alone[:, 0].tobytes() == first.tobytes()

    def test_blank_stream_fails_without_touching_warning_filters(self, tmp_path, four_cpus):
        # An all-blank file is "no data" to loadtxt, which warns; it must be
        # reported by the line check before loadtxt sees it.
        root = build_synthetic_dataset(tmp_path / "blank", train_per_class=2, test_per_class=1)
        (root / "train" / "Inertial Signals" / "body_gyro_x_train.txt").write_text("\n  \n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            with pytest.raises(
                DatasetError, match="body_gyro_x_train.txt: line 1: expected 128 columns, got 0$"
            ):
                load_split(root, "train", strict_counts=False)
            assert warnings.filters == filters

    def test_row_count_mismatch_rejected(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "trunc", train_per_class=2, test_per_class=1)
        victim = root / "train" / "Inertial Signals" / "total_acc_z_train.txt"
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]))
        with pytest.raises(DatasetError, match="disagree on row count"):
            load_split(root, "train", strict_counts=False)

    def test_row_count_mismatch_names_every_stream(self, tmp_path):
        # The first stream sizes the windows array; a short first file must
        # still be reported with every stream's row count.
        root = build_synthetic_dataset(tmp_path / "first", train_per_class=2, test_per_class=1)
        victim = root / "train" / "Inertial Signals" / "body_acc_x_train.txt"
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]))
        with pytest.raises(DatasetError, match="disagree on row count") as info:
            load_split(root, "train", strict_counts=False)
        assert "body_acc_x=11, body_acc_y=12" in str(info.value)
        assert str(info.value).endswith("total_acc_z=12")

    def test_truncated_label_file_rejected(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "lbl", train_per_class=2, test_per_class=1)
        label_file = root / "train" / "y_train.txt"
        lines = label_file.read_text().splitlines(keepends=True)
        label_file.write_text("".join(lines[:-1]))
        with pytest.raises(DatasetError, match="labels for"):
            load_split(root, "train", strict_counts=False)

    # Values beyond the int64 range are checked as floats: no cast warning.
    @pytest.mark.parametrize(
        "value, shown",
        [("7", "7"), ("1e300", "1e+300"), ("1e19", "1e+19"),
         ("9223372036854775808", "9.22337203685478e+18")],
    )
    def test_unknown_activity_id_rejected(self, tmp_path, value, shown):
        root = build_synthetic_dataset(tmp_path / "badlbl", train_per_class=2, test_per_class=1)
        label_file = root / "train" / "y_train.txt"
        lines = label_file.read_text().splitlines()
        lines[3] = value
        label_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=f"line 4: unknown activity id {re.escape(shown)}$"):
            load_split(root, "train", strict_counts=False)

    @pytest.mark.parametrize(
        "value, shown",
        [("31", "31"), ("1e300", "1e+300"), ("1e19", "1e+19"),
         ("9223372036854775808", "9.22337203685478e+18")],
    )
    def test_out_of_range_subject_rejected(self, tmp_path, value, shown):
        root = build_synthetic_dataset(tmp_path / "badsub", train_per_class=2, test_per_class=1)
        subject_file = root / "train" / "subject_train.txt"
        lines = subject_file.read_text().splitlines()
        lines[0] = value
        subject_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=f"line 1: unknown subject id {re.escape(shown)}$"):
            load_split(root, "train", strict_counts=False)

    def test_unknown_split_rejected(self, synthetic_root):
        with pytest.raises(DatasetError, match="split must be one of"):
            load_split(synthetic_root, "validation")


class TestTableCounts:
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_conforming_counts_have_no_mismatches(self, split):
        labels = np.concatenate(
            [np.full(n, a.value, dtype=np.int64) for a, n in EXPECTED_COUNTS[split].items()]
        )
        total = EXPECTED_TOTALS[split]
        manifest = SplitManifest(
            split=split,
            windows=np.zeros((total, 9, 128)),
            labels=labels,
            subjects=np.ones(total, dtype=np.int64),
        )
        assert table_count_mismatches(manifest.split, manifest.labels) == []
        assert len(manifest.labels) == total

    def test_counts_follow_the_labels_of_a_sliced_manifest(self):
        labels = np.repeat(np.arange(1, 7, dtype=np.int64), 3)
        manifest = SplitManifest(split="test", windows=np.zeros((18, 9, 128)), labels=labels,
                                 subjects=np.ones(18, dtype=np.int64))
        cut = replace(manifest, windows=manifest.windows[:4], labels=labels[:4],
                      subjects=manifest.subjects[:4])
        assert class_counts(manifest.labels) == dict.fromkeys(Activity, 3)
        assert class_counts(cut.labels) == {**dict.fromkeys(Activity, 0), Activity.WALKING: 3,
                                            Activity.WALKING_UPSTAIRS: 1}

    def test_totals_sum_to_published_figure(self):
        assert EXPECTED_TOTALS["train"] == 7352
        assert EXPECTED_TOTALS["test"] == 2947
        assert EXPECTED_TOTALS["train"] + EXPECTED_TOTALS["test"] == 10299
        assert round(100 * 7352 / 10299, 2) == 71.39
        assert round(100 * 2947 / 10299, 2) == 28.61

    def test_mismatch_lists_offending_classes(self):
        labels = np.full(10, Activity.LAYING.value, dtype=np.int64)
        manifest = SplitManifest(
            split="test",
            windows=np.zeros((10, 9, 128)),
            labels=labels,
            subjects=np.ones(10, dtype=np.int64),
        )
        diffs = table_count_mismatches(manifest.split, manifest.labels)
        assert any("total 10" in d for d in diffs)
        assert any("test/Wlk: 0 != expected 496" in d for d in diffs)
