import numpy as np
import pytest

from conftest import build_synthetic_dataset
from harcnn.dataset import (
    Activity,
    DatasetError,
    EXPECTED_COUNTS,
    EXPECTED_TOTALS,
    SplitManifest,
    class_of,
    load_split,
    parse_signal_file,
    table_count_mismatches,
)


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

    def test_uci_width_tokens_match_float_bitwise(self, tmp_path):
        # UCI layout: 16-byte tokens, two-space lead, 3-digit exponents.
        rng = np.random.default_rng(5)
        values = rng.standard_normal((6, 128)) * 10.0 ** rng.integers(-6, 3, (6, 128))
        lines = ["  2.5808950e-001 -1.2715709e-002" + " 0.0000000e+000" * 126]
        for row in values:
            tokens = []
            for v in row:
                mantissa, exponent = f"{v:.7e}".split("e")
                tokens.append(f"{mantissa}e{int(exponent):+04d}".rjust(16))
            lines.append("".join(tokens))
        path = tmp_path / "uci.txt"
        path.write_text("\n".join(lines) + "\n")
        got = parse_signal_file(path)
        expected = np.array([[float(tok) for tok in line.split()] for line in lines])
        assert got.shape == (7, 128)
        assert got.tobytes() == expected.tobytes()
        assert got[0, 0] == 0.25808950 and got[0, 1] == -0.012715709

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, lineno):
        lines = ["1.0 2.0 3.0", "4.0 5.0 6.0"]
        lines[lineno - 1] = lines[lineno - 1].replace(".0 ", ".\u00e9 ", 1)
        path = tmp_path / "accent.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"accent.txt: line {lineno}: non-ASCII byte 0xc3"):
            parse_signal_file(path, columns=3)


class TestClassOf:
    def test_table_order(self):
        assert class_of(1) is Activity.WALKING
        assert class_of(1).short == "Wlk"
        assert class_of(6) is Activity.LAYING
        assert class_of(6).short == "Lay"
        assert [class_of(i).short for i in range(1, 7)] == [
            "Wlk", "WUp", "WDn", "Sit", "Stn", "Lay",
        ]

    @pytest.mark.parametrize("bad", [0, 7, -1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DatasetError, match="unknown activity id"):
            class_of(bad)


class TestLoadSplit:
    def test_loads_synthetic_split(self, synthetic_root):
        manifest = load_split(synthetic_root, "train", strict_counts=False)
        assert len(manifest) == 48
        assert manifest.windows.shape == (48, 9, 128)
        assert all(manifest.per_class_counts[a] == 8 for a in Activity)
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
        with pytest.raises(DatasetError, match="do not match the published split"):
            load_split(synthetic_root, "train", strict_counts=True)

    def test_missing_signal_file_named(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "broken", train_per_class=2, test_per_class=1)
        victim = root / "train" / "Inertial Signals" / "body_gyro_y_train.txt"
        victim.unlink()
        with pytest.raises(DatasetError, match="missing signal file.*body_gyro_y_train"):
            load_split(root, "train", strict_counts=False)

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

    def test_unknown_activity_id_rejected(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "badlbl", train_per_class=2, test_per_class=1)
        label_file = root / "train" / "y_train.txt"
        lines = label_file.read_text().splitlines()
        lines[3] = "7"
        label_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 4: unknown activity id 7"):
            load_split(root, "train", strict_counts=False)

    def test_out_of_range_subject_rejected(self, tmp_path):
        root = build_synthetic_dataset(tmp_path / "badsub", train_per_class=2, test_per_class=1)
        subject_file = root / "train" / "subject_train.txt"
        lines = subject_file.read_text().splitlines()
        lines[0] = "31"
        subject_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="unknown subject id 31"):
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
        assert table_count_mismatches(manifest) == []
        assert len(manifest) == total

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
        diffs = table_count_mismatches(manifest)
        assert any("total 10" in d for d in diffs)
        assert any("test/Wlk: 0 != expected 496" in d for d in diffs)
