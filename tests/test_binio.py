import os
import struct

import numpy as np
import pytest

from harcnn.binio import (
    FormatError,
    atomic_write_bytes,
    pack_tensor_record,
    unpack_tensor_records,
)


class TestTensorRecords:
    def test_round_trip_multiple_ranks(self):
        rng = np.random.default_rng(1)
        arrays = {
            "scalar": np.float32(3.5).reshape(()),
            "vector": rng.standard_normal(7).astype(np.float32),
            "matrix": rng.standard_normal((4, 5)).astype(np.float32),
            "cube": rng.standard_normal((2, 3, 4)).astype(np.float32),
        }
        blob = b"".join(pack_tensor_record(name, arr) for name, arr in arrays.items())
        back = unpack_tensor_records(memoryview(blob))
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].shape == np.asarray(arr).shape
            assert np.array_equal(back[name], arr)

    def test_float64_input_is_stored_as_float32(self):
        arr = np.array([1.0, 2.0], dtype=np.float64)
        back = unpack_tensor_records(memoryview(pack_tensor_record("x", arr)))
        assert back["x"].dtype == np.float32

    def test_truncated_payload_rejected(self):
        blob = pack_tensor_record("weights", np.ones(10, dtype=np.float32))
        with pytest.raises(FormatError, match="truncated.*weights"):
            unpack_tensor_records(memoryview(blob[:-8]))

    def test_oversized_dims_are_a_truncated_record(self):
        # The element count of these dims wraps negative in int64.
        dims = (2**32 - 1, 2**32 - 1)
        blob = struct.pack("<I", 1) + b"w" + struct.pack("<3I", 2, *dims) + b"\0" * 16
        with pytest.raises(FormatError, match=r"^ckpt: truncated file: .* record 'w'$"):
            unpack_tensor_records(memoryview(blob), "ckpt: ")

    def test_truncated_header_rejected(self):
        with pytest.raises(FormatError, match="truncated"):
            unpack_tensor_records(memoryview(b"\x10\x00\x00\x00ab"))


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new contents")
        assert path.read_bytes() == b"new contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_bytes(tmp_path / "out.bin", b"payload")
        finally:
            os.umask(old)
        assert (tmp_path / "out.bin").stat().st_mode & 0o777 == mode

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_bytes(tmp_path / "out.bin", "text is not bytes")
        assert list(tmp_path.iterdir()) == []
