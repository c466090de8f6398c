import os
import struct

import numpy as np
import pytest

from harcnn.binio import (
    FORMAT_VERSION,
    FormatError,
    Parts,
    atomic_write_bytes,
    pack_tensor_record,
    read_container,
    unpack_tensor_records,
    write_container,
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

    @pytest.mark.parametrize("as_parts", [list, iter, lambda parts: Parts(parts, 11)],
                             ids=["list", "iterator", "Parts"])
    def test_parts_are_written_as_their_concatenation(self, tmp_path, as_parts):
        parts = [b"head", np.frombuffer(b"uint8", dtype=np.uint8), memoryview(b"mv")]
        atomic_write_bytes(tmp_path / "out.bin", as_parts(parts))
        assert (tmp_path / "out.bin").read_bytes() == b"headuint8mv"

    def test_a_part_may_reuse_the_buffer_of_the_part_before(self, tmp_path):
        buffer = np.zeros(3, dtype=np.uint8)

        def parts():
            for value in (1, 2, 3):
                buffer[:] = value
                yield buffer

        atomic_write_bytes(tmp_path / "out.bin", parts())
        assert (tmp_path / "out.bin").read_bytes() == bytes([1, 1, 1, 2, 2, 2, 3, 3, 3])

    def test_parts_that_raise_midway_leave_the_target_unchanged(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def parts():
            yield b"new" * 10000
            raise RuntimeError("part failed")

        with pytest.raises(RuntimeError, match="part failed"):
            atomic_write_bytes(path, parts())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("nbytes", [3, 5])
    def test_parts_of_another_length_than_declared_leave_no_file(self, tmp_path, nbytes):
        with pytest.raises(ValueError, match=f"wrote 4 bytes of {nbytes}$"):
            atomic_write_bytes(tmp_path / "out.bin", Parts([b"ab", b"cd"], nbytes))
        assert list(tmp_path.iterdir()) == []


class TestContainer:
    def test_bytes_are_the_header_then_each_record(self, tmp_path):
        records = [("w", np.arange(6, dtype=np.float32).reshape(2, 3)), ("b", np.ones(4))]
        meta = {"b": 1, "a": [2, 3]}
        write_container(tmp_path / "c.bin", b"TESTMAG1", meta, records)
        meta_bytes = b'{"a": [2, 3], "b": 1}'
        want = b"".join([b"TESTMAG1", struct.pack("<HI", FORMAT_VERSION, len(meta_bytes)),
                         meta_bytes, *(pack_tensor_record(name, arr) for name, arr in records)])
        assert (tmp_path / "c.bin").read_bytes() == want
        back_meta, back = read_container(tmp_path / "c.bin", b"TESTMAG1", "test")
        assert back_meta == meta and list(back) == ["w", "b"]
