"""State archives: layout, CRC32 integrity and atomic on-disk persistence."""

import io
import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.nn import (
    StateChecksumError,
    load_state,
    save_state,
    state_from_bytes,
    state_to_bytes,
)
from repro.nn.serialization import MAGIC


def sample_state():
    rng = np.random.default_rng(5)
    return {
        "weight": rng.normal(size=(4, 3)),
        "bias": rng.normal(size=3),
        "step": np.array([7], dtype=np.int64),
    }


class TestChecksum:
    def test_roundtrip_is_bit_exact_and_checksum_free(self):
        state = sample_state()
        loaded = state_from_bytes(state_to_bytes(state))
        assert set(loaded) == set(state)  # no __crc32__ leaking through
        for key in state:
            np.testing.assert_array_equal(loaded[key], state[key])
            assert loaded[key].dtype == state[key].dtype

    def test_flipped_byte_in_payload_is_detected(self):
        payload = bytearray(state_to_bytes(sample_state()))
        # Flip a byte in the array data region (towards the end, before
        # the zip central directory) until the checksum catches it.
        position = len(payload) // 2
        payload[position] ^= 0xFF
        with pytest.raises(StateChecksumError):
            state_from_bytes(bytes(payload))

    def test_truncated_payload_is_detected(self):
        payload = state_to_bytes(sample_state())
        with pytest.raises(StateChecksumError):
            state_from_bytes(payload[: len(payload) // 2])


def frame(header, data=b""):
    """A one-block payload with a *valid* CRC around an arbitrary header."""
    encoded = json.dumps(header).encode("utf8")
    body = MAGIC + struct.pack("<Q", len(encoded)) + encoded + data
    return body + struct.pack("<I", zlib.crc32(body))


def regions(payload):
    """``{region: (start, stop)}`` of a one-block payload."""
    (header_size,) = struct.unpack_from("<Q", payload, len(MAGIC))
    header_end = len(MAGIC) + 8 + header_size
    return {
        "magic": (0, len(MAGIC)),
        "length": (len(MAGIC), len(MAGIC) + 8),
        "header": (len(MAGIC) + 8, header_end),
        "data": (header_end, len(payload) - 4),
        "trailer": (len(payload) - 4, len(payload)),
    }


class TestBlockLayout:
    def test_payload_is_magic_header_data_and_crc(self):
        state = sample_state()
        payload = state_to_bytes(state)
        assert payload.startswith(MAGIC)
        spans = regions(payload)
        header = json.loads(payload[slice(*spans["header"])])
        assert header == [[k, v.dtype.str, list(v.shape)] for k, v in state.items()]
        data = b"".join(value.tobytes() for value in state.values())
        assert payload[slice(*spans["data"])] == data
        (stored,) = struct.unpack("<I", payload[-4:])
        assert stored == zlib.crc32(payload[:-4])

    def test_equal_states_give_equal_bytes(self):
        assert state_to_bytes(sample_state()) == state_to_bytes(sample_state())

    def test_roundtrip_keeps_dtypes_shapes_and_bytes(self):
        state = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "big_endian": np.arange(4, dtype=">f8"),
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "strided": np.arange(10.0)[::3],
            "bools": np.array([True, False, True]),
            "scalar": np.array(2.5),
            "blob": np.frombuffer(b"\x00\xffpickle", dtype=np.uint8),
            "text": np.array(["ab", "c"]),
            "complex": np.array([1 + 2j]),
        }
        loaded = state_from_bytes(state_to_bytes(state))
        assert list(loaded) == list(state)
        for key, value in state.items():
            assert loaded[key].dtype == value.dtype, key
            assert loaded[key].shape == value.shape, key
            assert loaded[key].tobytes() == value.tobytes(), key

    def test_empty_state_and_zero_size_arrays_roundtrip(self):
        assert state_from_bytes(state_to_bytes({})) == {}
        state = {"none": np.zeros((0, 3)), "also_none": np.zeros(0, dtype=np.int64)}
        loaded = state_from_bytes(state_to_bytes(state))
        for key, value in state.items():
            assert loaded[key].shape == value.shape
            assert loaded[key].dtype == value.dtype

    def test_loaded_arrays_are_writeable_aligned_and_independent(self):
        # An odd-sized first entry puts the next array at an unaligned offset.
        state = {"odd": np.zeros(3, dtype=np.uint8), "a": np.ones(4), "b": np.ones(4)}
        payload = state_to_bytes(state)
        loaded = state_from_bytes(payload)
        for value in loaded.values():
            assert value.flags.writeable and value.flags.aligned and value.flags.owndata
        loaded["a"] += 1.0
        np.testing.assert_array_equal(loaded["b"], np.ones(4))
        assert not np.shares_memory(loaded["a"], loaded["b"])
        assert state_from_bytes(payload)["a"].tolist() == [1.0] * 4

    def test_object_dtype_is_refused_at_save(self):
        with pytest.raises(ValueError, match="object"):
            state_to_bytes({"x": np.array([object(), None], dtype=object)})

    def test_structured_dtype_is_refused_at_save(self):
        """Its dtype string ('|V12') would load back as plain void."""
        record = np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")])
        with pytest.raises(ValueError, match="structured"):
            state_to_bytes({"x": record})


class TestMalformedBlockPayloads:
    """Every malformed one-block payload raises StateChecksumError."""

    @pytest.mark.parametrize("region", ["magic", "length", "header", "data", "trailer"])
    def test_truncation_inside_each_region(self, region):
        payload = state_to_bytes(sample_state())
        start, stop = regions(payload)[region]
        for cut in sorted({start + 1, (start + stop) // 2, stop - 1}):
            with pytest.raises(StateChecksumError):
                state_from_bytes(payload[:cut])

    @pytest.mark.parametrize("region", ["header", "data"])
    def test_flipped_byte(self, region):
        payload = state_to_bytes(sample_state())
        start, stop = regions(payload)[region]
        for position in (start, (start + stop) // 2, stop - 1):
            corrupt = bytearray(payload)
            corrupt[position] ^= 0x01
            with pytest.raises(StateChecksumError, match="checksum"):
                state_from_bytes(bytes(corrupt))

    def test_header_claiming_more_bytes_than_the_payload_holds(self):
        """Caught from the header alone: nothing is allocated from the
        claimed 400 MB, and an absurd claim is not even attempted."""
        tracemalloc.start()
        try:
            with pytest.raises(StateChecksumError, match="claims"):
                state_from_bytes(frame([["w", "<f8", [50_000_000]]], b"\0" * 16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(StateChecksumError):
            state_from_bytes(frame([["w", "<f8", [2**62, 2**62]]]))

    @pytest.mark.parametrize(
        "header",
        [
            [["w", "|O", [1]]],
            [["w", "<f8", [-1]]],
            [["w", "<f8", [1.5]]],
            [["w", "<f8", [True]]],
            [["w", "not-a-dtype", [1]]],
            [["w", "(2,)<f8", [1]]],
            [["w", "<f8", [1]], ["w", "<f8", [1]]],
            [["w", "<f8"]],
            {"w": "<f8"},
        ],
        ids=[
            "object",
            "negative_dim",
            "float_dim",
            "bool_dim",
            "unknown_dtype",
            "subarray_dtype",
            "duplicate_name",
            "short_entry",
            "not_a_list",
        ],
    )
    def test_invalid_header_entries(self, header):
        with pytest.raises(StateChecksumError):
            state_from_bytes(frame(header, b"\0" * 16))

    def test_header_length_overrunning_the_payload(self):
        body = MAGIC + struct.pack("<Q", 2**40) + b"[]"
        with pytest.raises(StateChecksumError, match="overruns"):
            state_from_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_header_that_is_not_json(self):
        body = MAGIC + struct.pack("<Q", 3) + b"\xff\xfe{"
        with pytest.raises(StateChecksumError, match="JSON"):
            state_from_bytes(body + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x93R2", b"garbage that is neither layout", b"PK\x03\x04broken zip"],
        ids=["empty", "magic_prefix", "garbage", "broken_zip"],
    )
    def test_payload_in_neither_layout(self, payload):
        with pytest.raises(StateChecksumError):
            state_from_bytes(payload)

    def test_well_formed_npz_archive_is_refused(self, tmp_path):
        """The one-block layout is the only one read: a valid ``np.savez``
        zip of the same state is refused, in memory and on disk."""
        buffer = io.BytesIO()
        np.savez(buffer, **sample_state())
        payload = buffer.getvalue()
        assert payload[:2] == b"PK"
        with pytest.raises(StateChecksumError, match="magic"):
            state_from_bytes(payload)
        path = tmp_path / "state.npz"
        path.write_bytes(payload)
        with pytest.raises(StateChecksumError, match="magic"):
            load_state(path)


class TestAtomicSaveState:
    def test_disk_roundtrip(self, tmp_path):
        path = tmp_path / "state.npz"
        state = sample_state()
        save_state(path, state)
        loaded = load_state(path)
        for key in state:
            np.testing.assert_array_equal(loaded[key], state[key])

    def test_overwrite_replaces_atomically(self, tmp_path):
        path = tmp_path / "state.npz"
        save_state(path, {"x": np.zeros(3)})
        save_state(path, {"x": np.ones(3)})
        np.testing.assert_array_equal(load_state(path)["x"], np.ones(3))
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_failed_save_leaves_previous_archive_and_no_temp(self, tmp_path):
        path = tmp_path / "state.npz"
        save_state(path, {"x": np.arange(4.0)})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="object"):
            save_state(path, {"x": np.array([None], dtype=object)})
        assert path.read_bytes() == before
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_relative_path_in_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_state("bare.npz", {"x": np.ones(2)})
        np.testing.assert_array_equal(load_state("bare.npz")["x"], np.ones(2))
