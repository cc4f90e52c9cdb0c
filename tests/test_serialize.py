"""Tests for the FRSZ2 binary container."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FRSZ2
from repro.core.serialize import dump_bytes, dump_file, load_bytes, load_file


def compressed(l=32, bs=32, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return FRSZ2(l, bs), FRSZ2(l, bs).compress(rng.standard_normal(n))


class TestRoundTrip:
    @pytest.mark.parametrize("l", [16, 21, 32, 64])
    def test_bytes_roundtrip(self, l):
        codec, comp = compressed(l=l, seed=l)
        out = load_bytes(dump_bytes(comp))
        assert out.layout == comp.layout
        assert np.array_equal(out.exponents, comp.exponents)
        assert np.array_equal(out.payload, comp.payload)
        assert np.array_equal(codec.decompress(out), codec.decompress(comp))

    def test_file_roundtrip(self, tmp_path):
        codec, comp = compressed(seed=1)
        path = tmp_path / "vec.frz2"
        dump_file(path, comp)
        out = load_file(path)
        assert np.array_equal(codec.decompress(out), codec.decompress(comp))

    def test_empty_array(self):
        codec = FRSZ2()
        comp = codec.compress(np.zeros(0))
        out = load_bytes(dump_bytes(comp))
        assert out.n == 0
        assert codec.decompress(out).size == 0

    def test_custom_block_size(self):
        codec, comp = compressed(l=21, bs=8, n=137, seed=2)
        out = load_bytes(dump_bytes(comp))
        assert out.layout.block_size == 8
        assert np.array_equal(codec.decompress(out), codec.decompress(comp))

    @given(
        st.integers(min_value=1, max_value=300),
        st.sampled_from([12, 16, 21, 32]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, n, l):
        rng = np.random.default_rng(n * 31 + l)
        x = rng.standard_normal(n)
        codec = FRSZ2(l)
        comp = codec.compress(x)
        out = load_bytes(dump_bytes(comp))
        assert np.array_equal(codec.decompress(out), codec.decompress(comp))


class TestValidation:
    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            load_bytes(b"FR")

    def test_bad_magic(self):
        _, comp = compressed()
        data = b"XXXX" + dump_bytes(comp)[4:]
        with pytest.raises(ValueError, match="magic"):
            load_bytes(data)

    def test_bad_version(self):
        import struct

        _, comp = compressed()
        data = bytearray(dump_bytes(comp))
        struct.pack_into("<H", data, 4, 999)
        with pytest.raises(ValueError, match="version"):
            load_bytes(bytes(data))

    def test_size_mismatch(self):
        _, comp = compressed()
        with pytest.raises(ValueError, match="size mismatch"):
            load_bytes(dump_bytes(comp) + b"\0")
        with pytest.raises(ValueError, match="size mismatch"):
            load_bytes(dump_bytes(comp)[:-1])

    def test_loaded_arrays_are_writable_copies(self):
        codec, comp = compressed()
        out = load_bytes(dump_bytes(comp))
        out.exponents[0] += 1  # must not raise (frombuffer is read-only)


class TestContainerV2:
    def test_default_version_is_2_with_crc_trailer(self):
        _, comp = compressed()
        data = dump_bytes(comp)
        assert struct.unpack_from("<H", data, 4) == (2,)
        assert struct.unpack_from("<I", data, len(data) - 4) == (
            zlib.crc32(data[:-4]),)

    def test_v1_header_is_refused(self):
        # the unchecksummed version-1 layout (no trailer) and a v1 header
        # on a v2 body: a flipped payload bit could not be told apart, so
        # neither loads
        _, comp = compressed(n=64)
        v2 = bytearray(dump_bytes(comp))
        struct.pack_into("<H", v2, 4, 1)
        for data in (bytes(v2[:-4]), bytes(v2)):
            with pytest.raises(ValueError,
                               match="^unsupported FRSZ2 container version 1$"):
                load_bytes(data)

    def test_v2_flags_payload_corruption(self):
        _, comp = compressed(n=64)
        data = bytearray(dump_bytes(comp))
        data[len(data) - 7] ^= 0x01  # inside the payload stream
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_bytes(bytes(data))

    def test_v2_flags_crc_trailer_corruption(self):
        _, comp = compressed(n=64)
        data = bytearray(dump_bytes(comp))
        data[-1] ^= 0x80
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_bytes(bytes(data))
