"""Tests for the Accessor interface (storage/arithmetic decoupling)."""

import numpy as np
import pytest

from repro.accessor import (
    Float16Accessor,
    Float32Accessor,
    Float64Accessor,
    Frsz2Accessor,
    RoundTripAccessor,
    accessor_factory,
    list_storage_formats,
    make_accessor,
)
from repro.compressors import make_compressor
from repro.observe import Tracer


def krylov_vector(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


class TestFloat64Accessor:
    def test_lossless_roundtrip(self):
        x = krylov_vector()
        acc = Float64Accessor(x.size)
        acc.write(x)
        assert np.array_equal(acc.read(), x)

    def test_read_returns_copy(self):
        x = krylov_vector()
        acc = Float64Accessor(x.size)
        acc.write(x)
        out = acc.read()
        out[0] = 99.0
        assert acc.read()[0] != 99.0

    def test_bits_per_value(self):
        acc = Float64Accessor(100)
        assert acc.bits_per_value == 64.0

    def test_wrong_shape_raises(self):
        acc = Float64Accessor(10)
        with pytest.raises(ValueError):
            acc.write(np.ones(11))

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            Float64Accessor(-1)


class TestFloat32Accessor:
    def test_quantizes_to_single(self):
        x = krylov_vector()
        acc = Float32Accessor(x.size)
        acc.write(x)
        assert np.array_equal(acc.read(), x.astype(np.float32).astype(np.float64))

    def test_bits_per_value(self):
        assert Float32Accessor(10).bits_per_value == 32.0

    def test_overflow_raises(self):
        acc = Float32Accessor(1)
        with pytest.raises(OverflowError):
            acc.write(np.array([1e200]))


class TestFloat16Accessor:
    def test_quantizes_to_half(self):
        x = krylov_vector()
        acc = Float16Accessor(x.size)
        acc.write(x)
        assert np.array_equal(acc.read(), x.astype(np.float16).astype(np.float64))

    def test_saturates_instead_of_overflowing(self):
        acc = Float16Accessor(2)
        acc.write(np.array([1e10, -1e10]))
        out = acc.read()
        limit = float(np.finfo(np.float16).max)
        assert out[0] == limit and out[1] == -limit

    def test_bits_per_value(self):
        assert Float16Accessor(10).bits_per_value == 16.0


class TestFrsz2Accessor:
    def test_roundtrip_matches_codec(self):
        from repro.core import FRSZ2

        x = krylov_vector()
        acc = Frsz2Accessor(x.size, bit_length=32)
        acc.write(x)
        assert np.array_equal(acc.read(), FRSZ2(32).roundtrip(x))

    def test_name_follows_paper_labels(self):
        assert Frsz2Accessor(10, bit_length=21).name == "frsz2_21"

    def test_bits_per_value_is_33_for_l32(self):
        acc = Frsz2Accessor(32 * 10, bit_length=32)
        assert acc.bits_per_value == pytest.approx(33.0)

    def test_read_before_write_returns_zeros(self):
        acc = Frsz2Accessor(10)
        assert np.array_equal(acc.read(), np.zeros(10))

    def test_read_block(self):
        x = krylov_vector(100, seed=1)
        acc = Frsz2Accessor(100)
        acc.write(x)
        full = acc.read()
        assert np.array_equal(acc.read_block(1), full[32:64])

    def test_read_block_before_write_raises(self):
        with pytest.raises(RuntimeError):
            Frsz2Accessor(10).read_block(0)

    def test_ablation_kwargs(self):
        acc = Frsz2Accessor(64, bit_length=16, block_size=8, rounding=True)
        assert acc.codec.block_size == 8 and acc.codec.rounding


class TestRoundTripAccessor:
    def test_injects_compressor_error(self):
        x = krylov_vector()
        comp = make_compressor("sz3_06")
        acc = RoundTripAccessor(x.size, comp, "sz3_06")
        acc.write(x)
        out = acc.read()
        assert not np.array_equal(out, x)  # lossy
        assert np.abs(out - x).max() <= 1e-6 * (1 + 1e-9)

    def test_stored_nbytes_is_compressed_size(self):
        x = krylov_vector()
        comp = make_compressor("zfp_fr_16")
        acc = RoundTripAccessor(x.size, comp, "zfp_fr_16")
        acc.write(x)
        assert acc.bits_per_value == pytest.approx(16.0, abs=0.6)

    def test_reads_are_stable(self):
        x = krylov_vector()
        acc = RoundTripAccessor(x.size, make_compressor("sz3_07"), "sz3_07")
        acc.write(x)
        assert np.array_equal(acc.read(), acc.read())


def _dense(kind, n):
    if kind == "roundtrip":
        return RoundTripAccessor(n, make_compressor("sz3_06"), "sz3_06")
    return make_accessor(kind, n)


def _reads(acc, i0=16, i1=48):
    """Every read of a dense slot, as raw bytes."""
    return [a.view(np.uint64).tolist() for a in (
        acc.read(), acc.read_tile(i0, i1), acc.read_into(np.empty(acc.n)))]


class TestDenseSlotContract:
    """A dense slot keeps its storage across clears: ``clear`` allocates
    nothing, a cleared or never-written slot reads as zeros through every
    read, and a later write reads as it would on a fresh slot."""

    n = 64

    @pytest.mark.parametrize("kind", ["float64", "float32", "float16", "roundtrip"])
    def test_cleared_slot_reads_zeros_and_writes_as_fresh(self, kind):
        x, y = krylov_vector(self.n, seed=1), krylov_vector(self.n, seed=2)
        zeros = _reads(_dense("float64", self.n))
        acc = _dense(kind, self.n)
        assert _reads(acc) == zeros  # never written
        acc.write(x)
        assert _reads(acc) != zeros
        acc.clear()
        assert _reads(acc) == zeros
        acc.write(y)
        fresh = _dense(kind, self.n)
        fresh.write(y)
        assert _reads(acc) == _reads(fresh)

    def test_float64_keeps_one_buffer(self):
        acc = Float64Accessor(self.n)
        acc.write(krylov_vector(self.n, seed=1))
        buffer = acc._data
        acc.clear()
        y = krylov_vector(self.n, seed=2)
        acc.write(y)
        assert acc._data is buffer and np.array_equal(acc.read(), y)
        y[0] = 7.0  # the write copied: the caller's array is not the slot
        assert acc.read()[0] != 7.0

    def test_float64_read_into_equals_read(self):
        acc = Float64Accessor(self.n)
        acc.write(krylov_vector(self.n))
        out = acc.read_into(np.full(self.n, np.nan))
        assert out.view(np.uint64).tolist() == acc.read().view(np.uint64).tolist()
        with pytest.raises(ValueError):
            acc.read_into(np.empty(self.n, dtype=np.float32))

    def test_refused_float32_write_keeps_previous_value(self):
        x = krylov_vector(self.n)
        acc = Float32Accessor(self.n)
        acc.write(x)
        before = _reads(acc)
        with pytest.raises(OverflowError):
            acc.write(np.full(self.n, 1e200))
        assert _reads(acc) == before

    def test_payload_bitflip_reaches_a_float64_slot(self):
        from repro.robust import FaultInjector, FaultyAccessor

        x = krylov_vector(self.n)
        acc = FaultyAccessor(Float64Accessor(self.n), FaultInjector(1.0, 5),
                             "payload_bitflip")
        acc.write(x)
        seen = acc.read()
        flipped = seen.view(np.uint64) ^ x.view(np.uint64)
        assert sum(bin(int(word)).count("1") for word in flipped) == 1
        # the bit flipped where the slot stores it: every read sees it
        twin = Float64Accessor(self.n)
        twin.write(seen)
        assert _reads(acc.inner) == _reads(twin)


class TestTrafficAccounting:
    """Stored bytes are billed as ``accessor.*`` counters of the tracer
    an accessor is given, and to nothing without one."""

    def test_write_and_read_counted(self):
        x = krylov_vector(320)
        acc = Frsz2Accessor(320, bit_length=32)
        acc.write(x)  # untraced: billed nowhere
        tracer = Tracer()
        acc.set_tracer(tracer)
        acc.write(x)
        acc.read()
        acc.read()
        expected = acc.stored_nbytes()
        counters = {k: v for k, v in tracer.counters.items()
                    if k.startswith("accessor.")}
        assert counters == {
            "accessor.writes": 1, "accessor.bytes_written": expected,
            "accessor.reads": 2, "accessor.bytes_read": 2 * expected,
        }

    def test_traffic_reflects_storage_format(self):
        x = krylov_vector(1000)
        written = []
        for acc in (Float64Accessor(1000), Float16Accessor(1000)):
            tracer = Tracer()
            acc.set_tracer(tracer)
            acc.write(x)
            written.append(tracer.counters["accessor.bytes_written"])
        assert written[0] == 4 * written[1]


class TestRegistry:
    def test_list_contains_all_families(self):
        names = list_storage_formats()
        for required in ("float64", "float32", "float16", "frsz2_32", "sz3_08", "zfp_fr_32"):
            assert required in names

    @pytest.mark.parametrize("name", ["float64", "float32", "float16", "frsz2_16", "frsz2_32"])
    def test_make_accessor_native(self, name):
        acc = make_accessor(name, 64)
        x = krylov_vector(64)
        acc.write(x)
        assert acc.read().shape == (64,)
        assert acc.name == name

    def test_make_accessor_roundtrip_format(self):
        acc = make_accessor("zfp_fr_32", 100)
        assert isinstance(acc, RoundTripAccessor)

    def test_unknown_format_raises(self):
        with pytest.raises(KeyError):
            make_accessor("float128", 10)

    def test_factory_validates_eagerly(self):
        with pytest.raises(KeyError):
            accessor_factory("bogus")
        f = accessor_factory("frsz2_32")
        assert f("frsz2_32", 10).n == 10

    def test_factory_forwards_kwargs(self):
        f = accessor_factory("frsz2_32", block_size=16)
        assert f("frsz2_32", 32).codec.block_size == 16
