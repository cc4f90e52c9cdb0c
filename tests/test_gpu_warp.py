"""Tests for the warp-level SIMT executor and its FRSZ2 kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FRSZ2
from repro.core.frsz2 import _read_fields_numpy
from repro.gpu.warp import (
    WARP_SIZE,
    Warp,
    measured_instruction_counts,
    warp_compress_block,
    warp_decompress_block,
)


class TestWarpPrimitives:
    def test_shfl_xor_butterfly(self):
        w = Warp()
        v = np.arange(32, dtype=np.int64)
        out = w.shfl_xor(v, 1)
        assert out[0] == 1 and out[1] == 0 and out[30] == 31 and out[31] == 30

    def test_shfl_broadcast(self):
        w = Warp()
        v = np.arange(32, dtype=np.int64)
        assert np.all(w.shfl(v, 7) == 7)

    def test_butterfly_reduction_computes_max(self):
        w = Warp()
        rng = np.random.default_rng(0)
        v = rng.integers(0, 1000, 32)
        m = v.copy()
        for mask in (16, 8, 4, 2, 1):
            m = w.maximum(m, w.shfl_xor(m, mask))
        assert np.all(m == v.max())
        assert w.counts["shuffle"] == 5

    def test_ballot(self):
        w = Warp()
        pred = np.zeros(32, dtype=bool)
        pred[0] = True
        pred[5] = True
        assert w.ballot(pred) == (1 | (1 << 5))

    def test_ballot_all(self):
        w = Warp()
        assert w.ballot(np.ones(32, dtype=bool)) == 0xFFFFFFFF

    def test_clz_counts_instructions(self):
        w = Warp()
        out = w.clz(np.full(32, 1, dtype=np.uint64), width=31)
        assert np.all(out == 30)
        assert w.counts["clz"] == 1

    def test_reinterpret_is_free(self):
        w = Warp()
        x = np.ones(32)
        bits = w.double_as_uint64(x)
        assert w.total_instructions == 0
        assert np.array_equal(w.uint64_as_double(bits), x)

    def test_reset(self):
        w = Warp()
        w.add(1, 2)
        w.reset()
        assert w.total_instructions == 0


class TestWarpKernelsMatchCodec:
    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_compress_bit_identical(self, l):
        rng = np.random.default_rng(l)
        x = rng.standard_normal(32) * 10.0 ** rng.integers(-8, 8, 32)
        codec = FRSZ2(l)
        comp = codec.compress(x)
        rep = warp_compress_block(x, l)
        assert rep.e_max == comp.exponents[0]
        assert np.array_equal(rep.output, _read_fields_numpy(comp, np.arange(32)))

    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_decompress_bit_identical(self, l):
        rng = np.random.default_rng(l + 100)
        x = rng.standard_normal(32)
        codec = FRSZ2(l)
        comp = codec.compress(x)
        crep = warp_compress_block(x, l)
        drep = warp_decompress_block(crep.e_max, crep.output, l)
        assert np.array_equal(drep.output, codec.decompress(comp))

    def test_zeros_block(self):
        rep = warp_compress_block(np.zeros(32), 32)
        out = warp_decompress_block(rep.e_max, rep.output, 32)
        assert np.array_equal(out.output, np.zeros(32))

    def test_signed_values(self):
        x = np.array([(-1.0) ** i * (i + 1) / 32 for i in range(32)])
        rep = warp_compress_block(x, 32)
        out = warp_decompress_block(rep.e_max, rep.output, 32).output
        assert np.all(np.sign(out) == np.sign(x))

    def test_rejects_wrong_lane_count(self):
        with pytest.raises(ValueError):
            warp_compress_block(np.zeros(16), 32)
        with pytest.raises(ValueError):
            warp_decompress_block(1023, np.zeros(16, dtype=np.uint64), 32)

    def test_rejects_nonfinite(self):
        x = np.zeros(32)
        x[3] = np.inf
        with pytest.raises(ValueError):
            warp_compress_block(x, 32)

    @given(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=32,
            max_size=32,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip_matches_codec(self, vals):
        x = np.array(vals)
        codec = FRSZ2(21)
        rep = warp_compress_block(x, 21)
        out = warp_decompress_block(rep.e_max, rep.output, 21).output
        assert np.array_equal(out, codec.roundtrip(x))


class TestInstructionBudget:
    def test_counts_fit_the_papers_budget(self):
        """Section I: ~46 spare operations per value at 32 stored bits.

        Both kernels must fit comfortably, or FRSZ2 could not hide
        behind the memory access."""
        comp, dec = measured_instruction_counts(32)
        assert dec <= 46
        assert comp <= 46

    def test_decompression_cheaper_than_compression(self):
        """Section IV-B: 'Decompression is an easier procedure'."""
        comp, dec = measured_instruction_counts(32)
        assert dec < comp

    def test_compress_uses_five_shuffles(self):
        rep = warp_compress_block(np.random.default_rng(1).standard_normal(32), 32)
        assert rep.counts["shuffle"] == 5

    def test_decompress_needs_no_shuffles(self):
        """Decompression requires no inter-thread communication, which is
        why it fits the Accessor interface (Section IV-C)."""
        crep = warp_compress_block(np.random.default_rng(2).standard_normal(32), 32)
        drep = warp_decompress_block(crep.e_max, crep.output, 32)
        assert drep.counts.get("shuffle", 0) == 0

    def test_decompress_uses_clz(self):
        crep = warp_compress_block(np.random.default_rng(3).standard_normal(32), 32)
        drep = warp_decompress_block(crep.e_max, crep.output, 32)
        assert drep.counts["clz"] == 1

    def test_counts_independent_of_data(self):
        """SIMT lockstep: no data-dependent branching in the kernels."""
        a = warp_compress_block(np.full(32, 0.5), 32)
        b = warp_compress_block(np.random.default_rng(4).standard_normal(32) * 1e8, 32)
        assert a.counts == b.counts
