"""Unit, integration and property tests for the vectorized FRSZ2 codec."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import FRSZ2, reference
from repro.core.frsz2 import _read_fields_numpy
from repro.core.ieee754 import effective_biased_exponent, significand53, to_bits

finite_doubles = st.floats(
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=True,
    width=64,
)

krylov_like = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def block_emax(x):
    bits = to_bits(np.asarray(x, dtype=np.float64))
    e = effective_biased_exponent(bits).astype(np.int64)
    e = np.where(significand53(bits) == 0, 1, e)
    return int(e.max()) if x.size else 1


class TestConstruction:
    @pytest.mark.parametrize("l", [1, 0, 65, -3])
    def test_invalid_bit_length(self, l):
        with pytest.raises(ValueError):
            FRSZ2(bit_length=l)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            FRSZ2(block_size=0)

    def test_defaults_match_paper_recommendation(self):
        codec = FRSZ2()
        assert codec.bit_length == 32
        assert codec.block_size == 32
        assert codec.rounding is False


class TestCompressBasics:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FRSZ2().compress(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            FRSZ2().compress(np.array([np.inf]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            FRSZ2().compress(np.ones((2, 2)))

    def test_accepts_non_float64_input_by_casting(self):
        c = FRSZ2().compress(np.array([1, 2, 3], dtype=np.int64))
        assert np.array_equal(FRSZ2().decompress(c), [1.0, 2.0, 3.0])

    def test_empty_array(self):
        codec = FRSZ2()
        c = codec.compress(np.zeros(0))
        assert c.n == 0
        assert codec.decompress(c).size == 0

    def test_storage_size_matches_eq3(self):
        codec = FRSZ2(bit_length=21)
        c = codec.compress(np.random.default_rng(0).standard_normal(1000))
        assert c.nbytes == c.layout.total_nbytes
        assert c.payload.nbytes == c.layout.value_nbytes
        assert c.exponents.nbytes == c.layout.exponent_nbytes

    def test_bits_per_value_frsz2_32(self):
        c = FRSZ2(32).compress(np.ones(32 * 10))
        assert c.bits_per_value == pytest.approx(33.0)

    def test_exponent_stream_one_per_block(self):
        c = FRSZ2().compress(np.ones(100))
        assert c.exponents.shape == (4,)  # ceil(100/32)
        assert c.exponents.dtype == np.int32


class TestExactCases:
    def test_powers_of_two_roundtrip_exactly(self):
        x = 2.0 ** np.arange(-10, 11, dtype=np.float64)
        codec = FRSZ2(bit_length=32, block_size=32)
        assert np.array_equal(codec.roundtrip(x), x)

    def test_uniform_exponent_block_preserves_31_bits(self):
        # values in [1, 2): all share exponent, 30 fraction bits survive
        rng = np.random.default_rng(1)
        x = 1.0 + rng.random(320)
        y = FRSZ2(32).roundtrip(x)
        assert np.abs(x - y).max() < 2.0 ** -29

    def test_values_representable_in_field_are_exact(self):
        # multiples of 2^-20 in [-2, 2) fit easily in a 32-bit field
        rng = np.random.default_rng(2)
        x = rng.integers(-(2 << 20), 2 << 20, 500) * 2.0 ** -20
        assert np.array_equal(FRSZ2(32).roundtrip(x), x)

    def test_zeros_roundtrip(self):
        x = np.zeros(64)
        assert np.array_equal(FRSZ2().roundtrip(x), x)

    def test_signed_zero_preserved(self):
        x = np.array([-0.0, 0.0])
        y = FRSZ2().roundtrip(x)
        assert np.signbit(y[0]) and not np.signbit(y[1])

    def test_all_same_value_block(self):
        x = np.full(32, 0.3)
        y = FRSZ2(32).roundtrip(x)
        assert np.abs(x - y).max() < 2.0 ** -31

    def test_subnormal_inputs_flush_or_stay_tiny(self):
        x = np.array([5e-324, 1e-310, 0.0, 2e-308])
        y = FRSZ2(32).roundtrip(x)
        assert np.all(np.abs(y) <= np.abs(x))  # truncation never grows magnitude
        assert np.all(np.isfinite(y))


class TestErrorBound:
    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_block_error_bound_random_data(self, l):
        rng = np.random.default_rng(l)
        x = rng.standard_normal(4096)
        codec = FRSZ2(bit_length=l)
        y = codec.roundtrip(x)
        err = np.abs(x - y)
        for b in range(codec.layout_for(x.size).num_blocks):
            sl = slice(b * 32, (b + 1) * 32)
            bound = codec.max_block_error_bound(block_emax(x[sl]))
            assert err[sl].max() < bound

    def test_truncation_never_increases_magnitude(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(2048) * 10.0 ** rng.integers(-8, 8, 2048)
        y = FRSZ2(32).roundtrip(x)
        assert np.all(np.abs(y) <= np.abs(x))
        assert np.all((y == 0) | (np.sign(y) == np.sign(x)))

    def test_rounding_halves_worst_case_error(self):
        rng = np.random.default_rng(4)
        x = 1.0 + rng.random(32 * 64)  # uniform exponent: clean comparison
        trunc = np.abs(FRSZ2(16).roundtrip(x) - x).max()
        rnd = np.abs(FRSZ2(16, rounding=True).roundtrip(x) - x).max()
        assert rnd <= trunc / 1.9

    def test_rounding_carry_clamped_not_sign_corrupted(self):
        # value just below a power of two rounds up; must not flip sign
        x = np.full(32, np.nextafter(2.0, 0.0))
        y = FRSZ2(16, rounding=True).roundtrip(x)
        assert np.all(y > 0)
        assert np.all(np.abs(y - x) < 2.0 ** -13)

    def test_wide_exponent_range_in_block_loses_small_values(self):
        # the PR02R failure mode (paper Section VI-A, Fig. 10): one huge
        # value forces small values' significands out of the field
        x = np.array([1e30] + [1e-10] * 31)
        y = FRSZ2(32).roundtrip(x)
        assert y[0] == pytest.approx(1e30, rel=1e-6)
        assert np.all(y[1:] == 0.0)


class TestAgainstReference:
    @pytest.mark.parametrize("l", [16, 21, 32, 11, 54])
    def test_fields_match_reference(self, l):
        rng = np.random.default_rng(l * 7)
        x = rng.standard_normal(96) * 10.0 ** rng.integers(-5, 5, 96)
        codec = FRSZ2(bit_length=l)
        comp = codec.compress(x)
        for b in range(3):
            blk = x[b * 32 : (b + 1) * 32]
            e_ref, c_ref = reference.compress_block(blk.tolist(), l)
            assert comp.exponents[b] == e_ref
            got = _read_fields_numpy(comp, np.arange(b * 32, (b + 1) * 32))
            assert got.tolist() == c_ref

    @pytest.mark.parametrize("l", [16, 21, 32, 11, 54])
    def test_decompress_matches_reference(self, l):
        rng = np.random.default_rng(l * 13)
        x = rng.standard_normal(96) * 10.0 ** rng.integers(-12, 12, 96)
        codec = FRSZ2(bit_length=l)
        y = codec.roundtrip(x)
        for b in range(3):
            blk = x[b * 32 : (b + 1) * 32]
            e_ref, c_ref = reference.compress_block(blk.tolist(), l)
            d_ref = reference.decompress_block(e_ref, c_ref, l)
            assert y[b * 32 : (b + 1) * 32].tolist() == d_ref

    @given(
        st.lists(krylov_like, min_size=1, max_size=40),
        st.sampled_from([16, 21, 32]),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_reference_krylov_range(self, vals, l):
        x = np.array(vals, dtype=np.float64)
        codec = FRSZ2(bit_length=l, block_size=8)
        y = codec.roundtrip(x)
        nb = -(-x.size // 8)
        expect = []
        for b in range(nb):
            blk = x[b * 8 : (b + 1) * 8]
            e_ref, c_ref = reference.compress_block(blk.tolist(), l)
            expect.extend(reference.decompress_block(e_ref, c_ref, l))
        assert y.tolist() == expect

    @given(st.lists(finite_doubles, min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_reference_full_range(self, vals):
        x = np.array(vals, dtype=np.float64)
        codec = FRSZ2(bit_length=32, block_size=4)
        y = codec.roundtrip(x)
        nb = -(-x.size // 4)
        expect = []
        for b in range(nb):
            blk = x[b * 4 : (b + 1) * 4]
            e_ref, c_ref = reference.compress_block(blk.tolist(), 32)
            expect.extend(reference.decompress_block(e_ref, c_ref, 32))
        got = y.tolist()
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g == e or (g == 0.0 and e == 0.0)


class TestRandomAccess:
    def test_get_matches_full_decompress(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1000)
        codec = FRSZ2(bit_length=21)
        comp = codec.compress(x)
        full = codec.decompress(comp)
        idx = rng.integers(0, 1000, 200)
        assert np.array_equal(codec.get(comp, idx), full[idx])

    def test_get_scalar(self):
        x = np.linspace(-1, 1, 100)
        codec = FRSZ2()
        comp = codec.compress(x)
        assert codec.get(comp, 42) == codec.decompress(comp)[42]

    def test_get_out_of_range_raises(self):
        comp = FRSZ2().compress(np.ones(10))
        with pytest.raises(IndexError):
            FRSZ2().get(comp, 10)
        with pytest.raises(IndexError):
            FRSZ2().get(comp, -1)

    def test_decompress_block_matches_slices(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        codec = FRSZ2()
        comp = codec.compress(x)
        full = codec.decompress(comp)
        for b in range(comp.layout.num_blocks):
            blk = codec.decompress_block(comp, b)
            assert np.array_equal(blk, full[b * 32 : (b + 1) * 32])

    def test_decompress_out_parameter(self):
        x = np.linspace(0, 1, 50)
        codec = FRSZ2()
        comp = codec.compress(x)
        out = np.empty(50)
        ret = codec.decompress(comp, out=out)
        assert ret is out
        assert np.array_equal(out, codec.decompress(comp))

    def test_decompress_out_wrong_shape_raises(self):
        comp = FRSZ2().compress(np.ones(10))
        with pytest.raises(ValueError):
            FRSZ2().decompress(comp, out=np.empty(11))


class TestIdempotence:
    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_roundtrip_is_projection(self, l):
        """Decompressed values re-compress to themselves exactly."""
        rng = np.random.default_rng(l)
        x = rng.standard_normal(500)
        codec = FRSZ2(bit_length=l)
        once = codec.roundtrip(x)
        twice = codec.roundtrip(once)
        assert np.array_equal(once, twice)

    @given(st.lists(krylov_like, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_projection_property(self, vals):
        x = np.array(vals)
        codec = FRSZ2(bit_length=21, block_size=16)
        once = codec.roundtrip(x)
        assert np.array_equal(once, codec.roundtrip(once))


class TestBlockSizes:
    @pytest.mark.parametrize("bs", [1, 2, 7, 16, 32, 64, 128])
    def test_roundtrip_various_block_sizes(self, bs):
        rng = np.random.default_rng(bs)
        x = rng.standard_normal(333)
        codec = FRSZ2(bit_length=32, block_size=bs)
        y = codec.roundtrip(x)
        assert np.abs(x - y).max() < 1e-6

    def test_smaller_blocks_are_more_accurate_on_varied_data(self):
        """Smaller blocks -> tighter shared exponents -> less error."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal(4096) * 10.0 ** rng.integers(-4, 4, 4096)
        err = {}
        for bs in (4, 32, 256):
            y = FRSZ2(bit_length=16, block_size=bs).roundtrip(x)
            nz = x != 0
            err[bs] = np.median(np.abs((x - y))[nz] / np.abs(x)[nz])
        assert err[4] <= err[32] <= err[256]

    def test_partial_last_block(self):
        x = np.linspace(-1, 1, 33)  # 32 + 1
        y = FRSZ2().roundtrip(x)
        assert np.abs(x - y).max() < 1e-8


class TestBitLengthMonotonicity:
    def test_more_bits_never_worse(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(2048)
        errs = []
        for l in (12, 16, 21, 24, 32, 40):
            errs.append(np.abs(FRSZ2(bit_length=l).roundtrip(x) - x).max())
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_frsz2_32_beats_float32_on_shared_exponent_blocks(self):
        """The paper's key accuracy claim: with the exponent externalized,
        frsz2_32 keeps ~30 fraction bits vs float32's 23 (Section VI-A)."""
        rng = np.random.default_rng(10)
        # Krylov-like: normalized vector, neighbouring values similar scale
        x = rng.standard_normal(32 * 256)
        x /= np.linalg.norm(x)
        frsz2_err = np.abs(FRSZ2(32).roundtrip(x) - x)
        f32_err = np.abs(x.astype(np.float32).astype(np.float64) - x)
        assert np.median(frsz2_err) < np.median(f32_err)


class TestRoundingShiftClamp:
    """Regression tests for the rounding addend's shift clamp.

    ``_encode_fields`` used to form the round-to-nearest addend as
    ``1 << (shift - 1)`` without an upper clamp.  For a value far enough
    below its block's maximum the shift exceeds the significand width:

    * ``shift == 64``: the addend ``2^63`` is still representable, but
      the down-shift is clamped to 63, so the addend survived as a
      spurious significand bit — deterministically wrong on every
      platform (the value decoded as one grid ulp instead of 0);
    * ``shift >= 65``: ``shift - 1`` reaches 64, which is undefined for
      uint64 and wraps to ``shift % 64`` on x86, resurrecting fully
      truncated values as garbage.

    The fix zeroes the addend once the value truncates away entirely
    (``shift > 54``; the 53-bit significand cannot round further than
    one position past its own width).
    """

    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_shift_64_flushes_to_zero(self, l):
        # second value sits exactly shift == 64 below the block max
        codec = FRSZ2(bit_length=l, rounding=True)
        x = np.array([1.0, 2.0 ** -(10 + l)])
        out = codec.roundtrip(x)
        assert out[0] == 1.0
        assert out[1] == 0.0

    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_undefined_shift_region_flushes_to_zero(self, l):
        # shift - 1 in {64, 127}: the formerly undefined uint64 shifts
        codec = FRSZ2(bit_length=l, rounding=True)
        for extra in (11, 74):  # shift = 65 and shift = 128
            x = np.array([1.0, 2.0 ** -(extra + l)])
            out = codec.roundtrip(x)
            assert out[1] == 0.0, f"l={l}, shift={54 + extra + l - 54}"

    @pytest.mark.parametrize("l", [16, 21, 32])
    def test_extreme_dynamic_range_respects_error_bound(self, l):
        # one full block spanning ~600 binades, signs mixed, with zeros:
        # every decoded value must stay within the block's a-priori
        # truncation bound, and everything below the grid must flush
        rng = np.random.default_rng(l)
        exponents = rng.integers(-300, 301, 32)
        x = rng.choice([-1.0, 1.0], 32) * (1.0 + rng.random(32)) * (
            2.0 ** exponents.astype(np.float64)
        )
        x[::11] = 0.0
        codec = FRSZ2(bit_length=l, rounding=True)
        out = codec.roundtrip(x)
        assert np.all(np.isfinite(out))
        bound = codec.max_block_error_bound(block_emax(x))
        assert np.abs(out - x).max() <= bound
        grid = bound / 2.0  # rounding: anything below half a grid ulp dies
        assert np.all(out[np.abs(x) < grid * 0.99] == 0.0)

    @pytest.mark.parametrize("l", [16, 21, 32])
    @given(small_exp=st.integers(min_value=-1074, max_value=-60))
    @settings(max_examples=40, deadline=None)
    def test_any_fully_truncated_value_decodes_to_zero(self, l, small_exp):
        codec = FRSZ2(bit_length=l, rounding=True)
        x = np.array([1.0, 2.0 ** small_exp])
        out = codec.roundtrip(x)
        assert out[1] == 0.0
