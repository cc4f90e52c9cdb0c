"""Cross-cutting property-based tests over the whole stack.

These encode the *laws* the library's pieces must satisfy jointly:
compressor contracts, accessor semantics, solver invariants — beyond the
per-module tests.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accessor import make_accessor
from repro.compressors import ErrorBoundMode, list_compressors, make_compressor
from repro.core import FRSZ2, reference
from repro.solvers import CbGmres, GivensLeastSquares
from repro.sparse import COOMatrix

from .backends import BACKENDS

finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=150,
)

krylov_vec = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=150,
)


class TestCompressorContracts:
    """Laws every registered compressor must obey on any finite input."""

    @pytest.mark.parametrize("name", list_compressors())
    @given(vals=krylov_vec)
    @settings(max_examples=15, deadline=None)
    def test_shape_and_finiteness(self, name, vals):
        x = np.array(vals)
        comp = make_compressor(name)
        y = comp.roundtrip(x)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("name", ["sz3_06", "zfp_06", "cuszp_06"])
    @given(vals=finite_vec)
    @settings(max_examples=25, deadline=None)
    def test_absolute_bound_law(self, name, vals):
        x = np.array(vals)
        comp = make_compressor(name)
        y = comp.roundtrip(x)
        bound = float(comp.error_bound if hasattr(comp, "error_bound") else comp.tolerance)
        assert np.abs(y - x).max() <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["frsz2_16", "frsz2_32", "zfp_fr_16", "zfp_fr_32"])
    @given(vals=krylov_vec)
    @settings(max_examples=15, deadline=None)
    def test_fixed_rate_size_independent_of_values(self, name, vals):
        """A fixed-rate compressor's size depends only on n."""
        x = np.array(vals)
        comp = make_compressor(name)
        s1 = comp.compress(x).nbytes
        s2 = comp.compress(np.zeros_like(x)).nbytes
        assert s1 == s2

    # zfp_* is deliberately excluded: its floor-truncation in the
    # transform domain drifts by one grid step per round trip — the
    # reconstruction bias the paper blames for ZFP's slow convergence
    # (covered by tests/test_zfplike.py::TestBias)
    @pytest.mark.parametrize("name", ["sz3_06", "sz_pwrel_04", "cuszp_06", "frsz2_32"])
    @given(vals=krylov_vec)
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_idempotent(self, name, vals):
        """Lattice/fixed-point reconstructions are round-trip fixed points."""
        x = np.array(vals)
        comp = make_compressor(name)
        once = comp.roundtrip(x)
        twice = comp.roundtrip(once)
        assert np.array_equal(once, twice)


class TestAccessorLaws:
    @pytest.mark.parametrize(
        "name", ["float64", "float32", "float16", "frsz2_16", "frsz2_32", "zfp_fr_32"]
    )
    @given(vals=krylov_vec)
    @settings(max_examples=10, deadline=None)
    def test_read_is_stable(self, name, vals):
        """Reads never change the stored value (decompression is pure)."""
        x = np.array(vals)
        acc = make_accessor(name, x.size)
        acc.write(x)
        first = acc.read()
        for _ in range(3):
            assert np.array_equal(acc.read(), first)

    @pytest.mark.parametrize("name", ["float32", "frsz2_32"])
    @given(vals=krylov_vec)
    @settings(max_examples=10, deadline=None)
    def test_write_read_write_fixed_point(self, name, vals):
        """Writing back a read value reproduces it exactly."""
        x = np.array(vals)
        acc = make_accessor(name, x.size)
        acc.write(x)
        y = acc.read()
        acc.write(y)
        assert np.array_equal(acc.read(), y)


class TestFrsz2AlgebraicLaws:
    @given(vals=krylov_vec, scale_exp=st.integers(min_value=-30, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_scaling_by_powers_of_two_commutes(self, vals, scale_exp):
        """FRSZ2 is exponent-based: scaling input by 2^k scales output
        by 2^k exactly (no requantization), as long as nothing over- or
        underflows."""
        x = np.array(vals)
        # stay far from the subnormal underflow region, where the codec
        # flushes to zero and scaling no longer commutes
        assume(np.all((x == 0) | (np.abs(x) > 1e-200)))
        codec = FRSZ2(21, block_size=8)
        base = codec.roundtrip(x)
        scaled = codec.roundtrip(x * 2.0**scale_exp)
        assert np.array_equal(scaled, base * 2.0**scale_exp)

    @given(vals=krylov_vec)
    @settings(max_examples=60, deadline=None)
    def test_negation_symmetry(self, vals):
        """compress(-x) == -compress(x): the sign bit is independent."""
        x = np.array(vals)
        codec = FRSZ2(32)
        a = codec.roundtrip(x)
        b = codec.roundtrip(-x)
        assert np.array_equal(b, -a)

    @given(vals=krylov_vec, l1=st.sampled_from([12, 16, 21]), extra=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_refinement(self, vals, l1, extra):
        """More bits never increase any single value's error."""
        x = np.array(vals)
        lo = FRSZ2(l1).roundtrip(x)
        hi = FRSZ2(l1 + extra).roundtrip(x)
        assert np.all(np.abs(hi - x) <= np.abs(lo - x) + 0.0)


class TestSolverInvariants:
    def _system(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = np.eye(n) * (3 + rng.random(n)) + rng.standard_normal((n, n)) * 0.15
        rows, cols = np.nonzero(dense)
        a = COOMatrix((n, n), rows, cols, dense[rows, cols]).to_csr()
        return a, rng.standard_normal(n)

    @given(n=st.integers(min_value=3, max_value=40), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_implicit_residual_monotone_within_cycle(self, n, seed):
        a, b = self._system(n, seed)
        res = CbGmres(a, m=n).solve(b, 1e-13)
        rrns = [s.rrn for s in res.history if s.kind == "implicit"]
        assert all(x >= y - 1e-12 for x, y in zip(rrns, rrns[1:]))

    @given(n=st.integers(min_value=3, max_value=30), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_converged_solution_satisfies_target(self, n, seed):
        a, b = self._system(n, seed)
        target = 1e-10
        res = CbGmres(a, m=n).solve(b, target)
        assume(res.converged)
        rrn = np.linalg.norm(b - a.matvec(res.x)) / np.linalg.norm(b)
        assert rrn <= target * (1 + 1e-9)

    @given(n=st.integers(min_value=2, max_value=25), seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_solution_in_krylov_space_for_full_cycle(self, n, seed):
        """Unrestarted GMRES at m=n solves exactly (happy breakdown)."""
        a, b = self._system(n, seed)
        res = CbGmres(a, m=n, max_iter=n).solve(b, 1e-12)
        assert res.final_rrn < 1e-8

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_givens_residual_equals_true_lstsq_residual(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        beta = float(rng.random() + 0.1)
        lsq = GivensLeastSquares(m, beta)
        h_full = np.zeros((m + 1, m))
        for j in range(m):
            h = rng.standard_normal(j + 1)
            hn = float(np.abs(rng.standard_normal()) + 0.1)
            h_full[: j + 1, j] = h
            h_full[j + 1, j] = hn
            lsq.append_column(h, hn)
        rhs = np.zeros(m + 1)
        rhs[0] = beta
        y = lsq.solve()
        assert lsq.residual_norm == pytest.approx(
            float(np.linalg.norm(rhs - h_full @ y)), abs=1e-9
        )


class TestWideStraddleBitpack:
    """Property coverage for the >32-bit hi-chunk path of pack_at /
    unpack_at (widths 33..63 decompose into two 32-bit chunks, each of
    which can itself straddle a word boundary)."""

    @staticmethod
    def _layout(draw_gaps, width, values):
        """Bit positions packing ``values`` with per-field gaps."""
        positions = []
        pos = 0
        for gap in draw_gaps:
            pos += gap
            positions.append(pos)
            pos += width
        return np.array(positions, dtype=np.int64), pos

    @given(
        width=st.integers(min_value=33, max_value=63),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_wide_widths_at_arbitrary_offsets(self, width, data):
        from repro.core import bitpack

        n = data.draw(st.integers(min_value=1, max_value=24), label="n")
        gaps = data.draw(
            st.lists(st.integers(min_value=0, max_value=37), min_size=n, max_size=n),
            label="gaps",
        )
        fields = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=(1 << width) - 1),
                    min_size=n,
                    max_size=n,
                ),
                label="fields",
            ),
            dtype=np.uint64,
        )
        bitpos, total_bits = self._layout(gaps, width, fields)
        words = np.zeros(bitpack.words_needed(total_bits), dtype=np.uint32)
        bitpack.pack_at(words, bitpos, fields, width)
        assert np.array_equal(bitpack.unpack_at(words, bitpos, width), fields)

    @given(width=st.integers(min_value=33, max_value=63))
    @settings(max_examples=31, deadline=None)
    def test_all_ones_field_ending_flush_with_stream(self, width):
        """The worst case for the clamped straddle read: a saturated
        hi-chunk whose second word is the very last of the stream."""
        from repro.core import bitpack

        nwords = bitpack.words_needed(width + 13)
        bitpos = np.array([nwords * 32 - width], dtype=np.int64)
        fields = np.array([(1 << width) - 1], dtype=np.uint64)
        words = np.zeros(nwords, dtype=np.uint32)
        bitpack.pack_at(words, bitpos, fields, width)
        assert np.array_equal(bitpack.unpack_at(words, bitpos, width), fields)


class TestFrsz2RandomAccessLaw:
    """``FRSZ2.get`` on any index subset must agree exactly with the
    corresponding slice of a full ``decompress`` — the random-access-by-
    block property CB-GMRES relies on (paper Section IV-B)."""

    @given(
        l=st.sampled_from([16, 21, 32, 33, 48]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_get_matches_decompress_on_random_subsets(self, l, data):
        n = data.draw(st.integers(min_value=1, max_value=200), label="n")
        vals = data.draw(
            st.lists(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
            label="vals",
        )
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        idx = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=k,
                    max_size=k,
                ),
                label="idx",
            ),
            dtype=np.int64,
        )
        codec = FRSZ2(bit_length=l)
        comp = codec.compress(np.array(vals))
        full = codec.decompress(comp)
        got = codec.get(comp, idx)
        # bit-exact, including signed zeros
        assert np.array_equal(
            got.view(np.uint64), full[idx].view(np.uint64)
        )


# ----------------------------------------------------------------------
# codec truth: the block decoders against the scalar reference
# ----------------------------------------------------------------------

_LARGEST = 1.7976931348623157e308


def _regime_block(regime: str, bs: int, rng: np.random.Generator) -> np.ndarray:
    """One block of values from a named corner of the float64 range."""
    if regime == "zeros":
        return np.zeros(bs)
    if regime == "signed_zeros":
        return np.where(rng.random(bs) < 0.5, 0.0, -0.0)
    if regime == "subnormal":
        # e_max = 1 < l - 1 for every l > 2: the bit-assembly branch
        return rng.integers(-(1 << 52) + 1, 1 << 52, bs) * 5e-324
    if regime == "tiny":
        # normal, but e_max straddles l - 1 over l in 2..64
        return rng.standard_normal(bs) * np.exp2(
            rng.integers(-1022, -955, bs).astype(float)
        )
    if regime == "pr02r":
        # one block spanning the PR02R exponent range 2^-178 .. 2^36
        return rng.standard_normal(bs) * np.exp2(
            rng.integers(-178, 37, bs).astype(float)
        )
    x = rng.standard_normal(bs)
    if regime == "largest":
        # e_max = 2046, the largest exact scale
        x[rng.integers(bs)] = rng.choice([-_LARGEST, _LARGEST])
    x[rng.random(bs) < 0.1] = 0.0
    return x


_REGIMES = ["zeros", "signed_zeros", "subnormal", "tiny", "pr02r", "largest",
            "ordinary"]


class TestBlockDecodersAgainstScalarReference:
    """``decode_tile`` and the whole-container decode must reproduce
    :mod:`repro.core.reference` — the one-value-at-a-time oracle — as raw
    ``uint64``, on both sides of the C decoder's exact-scale split."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("l", range(2, 65))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_decoded_bits_equal_reference(self, backend, l, data):
        bs = data.draw(st.sampled_from([32, 5]), label="bs")
        rounding = data.draw(st.booleans(), label="rounding")
        regimes = data.draw(
            st.lists(st.sampled_from(_REGIMES), min_size=1, max_size=4),
            label="regimes",
        )
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1), label="seed")
        )
        tail = data.draw(st.integers(1, bs), label="tail")
        j = data.draw(st.integers(1, 3), label="j")
        n = (len(regimes) - 1) * bs + tail  # partial trailing block
        vectors = [
            np.concatenate([_regime_block(r, bs, rng) for r in regimes])[:n]
            for _ in range(j)
        ]
        expected = np.array([
            np.concatenate([
                reference.decompress_block(
                    *reference.compress_block(x[s:s + bs], l, rounding), l
                )
                for s in range(0, n, bs)
            ])
            for x in vectors
        ]).view(np.uint64)

        codec = FRSZ2(bit_length=l, block_size=bs, rounding=rounding,
                      backend=backend)
        assert codec.backend == backend
        comps = [codec.compress(x) for x in vectors]
        for comp, want in zip(comps, expected):
            assert np.array_equal(
                codec.decompress(comp).view(np.uint64), want
            )
        i0 = data.draw(st.integers(0, n), label="i0")
        i1 = data.draw(st.integers(i0, n), label="i1")
        out = np.full((j, i1 - i0 + 2), np.nan)  # ld > i1 - i0
        codec.decode_tile(comps, i0, i1, out)
        assert np.array_equal(
            out[:, :i1 - i0].view(np.uint64), expected[:, i0:i1]
        )
        assert np.isnan(out[:, i1 - i0:]).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_scale_boundary_blocks(self, backend):
        """Blocks whose ``e_max`` sits on either side of ``l - 1`` (the
        smallest exponent at which every nonzero value is normal) and at
        2046 (the largest finite scale), for every bit length."""
        rng = np.random.default_rng(7)
        bs = 32
        for l in range(2, 65):
            e_maxes = [e for e in (l - 2, l - 1, l, 2045, 2046) if e >= 1]
            blocks = []
            for e_max in e_maxes:
                drop = rng.integers(0, 70, bs)
                drop[0] = 0  # pins the block's maximum exponent
                mant = (1.0 + rng.random(bs)) * rng.choice([-1.0, 1.0], bs)
                blocks.append(np.ldexp(mant, e_max - 1023 - drop))
            x = np.concatenate(blocks)
            codec = FRSZ2(bit_length=l, block_size=bs, backend=backend)
            comp = codec.compress(x)
            assert comp.exponents.tolist() == e_maxes
            want = np.concatenate([
                reference.decompress_block(
                    *reference.compress_block(b, l), l
                )
                for b in blocks
            ]).view(np.uint64)
            out = np.empty((1, x.size))
            codec.decode_tile([comp], 0, x.size, out)
            assert np.array_equal(out[0].view(np.uint64), want), l
            assert np.array_equal(
                codec.decompress(comp).view(np.uint64), want
            ), l


# ----------------------------------------------------------------------
# codec truth: the encode against the scalar reference, as stored bytes
# ----------------------------------------------------------------------


class TestEncodeAgainstScalarReference:
    """The write-side twin of the class above: a container's ``payload``
    (dtype and bytes, Eq. 3 padding included) and ``exponents`` must be
    what :mod:`repro.core.reference` and Python's exact integers spell —
    on both backends, so under the C encode that stores each field at
    its stored width as it makes it."""

    @staticmethod
    def _stored(x, l, bs, rounding):
        """``(payload, exponents)`` of ``x`` from the one-value oracle."""
        e_maxes, slots, blob = [], [], b""
        words_per_block = -(-bs * l // 32)
        for s in range(0, x.size, bs):
            e_max, fields = reference.compress_block(x[s:s + bs], l, rounding)
            e_maxes.append(e_max)
            # aligned: one slot per value of a whole block
            slots += fields + [0] * (bs - len(fields))
            # straddling: the block's bit stream, little-endian, in words
            stream = sum(f << (k * l) for k, f in enumerate(fields))
            blob += stream.to_bytes(4 * words_per_block, "little")
        if l in (8, 16, 32, 64):
            payload = np.array(slots, dtype=f"u{l // 8}")
        else:
            payload = np.frombuffer(blob, dtype="<u4")
        return payload, np.array(e_maxes, dtype=np.int32)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("l", range(2, 65))
    def test_stored_bytes_equal_reference(self, backend, l):
        from repro.jit import selftest

        rng = np.random.default_rng(l)
        n = 203  # a partial trailing block for both block sizes
        # the engine's own hostile sample (signed zeros, subnormals, the
        # largest double in every full block: carries into the sign bit
        # under rounding), and blocks it does not dominate
        vectors = [selftest._sample_values(rng, n), selftest._sample_small(rng, n)]
        for bs in (32, 5):
            for rounding in (False, True):
                codec = FRSZ2(l, bs, rounding, backend=backend)
                assert codec.backend == backend
                for x in vectors:
                    payload, exponents = self._stored(x, l, bs, rounding)
                    comp = codec.compress(x)
                    tag = (bs, rounding)
                    assert comp.payload.dtype == payload.dtype, tag
                    assert comp.payload.tobytes() == payload.tobytes(), tag
                    assert comp.exponents.dtype == np.int32, tag
                    assert comp.exponents.tobytes() == exponents.tobytes(), tag

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_stays_a_named_error(self, backend, bad):
        for l in (32, 21):
            codec = FRSZ2(l, backend=backend)
            x = np.ones(100)
            x[70] = bad  # not in the first block
            with pytest.raises(ValueError, match="NaN or Inf"):
                codec.compress(x)
