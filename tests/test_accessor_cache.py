"""No-stale-read and batch-codec equivalence tests.

The accessor's one law: any interleaving of ``write`` / ``read`` /
``read_block`` / ``clear`` on a :class:`Frsz2Accessor` returns exactly
what the codec decodes from the payload stored *at that moment* — the
accessor holds no decoded copy that could outlive a rewrite, a clear or
an out-of-band bit flip.  The batch codec entry points obey the
analogous law against their per-vector / per-block counterparts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessor import Frsz2Accessor
from repro.core import FRSZ2

#: lengths straddling block boundaries for BS=32 (partial/full/multi)
BOUNDARY_SIZES = [1, 31, 32, 33, 63, 64, 65, 100, 257]


def vec(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestCacheWriteFuzz:
    """Hypothesis: interleaved ops match a fresh codec decode exactly."""

    @given(
        n=st.sampled_from(BOUNDARY_SIZES),
        bit_length=st.sampled_from([16, 21, 32]),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(0, 2**31 - 1)),
                st.tuples(st.just("read"), st.just(0)),
                st.tuples(st.just("read_block"), st.integers(0, 2**31 - 1)),
                st.tuples(st.just("clear"), st.just(0)),
            ),
            min_size=1,
            max_size=14,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_ops_bit_identical(self, n, bit_length, ops):
        acc = Frsz2Accessor(n, bit_length=bit_length)
        codec = FRSZ2(bit_length=bit_length)
        nb = codec.layout_for(n).num_blocks
        stored = None  # reference: what the last write/clear left behind
        for op, arg in ops:
            if op == "write":
                x = vec(n, seed=arg)
                acc.write(x)
                stored = codec.compress(x)
            elif op == "clear":
                acc.clear()
                stored = None
            elif op == "read":
                got = acc.read()
                want = np.zeros(n) if stored is None else codec.decompress(stored)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes()
            elif op == "read_block" and stored is not None:
                block = arg % nb
                got = acc.read_block(block)
                assert got.tobytes() == codec.decompress_block(stored, block).tobytes()

    @given(n=st.sampled_from(BOUNDARY_SIZES), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_cached_reread_identical(self, n, seed):
        """A second read equals the first, byte for byte."""
        acc = Frsz2Accessor(n)
        acc.write(vec(n, seed))
        assert acc.read().tobytes() == acc.read().tobytes()


class TestCacheSemantics:
    def test_returned_arrays_are_safe_copies(self):
        """Mutating a read result must not poison later reads."""
        acc = Frsz2Accessor(64)
        acc.write(vec(64))
        out = acc.read()
        expected = out.copy()
        out[:] = 99.0
        assert np.array_equal(acc.read(), expected)
        blk = acc.read_block(0)
        blk_expected = blk.copy()
        blk[:] = -1.0
        assert np.array_equal(acc.read_block(0), blk_expected)

    def test_write_invalidates_cache(self):
        """A rewrite or a clear is what the very next read sees."""
        acc = Frsz2Accessor(64)
        acc.write(vec(64, seed=1))
        first = acc.read()
        acc.write(vec(64, seed=2))
        second = acc.read()
        assert second.tobytes() != first.tobytes()
        assert np.array_equal(second, acc.codec.decompress(acc.compressed))
        assert np.array_equal(acc.read_block(1), second[32:])
        acc.clear()
        assert np.array_equal(acc.read(), np.zeros(64))
        with pytest.raises(RuntimeError):
            acc.read_block(0)

    def test_out_of_band_flip_is_visible_without_invalidate(self):
        """The fault injectors flip stored bits behind the accessor's
        back; the next read must decode the flipped payload, with no
        call in between to tell the accessor about it."""
        for n in (64, 8192):
            acc = Frsz2Accessor(n)
            acc.write(np.ones(n))
            before = acc.read()
            before_block = acc.read_block(0)
            acc.compressed.payload[0] ^= acc.compressed.payload.dtype.type(1)
            after = acc.read()
            assert after.tobytes() != before.tobytes()
            assert np.array_equal(after, acc.codec.decompress(acc.compressed))
            after_block = acc.read_block(0)
            assert after_block.tobytes() != before_block.tobytes()
            assert np.array_equal(after_block, after[:32])
            assert np.array_equal(acc.read_into(np.empty(n)), after)
            assert np.array_equal(acc.read_tile(0, 32), after[:32])


class TestBatchCodec:
    """Batch entry points are bit-identical to their scalar counterparts."""

    @pytest.mark.parametrize("bit_length", [16, 21, 32])
    @pytest.mark.parametrize("rounding", [False, True])
    def test_compress_batch_matches_per_vector(self, bit_length, rounding):
        codec = FRSZ2(bit_length=bit_length, rounding=rounding)
        for n in BOUNDARY_SIZES:
            xs = [vec(n, seed=s) for s in range(3)]
            batch = codec.compress_batch(xs)
            for x, comp in zip(xs, batch):
                ref = codec.compress(x)
                assert comp.n == ref.n
                assert np.array_equal(comp.exponents, ref.exponents)
                assert np.array_equal(comp.payload, ref.payload)

    @pytest.mark.parametrize("bit_length", [16, 21, 32])
    def test_decompress_blocks_matches_per_block(self, bit_length):
        codec = FRSZ2(bit_length=bit_length)
        for n in [33, 100, 257]:
            comp = codec.compress(vec(n, seed=n))
            nb = comp.layout.num_blocks
            blocks = list(range(nb - 1, -1, -1))  # arbitrary order
            outs = codec.decompress_blocks(comp, blocks)
            for block, out in zip(blocks, outs):
                assert out.tobytes() == codec.decompress_block(comp, block).tobytes()

    def test_compress_batch_rejects_mixed_lengths(self):
        codec = FRSZ2()
        with pytest.raises(ValueError):
            codec.compress_batch([np.ones(10), np.ones(11)])

    def test_compress_batch_empty(self):
        assert FRSZ2().compress_batch([]) == []

    @staticmethod
    def _transient_encode_bytes(codec, nrhs, n):
        """Peak scratch above the retained outputs for one batch encode."""
        import gc
        import tracemalloc

        xs = [vec(n, seed=s) for s in range(nrhs)]
        gc.collect()
        tracemalloc.start()
        comps = codec.compress_batch(xs)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(comps) == nrhs
        return peak - current

    def test_compress_batch_staging_bounded_in_batch_size(self):
        # regression: the batch encoder used to stage the whole batch as
        # one dense (B, padded) float64 block, so transient memory grew
        # linearly with B.  The chunked encoder's staging is bounded by
        # the chunk size: an 8x wider batch must not need meaningfully
        # more scratch (dense staging would show ~8x here).
        codec = FRSZ2(bit_length=32)
        n = 1 << 16
        small = self._transient_encode_bytes(codec, 8, n)
        large = self._transient_encode_bytes(codec, 64, n)
        assert large <= small * 1.6 + (1 << 20), (small, large)
