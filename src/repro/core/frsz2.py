"""Vectorized FRSZ2 codec (the paper's core contribution, Section IV).

FRSZ2 is a fixed-rate block-floating-point compressor: ``BS`` consecutive
float64 values share the maximum biased exponent ``e_max`` of the block;
each value is stored as an ``l``-bit field holding the sign bit followed
by the significand normalised to ``e_max`` (Eq. 2).  The per-block
exponents live in a separate ``int32`` stream (Section IV-C opt. 5).

The NumPy implementation mirrors the CUDA kernels operation-for-operation:
reinterpret casts instead of ``__double_as_longlong``, vectorized
leading-zero counts instead of ``__clz``, and a block-wise max reduction
instead of warp shuffles.  Numerical results are bit-identical to the
GPU algorithm (validated against the scalar reference and the SIMT warp
executor in the test suite).

Two data paths exist, as in the paper (Section IV-C opt. 3):

* *aligned* (``l`` in {8, 16, 32, 64}): fields map 1:1 onto machine
  integers; packing is a cast.
* *straddling* (any other ``l``): fields are bit-packed into 32-bit words
  with each block starting word-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import bitpack, ieee754
from .blocks import DEFAULT_BLOCK_SIZE, BlockLayout
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER

__all__ = ["FRSZ2", "Frsz2Compressed"]

_U64 = np.uint64


@dataclass
class Frsz2Compressed:
    """An FRSZ2-compressed array.

    Attributes
    ----------
    layout:
        Block geometry and storage accounting (Eq. 3).
    exponents:
        One biased maximum exponent per block (``int32`` stream).
    payload:
        The compressed-value stream.  For aligned bit lengths this is a
        ``uint8/16/32/64`` array with one element per value slot; for
        straddling lengths it is the packed ``uint32`` word stream.
    """

    layout: BlockLayout
    exponents: np.ndarray
    payload: np.ndarray

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def nbytes(self) -> int:
        """Stored size in bytes per Eq. 3 (alignment included)."""
        return self.layout.total_nbytes

    @property
    def bits_per_value(self) -> float:
        return self.layout.bits_per_value


#: values per batched-decode chunk: large enough to amortize the
#: ~20-ufunc decode pipeline's Python overhead, small enough that its
#: elementwise temporaries (~a dozen 8-byte-per-value arrays) stay
#: cache-resident instead of streaming through DRAM
_DECODE_CHUNK_VALUES = 1 << 14


# ----------------------------------------------------------------------
# numpy reference kernels: the three `backend="numpy"` registry entries
# and the steps they are made of (which the tests' oracles import)
# ----------------------------------------------------------------------

def encode_fields_numpy(
    x: np.ndarray, bit_length: int, block_size: int, rounding: bool
) -> "tuple[np.ndarray, np.ndarray]":
    """Steps 1-5: per-value l-bit fields and per-block exponents."""
    l = bit_length
    bs = block_size
    n = x.size
    layout = BlockLayout(n, bs, l)
    bits = ieee754.to_bits(x)
    if np.any(ieee754.biased_exponent(bits) == ieee754.EXPONENT_MASK):
        raise ValueError("FRSZ2 does not support NaN or Inf inputs")
    sign = ieee754.sign_bit(bits)
    e_eff = ieee754.effective_biased_exponent(bits)
    sig53 = ieee754.significand53(bits)
    # Zeros must not raise the block exponent: give them the minimum.
    e_for_max = np.where(sig53 == 0, _U64(1), e_eff)

    # Step 1: block-wise maximum exponent. Pad to a full block grid.
    nb = layout.num_blocks
    pad = nb * bs - n
    if pad:
        e_for_max = np.concatenate([e_for_max, np.ones(pad, dtype=np.uint64)])
    e_max = e_for_max.reshape(nb, bs).max(axis=1)
    e_max_per_value = np.repeat(e_max, bs)[:n]

    # Steps 2-5: shift the 53-bit significand so its leading 1 lands at
    # field bit (l-2-k); the sign occupies field bit (l-1).
    k = e_max_per_value - e_eff
    shift = np.int64(54 - l) + k.astype(np.int64)
    if rounding:
        # Round to nearest: add half of the last kept bit before the
        # truncating down-shift.  The addend must be exactly 0 once
        # the value truncates away entirely (shift > 54: sig53 has
        # only 53 bits, so even the rounded result is 0).  The clip
        # also keeps the shift itself in [0, 63]: np.where evaluates
        # both branches, and a uint64 shift by >= 64 is undefined —
        # on x86 it wraps to ``shift % 64``, which resurrected
        # fully-truncated values as garbage significands.
        half_bit = np.clip(shift - 1, 0, 63).astype(np.uint64)
        rnd = np.where(
            (shift > 0) & (shift <= 54),
            _U64(1) << half_bit,
            _U64(0),
        )
        base = sig53 + rnd
    else:
        base = sig53
    pos_shift = np.minimum(np.maximum(shift, 0), 63).astype(np.uint64)
    neg_shift = np.minimum(np.maximum(-shift, 0), 63).astype(np.uint64)
    c_sig = (base >> pos_shift) << neg_shift
    if rounding:
        # A carry out of the significand field would corrupt the sign.
        limit = (_U64(1) << np.uint64(l - 1)) - _U64(1)
        c_sig = np.minimum(c_sig, limit)
    fields = (sign << np.uint64(l - 1)) | c_sig
    return fields, e_max.astype(np.int32)


def decode_fields_numpy(
    fields: np.ndarray, e_max_per_value: np.ndarray, bit_length: int
) -> np.ndarray:
    """Steps 2-4: fields + block exponents -> float64 values.

    Uses the bit-assembly route of the paper (count leading zeros,
    recover ``e = e_max - k``, merge s/e/mantissa).  Values whose
    reconstruction falls below the normal float64 range flush to
    (signed) zero, exactly as the CUDA kernel does.
    """
    l = bit_length
    sign = fields >> np.uint64(l - 1)
    sig_mask = (_U64(1) << np.uint64(l - 1)) - _U64(1)
    c_sig = fields & sig_mask
    hsb = ieee754.highest_set_bit(c_sig)  # -1 for zero fields
    k = np.int64(l - 2) - hsb
    e = e_max_per_value.astype(np.int64) - k
    nonzero = c_sig != 0
    normal = nonzero & (e >= 1)
    # Align the leading 1 to mantissa bit 52, then drop it.  For
    # l > 54 the field holds more fraction bits than a double's
    # mantissa; the excess is truncated (down-shift).
    up = np.clip(52 - hsb, 0, 63).astype(np.uint64)
    down = np.clip(hsb - 52, 0, 63).astype(np.uint64)
    sig53 = np.where(normal, (c_sig >> down) << up, _U64(0))
    mant = sig53 & ieee754.MANTISSA_MASK
    e_field = np.where(normal, e, 0).astype(np.uint64)
    return ieee754.assemble(sign, e_field, mant)


def _read_fields_numpy(comp: "Frsz2Compressed", indices: np.ndarray) -> np.ndarray:
    if comp.layout.is_aligned:
        return comp.payload[indices].astype(np.uint64)
    bitpos = comp.layout.value_bit_position(indices)[1]
    return bitpack.unpack_at(comp.payload, bitpos, comp.layout.bit_length)


def pack_stream_numpy(fields: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Straddling-path payload build (blocks word-aligned)."""
    payload = np.zeros(layout.value_words, dtype=np.uint32)
    bitpos = layout.value_bit_position(np.arange(fields.size, dtype=np.int64))[1]
    bitpack.pack_at(payload, bitpos, fields, layout.bit_length)
    return payload


@_dispatch.register("frsz2.encode", "numpy")
def encode_numpy(
    x: np.ndarray, layout: BlockLayout, rounding: bool
) -> "tuple[np.ndarray, np.ndarray]":
    """Steps 1-6: ``x`` as the stored payload (in its stored dtype, the
    Eq. 3 padding zero) and the ``int32`` block exponents of ``layout``."""
    fields, exponents = encode_fields_numpy(
        x, layout.bit_length, layout.block_size, rounding
    )
    if not layout.is_aligned:
        return pack_stream_numpy(fields, layout), exponents
    payload = np.zeros(layout.payload_size, dtype=layout.payload_dtype)
    payload[: fields.size] = fields  # fields are < 2**l: the cast is exact
    return payload, exponents


@_dispatch.register("frsz2.decode_gather", "numpy")
def decode_gather_numpy(comp: "Frsz2Compressed", indices: np.ndarray) -> np.ndarray:
    """Positional decode of one (checked) container."""
    comp.layout.check_arrays(comp.payload, comp.exponents)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= comp.n):
        raise IndexError(f"index out of range for {comp.n} stored values")
    fields = _read_fields_numpy(comp, indices)
    e_max = comp.exponents.astype(np.int64)[indices // comp.layout.block_size]
    return decode_fields_numpy(fields, e_max, comp.layout.bit_length)


@_dispatch.register("frsz2.decode_tile", "numpy")
def decode_tile_numpy(comps: "Sequence[Frsz2Compressed]"):
    """Window decoder over same-layout containers (the reference pass).

    Returns ``kernel(i0, i1, out)``, which writes values ``[i0, i1)`` of
    container ``r`` into ``out[r, :i1 - i0]`` — the contract the jit
    engine's pointer table (:class:`repro.jit.cbackend.TileTable`)
    replays in one C call per window.  The decode pipeline allocates
    ~a dozen elementwise temporaries spanning its input, so one giant
    pass over a large window would stream through DRAM instead of
    cache; the (bitwise order-independent) transform is therefore split
    into cache-resident passes — chunks of one container for long
    windows, groups of whole containers for short ones — and every
    value stays bit-identical to a solo :meth:`FRSZ2.decompress`.
    """
    layout = comps[0].layout
    bs, l = layout.block_size, layout.bit_length
    for c in comps:
        layout.check_arrays(c.payload, c.exponents)

    def kernel(i0: int, i1: int, out: np.ndarray) -> None:
        m = i1 - i0
        step = min(m, _DECODE_CHUNK_VALUES)
        group = max(1, _DECODE_CHUNK_VALUES // m)
        for s in range(i0, i1, step):
            flat = np.arange(s, min(s + step, i1), dtype=np.int64)
            e_block = flat // bs
            for g in range(0, len(comps), group):
                rows = comps[g:g + group]
                fields = np.concatenate(
                    [_read_fields_numpy(c, flat) for c in rows]
                )
                e_max = np.concatenate(
                    [c.exponents.astype(np.int64)[e_block] for c in rows]
                )
                out[g:g + len(rows), s - i0:s - i0 + flat.size] = (
                    decode_fields_numpy(fields, e_max, l).reshape(len(rows), -1)
                )

    return kernel


class FRSZ2:
    """The FRSZ2 fixed-rate compressor.

    Parameters
    ----------
    bit_length:
        ``l``, bits per stored value (sign + significand).  The paper
        evaluates l in {16, 21, 32} and advocates 32.
    block_size:
        ``BS``, values per block.  The paper mandates 32 on NVIDIA GPUs
        (one block per warp); other sizes are supported for the ablation
        study.
    rounding:
        Step 5 cuts the significand to length ``l``.  The paper truncates;
        ``rounding=True`` selects round-to-nearest for the ablation bench
        (carries that would overflow into the sign bit are clamped).
    backend:
        Kernel backend, ``"numpy"`` (default) or ``"jit"``.  The jit
        backend runs the compiled engine from :mod:`repro.jit` and is
        bit-identical to numpy; when no engine is available it degrades
        to numpy with a :class:`repro.jit.JitUnavailableWarning`.
    """

    def __init__(
        self,
        bit_length: int = 32,
        block_size: int = DEFAULT_BLOCK_SIZE,
        rounding: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        if not 2 <= bit_length <= 64:
            raise ValueError("bit_length must be in [2, 64]")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.bit_length = int(bit_length)
        self.block_size = int(block_size)
        self.rounding = bool(rounding)
        self.backend = _dispatch.resolve_backend(backend)
        self._encode_kernel = _dispatch.get_kernel("frsz2.encode", self.backend)
        self._tile_kernel = _dispatch.get_kernel("frsz2.decode_tile", self.backend)
        self._gather_kernel = _dispatch.get_kernel(
            "frsz2.decode_gather", self.backend
        )
        #: observe-layer tracer; the null tracer keeps the hot path free
        self.tracer = NULL_TRACER
        #: the layout of the last length asked for (a codec serves one
        #: vector length for its whole life inside an accessor)
        self._layout: Optional[BlockLayout] = None

    # ------------------------------------------------------------------
    # compression (paper Section IV-A)
    # ------------------------------------------------------------------

    def layout_for(self, n: int) -> BlockLayout:
        layout = self._layout
        if layout is None or (layout.n, layout.block_size, layout.bit_length) != (
            n, self.block_size, self.bit_length
        ):
            layout = self._layout = BlockLayout(n, self.block_size, self.bit_length)
        return layout

    def compress(self, x: np.ndarray) -> Frsz2Compressed:
        """Compress a 1-D float64 array into an :class:`Frsz2Compressed`.

        Parameters
        ----------
        x : ndarray, shape (n,), dtype float64
            Finite values to compress (NaN/Inf raise ``ValueError``).
            Other dtypes/layouts are converted with
            ``np.ascontiguousarray``.

        Returns
        -------
        Frsz2Compressed
            Block layout, per-block ``int32`` biased exponents of shape
            ``(num_blocks,)``, and the packed value stream (one unsigned
            integer per slot for aligned ``l``, a ``uint32`` word stream
            otherwise).

        Raises
        ------
        ValueError
            If ``x`` is not 1-D or contains NaN/Inf.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("FRSZ2 compresses 1-D arrays")
        layout = self.layout_for(x.size)
        payload, exponents = self._encode_kernel(x, layout, self.rounding)
        if self.tracer.enabled:
            self.tracer.count("frsz2.compress.calls")
            self.tracer.count("frsz2.compress.values", x.size)
            self.tracer.count("frsz2.compress.bytes", layout.total_nbytes)
            self.tracer.count("frsz2.compress.blocks", layout.num_blocks)
        return Frsz2Compressed(layout=layout, exponents=exponents, payload=payload)

    def compress_batch(self, xs: Sequence[np.ndarray]) -> "List[Frsz2Compressed]":
        """Compress several same-length vectors, one :meth:`compress` each.

        Parameters
        ----------
        xs : sequence of ndarray, each shape (n,), dtype float64
            Vectors to compress.  All must share the same length.

        Returns
        -------
        list of Frsz2Compressed
            ``out[i]`` equals ``self.compress(xs[i])`` bit-for-bit.
        """
        arrays = [np.ascontiguousarray(x, dtype=np.float64) for x in xs]
        for a in arrays:
            if a.shape != arrays[0].shape:
                raise ValueError(
                    f"compress_batch needs equal-length vectors, got "
                    f"{a.size} != {arrays[0].size}"
                )
        return [self.compress(a) for a in arrays]

    # ------------------------------------------------------------------
    # decompression (paper Section IV-B)
    # ------------------------------------------------------------------

    def tile_decoder(self, comps: "Sequence[Frsz2Compressed]"):
        """Prepare same-layout containers for repeated window decodes.

        The fused tile kernels decode the same ``j`` stored vectors once
        per tile; this validates them once and returns
        ``decode(i0, i1, out)``, which writes values ``[i0, i1)`` of
        ``comps[r]`` into ``out[r, :i1 - i0]``, bit-identical to
        ``self.decompress(comps[r])[i0:i1]``.  Under ``backend="jit"``
        the preparation is a C pointer table and each window is one C
        call (:class:`repro.jit.cbackend.TileTable`); under numpy it is
        the reference pass (:func:`decode_tile_numpy`).  The decoder
        keeps the containers' arrays alive and reads them afresh on
        every call, so an in-place change to a payload is seen by the
        next decode.

        Raises
        ------
        ValueError
            If ``comps`` is empty, the containers do not share one
            layout (their payloads could not be walked in lockstep), or
            a container's arrays are not its layout's
            (:meth:`BlockLayout.check_arrays` — as from every decode).
        """
        comps = list(comps)
        if not comps:
            raise ValueError("tile_decoder needs at least one container")
        layout = comps[0].layout
        if any(c.layout != layout for c in comps[1:]):
            raise ValueError("tile_decoder needs same-layout containers")
        kernel = self._tile_kernel(comps)
        j, n = len(comps), layout.n
        block_nbytes = layout.words_per_block * 4 + 4
        bs = layout.block_size

        def decode(i0: int, i1: int, out: np.ndarray) -> None:
            if not 0 <= i0 <= i1 <= n:
                raise IndexError(
                    f"window [{i0}, {i1}) out of range for {n} stored values"
                )
            if (
                out.dtype != np.float64
                or out.ndim != 2
                or out.shape[0] != j
                or out.shape[1] < i1 - i0
                or not out.flags.c_contiguous
            ):
                raise ValueError(
                    f"out must be a C-contiguous float64 array of shape "
                    f"({j}, >= {i1 - i0})"
                )
            if i0 == i1:
                return
            kernel(i0, i1, out)
            if self.tracer.enabled:
                blocks = (i1 - 1) // bs - i0 // bs + 1
                self.tracer.count("frsz2.decode_tile.calls")
                self.tracer.count("frsz2.decode_tile.vectors", j)
                self.tracer.count("frsz2.decode_tile.values", (i1 - i0) * j)
                self.tracer.count("frsz2.decode_tile.bytes",
                                  blocks * block_nbytes * j)

        return decode

    def decode_tile(
        self,
        comps: "Sequence[Frsz2Compressed]",
        i0: int,
        i1: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Decode values ``[i0, i1)`` of every container into ``out``.

        The fused-kernel tile decode (paper Fig. 1 steps 4/18): one
        window across **all** ``j`` stored Krylov vectors at once.  The
        one-shot form of :meth:`tile_decoder`, which see.

        Parameters
        ----------
        comps : sequence of Frsz2Compressed
            Same-layout containers.
        i0, i1 : int
            Value window, ``0 <= i0 <= i1 <= n``; need not be
            block-aligned.
        out : ndarray, shape (j, >= i1 - i0), dtype float64, C-contiguous
            Destination; row ``r`` receives ``comps[r]``'s window.
        """
        self.tile_decoder(comps)(i0, i1, out)
        return out

    def row_pointers(self, comp: Frsz2Compressed):
        """The compiled engine's view of ``comp``, or ``None``.

        Under ``backend="jit"`` this is the
        :class:`repro.jit.cbackend.RowPointers` the fused reductions read
        the container through, made once per stored container; the numpy
        backend has no pointers.  Neither has a container whose exponent
        stream is not ``int32`` (pointing at a converted copy would miss
        a later in-place change): its readers decode it tile by tile.
        """
        if self.backend != "jit" or comp.exponents.dtype != np.int32:
            return None
        return _dispatch.load_engine().row_pointers(comp)

    def decompress(
        self,
        comp: Frsz2Compressed,
        out: Optional[np.ndarray] = None,
        decode: Optional[Callable] = None,
    ) -> np.ndarray:
        """Decompress the full array: the one-row, whole-vector window
        of the backend's ``frsz2.decode_tile`` kernel.

        Parameters
        ----------
        comp : Frsz2Compressed
            A container produced by :meth:`compress` (or loaded from the
            serialized form).
        out : ndarray, shape (n,), dtype float64, optional
            Preallocated destination; reused and returned when given.
        decode : callable, optional
            A kept window kernel over ``[comp]`` (an accessor's, made
            when it stored ``comp``); by default one is prepared — and
            the container checked against its layout — for this call.

        Returns
        -------
        ndarray, shape (n,), dtype float64
            The reconstructed values (lossy: truncated to the block's
            fixed-point grid, sub-grid values flushed to signed zero).
        """
        n = comp.n
        if out is not None and (out.shape != (n,) or out.dtype != np.float64):
            raise ValueError("out must be a float64 array of matching size")
        values = out if out is not None and out.flags.c_contiguous else np.empty(n)
        if decode is None:
            decode = self._tile_kernel([comp])
        if n:
            decode(0, n, values.reshape(1, n))
        if self.tracer.enabled:
            self.tracer.count("frsz2.decompress.calls")
            self.tracer.count("frsz2.decompress.values", n)
            self.tracer.count("frsz2.decompress.bytes", comp.layout.total_nbytes)
            self.tracer.count("frsz2.decompress.blocks", comp.layout.num_blocks)
        if out is not None:
            if values is not out:
                out[:] = values
            return out
        return values

    def get(self, comp: Frsz2Compressed, indices: Union[int, np.ndarray]) -> np.ndarray:
        """Random access decompression (paper Section IV-B).

        Only the requested fields plus their blocks' ``e_max`` entries are
        touched — the random-access-by-block property CB-GMRES requires.
        An index outside ``[0, n)`` is an ``IndexError`` from the kernel.
        """
        scalar = np.isscalar(indices)
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        values = self._gather_kernel(comp, idx)
        if self.tracer.enabled:
            layout = comp.layout
            blocks_touched = int(np.unique(idx // layout.block_size).size)
            # per-block stored bytes: value words + one int32 exponent
            block_nbytes = layout.words_per_block * 4 + 4
            self.tracer.count("frsz2.get.calls")
            self.tracer.count("frsz2.get.values", idx.size)
            self.tracer.count("frsz2.get.blocks", blocks_touched)
            self.tracer.count("frsz2.get.bytes", blocks_touched * block_nbytes)
        return values[0] if scalar else values

    def decompress_block(self, comp: Frsz2Compressed, block: int) -> np.ndarray:
        """Decompress one block (the cache-friendly access pattern)."""
        rng = comp.layout.block_range(block)
        return self.get(comp, np.arange(rng.start, rng.stop, dtype=np.int64))

    def decompress_blocks(
        self, comp: Frsz2Compressed, blocks: Sequence[int]
    ) -> "List[np.ndarray]":
        """Decompress several blocks in one vectorized pass.

        This is the accessor's bulk path: the field read and the decode
        (steps 2-4) each run once over the union of the requested blocks
        instead of once per block, while every returned array is
        bit-identical to :meth:`decompress_block` of the same block.

        Parameters
        ----------
        comp : Frsz2Compressed
            A container produced by :meth:`compress`.
        blocks : sequence of int
            Block indices in ``[0, num_blocks)``; order and duplicates
            are preserved in the output.

        Returns
        -------
        list of ndarray, dtype float64
            ``out[i]`` holds block ``blocks[i]``'s values — length
            ``block_size`` except for a trailing partial block.
        """
        idx = np.asarray(blocks, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            return []
        nb = comp.layout.num_blocks
        if idx.min() < 0 or idx.max() >= nb:
            raise IndexError(
                f"block index out of range [0, {nb}) in {list(blocks)!r}"
            )
        bs = comp.layout.block_size
        # Element grid of all requested blocks; mask off the tail of a
        # trailing partial block.
        grid = idx[:, None] * bs + np.arange(bs, dtype=np.int64)[None, :]
        valid = grid < comp.n
        flat = grid.ravel()[valid.ravel()]
        values = self._gather_kernel(comp, flat)
        counts = valid.sum(axis=1)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        out = [values[offsets[i]:offsets[i + 1]] for i in range(idx.size)]
        if self.tracer.enabled:
            layout = comp.layout
            block_nbytes = layout.words_per_block * 4 + 4
            unique_blocks = int(np.unique(idx).size)
            self.tracer.count("frsz2.decompress_blocks.calls")
            self.tracer.count("frsz2.decompress_blocks.blocks", unique_blocks)
            self.tracer.count("frsz2.decompress_blocks.values", int(flat.size))
            self.tracer.count("frsz2.decompress_blocks.bytes",
                              unique_blocks * block_nbytes)
        return out

    def decompress_blocks_batch(
        self, comps: "Sequence[Frsz2Compressed]", blocks: Sequence[int]
    ) -> "List[np.ndarray]":
        """Decompress the same blocks from several containers in one pass.

        The block-indexed front of :meth:`decode_tile`: an ascending
        run of blocks is one tile window decoded across **all** ``j``
        containers at once; any other selection decodes positionally,
        container by container.  Each returned array is bit-identical
        to concatenating :meth:`decompress_blocks` of the same container.

        Parameters
        ----------
        comps : sequence of Frsz2Compressed
            Same-layout containers (mixed layouts fall back to the
            per-container bulk path).
        blocks : sequence of int
            Block indices in ``[0, num_blocks)``, shared by all
            containers; order and duplicates are preserved.

        Returns
        -------
        list of ndarray, dtype float64
            ``out[i]`` holds the concatenated values of ``blocks`` from
            ``comps[i]`` (a trailing partial block contributes only its
            valid values).
        """
        comps = list(comps)
        if not comps:
            return []
        first = comps[0].layout
        if any(c.layout != first for c in comps[1:]):
            return [
                np.concatenate(self.decompress_blocks(c, blocks))
                if len(blocks)
                else np.zeros(0)
                for c in comps
            ]
        idx = np.asarray(blocks, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            return [np.zeros(0) for _ in comps]
        nb = first.num_blocks
        if idx.min() < 0 or idx.max() >= nb:
            raise IndexError(
                f"block index out of range [0, {nb}) in {list(blocks)!r}"
            )
        bs = first.block_size
        if idx.size == 1 or np.all(idx[1:] - idx[:-1] == 1):
            # an ascending block run is one tile window (the only shape
            # the repo itself passes): a single decode for all containers
            i0 = int(idx[0]) * bs
            i1 = min(i0 + idx.size * bs, first.n)
            values = np.empty((len(comps), i1 - i0))
            self._tile_kernel(comps)(i0, i1, values)
            out = list(values)
        else:
            grid = idx[:, None] * bs + np.arange(bs, dtype=np.int64)[None, :]
            flat = grid.ravel()[(grid < first.n).ravel()]
            out = [self._gather_kernel(c, flat) for c in comps]
        m = int(out[0].size)
        if self.tracer.enabled:
            block_nbytes = first.words_per_block * 4 + 4
            unique_blocks = int(np.unique(idx).size)
            self.tracer.count("frsz2.decompress_blocks_batch.calls")
            self.tracer.count("frsz2.decompress_blocks_batch.vectors", len(comps))
            self.tracer.count("frsz2.decompress_blocks.blocks",
                              unique_blocks * len(comps))
            self.tracer.count("frsz2.decompress_blocks.values", m * len(comps))
            self.tracer.count("frsz2.decompress_blocks.bytes",
                              unique_blocks * block_nbytes * len(comps))
        return out

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """Compress then decompress (the error-injection path of §V-D)."""
        return self.decompress(self.compress(x))

    def max_block_error_bound(self, e_max_biased: int) -> float:
        """A priori truncation error bound for a block.

        Truncation drops bits below the fixed-point grid spacing
        ``2^(e_max - 1023 - (l - 2))``, so every value in the block
        satisfies ``|x - x'| < 2^(e_max - 1023 - (l - 2))`` (one grid ulp;
        half that with rounding).
        """
        import math

        return math.ldexp(1.0, int(e_max_biased) - 1023 - (self.bit_length - 2))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FRSZ2(bit_length={self.bit_length}, block_size={self.block_size}, "
            f"rounding={self.rounding})"
        )
