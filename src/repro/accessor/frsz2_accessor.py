"""FRSZ2 storage accessor.

Decompression goes through the Accessor interface exactly as in the
paper ("the same interface is used for reading and decompressing data in
FRSZ2 while computing in double-precision"); compression is invoked on
the full vector because finding ``e_max`` needs every value of a block
(Section IV-A: "the compression must be performed on all BS elements
simultaneously").

On a GPU the decode rides for free inside the memory-bound kernels (the
"46 spare instructions" budget); in Python it is a real per-read cost,
paid in one bulk codec call per read.  Every read decodes the stored
payload as it is *now*: the accessor keeps no decoded copy, so an
out-of-band change to :attr:`Frsz2Accessor.compressed` (the fault
injectors flipping stored bits) is visible to the next read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import FRSZ2, Frsz2Compressed
from .base import VectorAccessor

__all__ = [
    "Frsz2Accessor",
    "Frsz2Tiles",
    "write_frsz2_batch",
]


class Frsz2Accessor(VectorAccessor):
    """Krylov-vector storage in the FRSZ2 format.

    Parameters
    ----------
    n : int
        Vector length.
    bit_length : int, default 32
        ``l``, bits per stored value.  ``name`` follows the paper's
        labels: ``frsz2_32``, ``frsz2_21``, ``frsz2_16``.
    block_size : int, default 32
        ``BS``, values per block (paper default 32 = one GPU warp).
    rounding : bool, default False
        Round-to-nearest instead of the paper's truncation (ablation).
    backend : {"numpy", "jit"}, optional
        Codec kernel backend (forwarded to :class:`~repro.core.FRSZ2`).
        Bit-identical across backends, so mixed-backend accessors may
        share batched reads/writes freely.
    """

    def __init__(
        self,
        n: int,
        bit_length: int = 32,
        block_size: int = 32,
        rounding: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__(n)
        self.codec = FRSZ2(
            bit_length=bit_length,
            block_size=block_size,
            rounding=rounding,
            backend=backend,
        )
        self.name = f"frsz2_{bit_length}"
        self._compressed: Optional[Frsz2Compressed] = None
        #: the compiled engine's pointers into ``_compressed`` (jit codecs)
        self._pointers = None

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the accessor *and* its codec."""
        super().set_tracer(tracer)
        self.codec.tracer = tracer

    # -- storage interface -------------------------------------------------

    def write(self, values: np.ndarray) -> None:
        """Compress and store the full vector."""
        values = self._check_write(values)
        self._store(self.codec.compress(values))
        self._record_write()

    def _store(self, comp: Frsz2Compressed) -> None:
        """Keep ``comp`` as the stored payload, with its C pointers.

        The pointers are made here, once per stored container, so a
        fused call assembles its table from ready pointers; a replaced
        container replaces them, and an in-place change to the stored
        arrays is read through them as it is.
        """
        self._compressed = comp
        self._pointers = self.codec.row_pointers(comp)

    def read(self) -> np.ndarray:
        """Decompress the full vector into a fresh float64 array."""
        self._record_read()
        if self._compressed is None:
            return np.zeros(self.n)
        return self.codec.decompress(self._compressed)

    def read_block(self, block: int) -> np.ndarray:
        """Block-granular random access (paper Section IV-B).

        Parameters
        ----------
        block : int
            Block index in ``[0, num_blocks)``.

        Returns
        -------
        ndarray, dtype float64
            The decoded block — ``block_size`` values, fewer for a
            trailing partial block.
        """
        if self._compressed is None:
            raise RuntimeError("nothing stored yet")
        return self.codec.decompress_block(self._compressed, block)

    def read_into(self, out: np.ndarray) -> np.ndarray:
        """Bulk-decode the full vector into ``out``.

        One vectorized codec pass with no intermediate allocation;
        bit-identical to :meth:`read`.
        """
        if out.shape != (self.n,) or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape ({self.n},)"
            )
        self._record_read()
        if self._compressed is None:
            out[:] = 0.0
            return out
        return self.codec.decompress(self._compressed, out=out)

    @property
    def tile_granularity(self) -> int:
        """FRSZ2 decodes whole blocks: tiles should align to ``BS``."""
        return self.codec.block_size

    def tile_stored_nbytes(self, i0: int, i1: int) -> int:
        i0, i1 = self._check_tile(i0, i1)
        if i0 == i1:
            return 0
        layout = self.codec.layout_for(self.n)
        bs = layout.block_size
        blocks = (i1 - 1) // bs - i0 // bs + 1
        # per-block stored bytes: value words + one int32 exponent
        return blocks * (layout.words_per_block * 4 + 4)

    def read_tile(self, i0: int, i1: int) -> np.ndarray:
        """Decode the blocks spanning ``[i0, i1)`` (paper Section IV-B).

        Bit-identical to ``self.read()[i0:i1]``.
        """
        i0, i1 = self._check_tile(i0, i1)
        self._record_tile_read(i0, i1)
        if i0 == i1:
            return np.zeros(0)
        if self._compressed is None:
            return np.zeros(i1 - i0)
        out = np.empty((1, i1 - i0))
        return self.codec.decode_tile([self._compressed], i0, i1, out)[0]

    def clear(self) -> None:
        """Drop the stored payload."""
        self._compressed = None
        self._pointers = None

    def stored_nbytes(self) -> int:
        return self.codec.layout_for(self.n).total_nbytes

    @property
    def compressed(self) -> Optional[Frsz2Compressed]:
        """The raw compressed representation (for inspection/tests).

        Every read decodes these arrays afresh, so an in-place mutation
        (a fault injector's bit flip) is seen by the next read.
        """
        return self._compressed


class Frsz2Tiles:
    """One fused call's source over several plain FRSZ2 accessors.

    The Python analog of the paper's fused warp decode.  Eligibility is
    proved once, by :meth:`open`; the source holds the containers (and
    their C pointers) it was opened on alive and reads what they hold at
    the time of each call.  Two routes serve it:

    * :meth:`sweep` — under jit codecs, the engine's row table: one C
      call per fused operation decodes each row-tile into a work buffer
      and reduces it at once, so no tile is ever materialised;
    * :meth:`load` — every tile of **all** vectors decoded in one
      :meth:`~repro.core.frsz2.FRSZ2.tile_decoder` call into the fused
      kernels' scratch rows (numpy codecs, and any tile-at-a-time user).

    Either way each accessor's tile reads are billed individually,
    exactly like a per-accessor :meth:`~Frsz2Accessor.read_tile` loop —
    which is also the bitwise fallback this source is exchangeable with.
    """

    def __init__(self, accessors) -> None:
        self.accessors = accessors
        self._comps = [acc._compressed for acc in accessors]
        layout = self._comps[0].layout
        self._n = layout.n
        self._block_size = layout.block_size
        # per-block stored bytes: value words + one int32 exponent
        self._block_nbytes = layout.words_per_block * 4 + 4
        self._decode = None
        pointers = [acc._pointers for acc in accessors]
        self._table = (
            None if any(p is None for p in pointers)
            else pointers[0].engine.row_table(pointers)
        )
        self._traced = [acc for acc in accessors if acc.tracer.enabled]

    @classmethod
    def open(cls, accessors) -> "Optional[Frsz2Tiles]":
        """A tile source over ``accessors``, or ``None`` when ineligible.

        Eligible means: every accessor is exactly a
        :class:`Frsz2Accessor` (a subclass or wrapper may override
        ``read_tile``, which reading ``_compressed`` directly would
        silently bypass), holds a written payload, and shares one
        length, bit length and block size — hence one block layout.
        Callers fall back to per-accessor ``read_tile`` on ``None``.
        """
        accessors = list(accessors)
        if not accessors:
            return None
        for acc in accessors:
            if type(acc) is not Frsz2Accessor or acc._compressed is None:
                return None
        first = accessors[0]
        key = (first.n, first.codec.bit_length, first.codec.block_size)
        for acc in accessors[1:]:
            if (acc.n, acc.codec.bit_length, acc.codec.block_size) != key:
                return None
        return cls(accessors)

    def _bill(self, tiles: int, nbytes: int) -> None:
        for acc in self.accessors:
            traffic = acc.traffic
            traffic.bytes_read += nbytes
            traffic.tile_reads += tiles
        for acc in self._traced:
            acc.tracer.count("accessor.tile_reads", tiles)
            acc.tracer.count("accessor.bytes_read", nbytes)

    def _blocks(self, i0: int, i1: int) -> int:
        bs = self._block_size
        return (i1 - 1) // bs - i0 // bs + 1

    def sweep(self, tile_elems: int):
        """The engine's row table for one pass over the whole tile grid.

        ``None`` unless every accessor carries C pointers (jit codecs).
        Bills each accessor the ``ceil(n / tile_elems)`` tile reads of
        the pass the caller is about to make in one C call.
        """
        if self._table is None:
            return None
        n = self._n
        if tile_elems % self._block_size == 0:
            blocks = self._blocks(0, n) if n else 0
        else:  # blocks straddling a tile boundary are read twice
            blocks = sum(
                self._blocks(t0, min(t0 + tile_elems, n))
                for t0 in range(0, n, tile_elems)
            )
        self._bill(-(-n // tile_elems), blocks * self._block_nbytes)
        return self._table

    def load(self, i0: int, i1: int, out: np.ndarray) -> None:
        """Fill ``out[row, :i1 - i0]`` with every accessor's ``[i0, i1)``."""
        if self._decode is None:
            self._decode = self.accessors[0].codec.tile_decoder(self._comps)
        self._decode(i0, i1, out)
        if i0 != i1:
            self._bill(1, self._blocks(i0, i1) * self._block_nbytes)


def write_frsz2_batch(accessors, X: np.ndarray) -> bool:
    """Compress one column of ``X`` into each accessor in a single pass.

    The write-side counterpart of :class:`Frsz2Tiles`: when every
    accessor is a plain :class:`Frsz2Accessor` with identical codec
    parameters, all columns encode in one
    :meth:`~repro.core.frsz2.FRSZ2.compress_batch` call (one vectorized
    exponent-reduce/shift/truncate pass instead of one per vector).
    Each accessor's write is billed individually, exactly like a
    per-accessor
    :meth:`~Frsz2Accessor.write` loop — which is the bitwise-identical
    fallback this fast path is exchangeable with.

    Parameters
    ----------
    accessors : sequence of VectorAccessor
        Target accessors, one per column of ``X``.
    X : ndarray, shape (n, B), dtype float64
        Vectors to store; column ``c`` goes to ``accessors[c]``.

    Returns
    -------
    bool
        ``True`` if the batched encode ran; ``False`` when any accessor
        is ineligible (wrapped/subclassed, or codec mismatch) and the
        caller should fall back to per-accessor ``write``.

    Raises
    ------
    ValueError
        If any column contains NaN/Inf (from the codec) — the same
        error a per-accessor write loop would raise, with no accessor
        mutated (the whole batch is encoded before any store).
    """
    accessors = list(accessors)
    if not accessors:
        return False
    for acc in accessors:
        # exact type: a subclass may override write(), which the direct
        # payload store below would silently bypass
        if type(acc) is not Frsz2Accessor:
            return False
    c0 = accessors[0].codec
    n = accessors[0].n
    for acc in accessors[1:]:
        if (
            acc.n != n
            or acc.codec.bit_length != c0.bit_length
            or acc.codec.block_size != c0.block_size
            or acc.codec.rounding != c0.rounding
        ):
            return False
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape != (n, len(accessors)):
        raise ValueError(f"expected X of shape ({n}, {len(accessors)})")
    columns = [
        acc._check_write(X[:, c]) for c, acc in enumerate(accessors)
    ]
    compressed = c0.compress_batch(columns)
    for acc, comp in zip(accessors, compressed):
        acc._store(comp)
        acc._record_write()
    return True
