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

from operator import attrgetter
from typing import Optional

import numpy as np

from ..core import FRSZ2, Frsz2Compressed
from .base import VectorAccessor

__all__ = [
    "Frsz2Accessor",
    "Frsz2Tiles",
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
        #: the engine's one-row table over ``_pointers``: the kept decoder
        #: every full read goes through, re-pointed by each store
        self._table = None

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

        The pointers are made here — where the container's arrays are
        checked against its layout — once per stored container, so a
        read decodes, and a fused call assembles its table, from ready
        pointers; a replaced container replaces them, and an in-place
        change to the stored arrays is read through them as it is.
        """
        rows = self.codec.row_pointers(comp)  # before anything changes
        self._compressed, self._pointers = comp, rows
        if rows is None:
            self._table = None
        elif self._table is None or self._table.layout is not rows.layout:
            self._table = rows.engine.row_table([rows])
        else:
            self._table.bind(0, rows)

    def read(self) -> np.ndarray:
        """Decompress the full vector into a fresh float64 array."""
        self._record_read()
        if self._compressed is None:
            return np.zeros(self.n)
        return self.codec.decompress(self._compressed, decode=self._table)

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
        return self.codec.decompress(
            self._compressed, out=out, decode=self._table
        )

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
        if self._table is not None:
            self._table.truncate(0)

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
    """A fused-kernel source over plain FRSZ2 accessors of one layout.

    The Python analog of the paper's fused warp decode.  Eligibility is
    proved when a row joins the source — by :meth:`open` for the rows it
    starts with, by :meth:`bind` for each later one — and the source holds
    the containers (and their C pointers) it was given alive and reads
    what they hold at the time of each call.  Two routes serve it:

    * the walks :meth:`fused_dot` / :meth:`fused_axpy` (and their
      width-two forms) of a row source (:mod:`repro.fused.kernels`)
      — under jit codecs, one C call over the engine's row table decodes
      each row-tile into a work buffer and reduces it at once, so no tile
      is ever materialised;
    * :meth:`load` — every tile of **all** vectors decoded in one
      :meth:`~repro.core.frsz2.FRSZ2.tile_decoder` call into the fused
      kernels' scratch rows (numpy codecs, and any tile-at-a-time user).

    Either way the tracer of the rows (a basis gives all its slots one)
    is billed the tile reads of a per-accessor
    :meth:`~Frsz2Accessor.read_tile` loop — which is also the bitwise
    fallback this source is exchangeable with — in one count per call.

    A :class:`~repro.solvers.basis.KrylovBasis` keeps one source with
    room for all its slots for as long as the layout lasts: every write
    binds the slot's fresh container in place, and every fused call asks
    :meth:`covers` — at C speed — whether the leading rows are still the
    accessors, holding the containers, that were proved.
    """

    def __init__(self, accessors, capacity: int = 0) -> None:
        self.accessors = list(accessors)
        self._comps = [acc._compressed for acc in self.accessors]
        pointers = [acc._pointers for acc in self.accessors]
        self.layout = layout = self._comps[0].layout
        self._decode = None
        self._engine = (
            None if any(p is None for p in pointers) else pointers[0].engine
        )
        #: the engine's row table (``None``: numpy codecs, no in-place route)
        self.table = (
            None if self._engine is None
            else self._engine.row_table(pointers, capacity)
        )
        #: the RowPointers bound to the table's rows, for :meth:`covers`
        self._rows = pointers
        # per-block stored bytes: value words + one int32 exponent
        self._block_nbytes = layout.words_per_block * 4 + 4
        #: ``tile_elems -> (tiles, bytes)`` one accessor is billed per pass
        self._pass_bill: dict = {}

    @classmethod
    def open(cls, accessors, capacity: int = 0) -> "Optional[Frsz2Tiles]":
        """A tile source over ``accessors``, or ``None`` when ineligible.

        Eligible means: every accessor is exactly a
        :class:`Frsz2Accessor`, holds a written payload, and shares one
        block layout.  Callers fall back to per-accessor ``read_tile``
        on ``None``.  ``capacity`` leaves room for :meth:`bind`.
        """
        accessors = list(accessors)
        if not accessors:
            return None
        for acc in accessors:
            # exact type: a subclass or wrapper may override ``read_tile``,
            # which reading ``_compressed`` directly would silently bypass
            if type(acc) is not Frsz2Accessor or acc._compressed is None:
                return None
        layout = accessors[0]._compressed.layout
        if any(acc._compressed.layout != layout for acc in accessors[1:]):
            return None
        return cls(accessors, capacity)

    @property
    def work_nbytes(self) -> int:
        """Bytes of the work buffer the engine's table keeps."""
        return 0 if self.table is None else self.table.work_nbytes

    def bind(self, k: int, acc) -> bool:
        """Make ``acc``, just written, row ``k <= count`` of the table.

        The per-write half of the proof :meth:`open` makes per call: exact
        type, a written payload with C pointers of this table's engine,
        the same layout.  Returns ``False`` — and forgets the rows from
        ``k`` on, so calls that deep take the per-call route — when ``acc``
        cannot join or would leave a gap.
        """
        table = self.table
        if (table is not None and k <= len(self.accessors) and k < table.capacity
                and type(acc) is Frsz2Accessor):
            row = acc._pointers  # None: nothing stored, or a numpy codec
            if (row is not None and row.engine is self._engine
                    and row.layout == self.layout):
                table.bind(k, row)
                self.accessors[k:k + 1] = [acc]
                self._comps[k:k + 1] = [acc._compressed]
                self._rows[k:k + 1] = [row]
                self._decode = None
                return True
        self.truncate(k)
        return False

    def truncate(self, count: int) -> None:
        """Forget the rows from ``count`` on."""
        del self.accessors[count:], self._comps[count:], self._rows[count:]
        self._decode = None
        if self.table is not None:
            self.table.truncate(count)

    def covers(self, accessors, j: int) -> bool:
        """Whether ``accessors[:j]`` are this source's leading rows still:
        the same objects, holding the containers their rows point into
        (an accessor makes new pointers for every container it stores and
        drops them when cleared).  Two list comparisons, no Python loop.
        """
        return (
            j <= len(self._rows)
            and accessors[:j] == self.accessors[:j]
            and list(map(_POINTERS, accessors[:j])) == self._rows[:j]
        )

    def _bill(self, tiles: int, nbytes: int, j: Optional[int]) -> None:
        """Bill the live tracer of the rows ``tiles`` reads of ``nbytes``
        for each of the leading ``j`` rows (default: all)."""
        rows = len(self.accessors[:j])
        if rows:
            tracer = self.accessors[0].tracer
            tracer.count("accessor.tile_reads", tiles * rows)
            tracer.count("accessor.bytes_read", nbytes * rows)

    def _blocks(self, i0: int, i1: int) -> int:
        bs = self.layout.block_size
        return (i1 - 1) // bs - i0 // bs + 1

    def bill_pass(self, tile_elems: int, j: Optional[int] = None,
                  passes: int = 1) -> None:
        """Bill each of the leading ``j`` accessors (default: all) the
        ``ceil(n / tile_elems)`` tile reads of each of ``passes`` passes
        over the whole tile grid, which the caller makes in C — when the
        rows are traced."""
        if not (self.accessors and self.accessors[0].tracer.enabled):
            return
        bill = self._pass_bill.get(tile_elems)
        if bill is None:
            n = self.layout.n
            # blocks straddling a tile boundary are read twice
            blocks = sum(
                self._blocks(t0, min(t0 + tile_elems, n))
                for t0 in range(0, n, tile_elems)
            )
            bill = self._pass_bill[tile_elems] = (
                -(-n // tile_elems), blocks * self._block_nbytes
            )
        self._bill(passes * bill[0], passes * bill[1], j)

    def fused_dot(self, j, n, tile, w, h) -> int:
        self.bill_pass(tile, j)
        return self.table.fused_dot(j, n, tile, w, h)

    def fused_axpy(self, j, n, tile, y, w, store=False) -> int:
        self.bill_pass(tile, j)
        return self.table.fused_axpy(j, n, tile, y, w, store)

    def fused_dot2(self, j, n, tile, x, y, hx, hy) -> int:
        self.bill_pass(tile, j)
        return self.table.fused_dot2(j, n, tile, x, y, hx, hy)

    def fused_axpy2(self, j, n, tile, a, x, b, y) -> int:
        self.bill_pass(tile, j)
        return self.table.fused_axpy2(j, n, tile, a, x, b, y)

    def step(self, k, n, tile, t, w_in, eta, state, q, w, a, b, out) -> int:
        flags = self.table.step(k, n, tile, t, w_in, eta, state, q, w, a, b, out)
        if k and self.accessors[0].tracer.enabled:
            # the walks it made: the dot and the axpy
            self.bill_pass(tile, k, 2)
        return flags

    def column(self, r, n, tile, q, w, w_in, k, eta, flexible, state, a, b,
               out) -> int:
        if self.accessors[0].tracer.enabled:
            # row r decoded once, whole: what a load of it is billed
            self.accessors[r].tracer.count("accessor.tile_reads")
            self.accessors[r].tracer.count(
                "accessor.bytes_read", self._blocks(0, n) * self._block_nbytes)
        return self.table.column(r, n, tile, q, w, w_in, k, eta, flexible, state,
                                 a, b, out)

    def load(self, i0: int, i1: int, out: np.ndarray) -> None:
        """Fill ``out[row, :i1 - i0]`` with every accessor's ``[i0, i1)``."""
        if self._decode is None:
            self._decode = self.accessors[0].codec.tile_decoder(self._comps)
        self._decode(i0, i1, out)
        if i0 != i1 and self.accessors[0].tracer.enabled:
            self._bill(1, self._blocks(i0, i1) * self._block_nbytes, None)

#: an accessor's C pointers (``None``: cleared, or a numpy codec)
_POINTERS = attrgetter("_pointers")
