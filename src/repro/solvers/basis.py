"""Krylov-basis storage through the Accessor interface.

The basis ``V_{m+1}`` is the data structure CB-GMRES compresses: every
new vector is written (compressed) once and read (decompressed) by every
later orthogonalization and by the solution update — the highlighted
sections of the paper's Fig. 1.

Two basis modes reproduce the two kernel structures the paper compares:

``cached``
    Keeps a dense float64 view of the decompressed vectors (the
    "materialized" structure a naive CPU port would use).  Fast in
    NumPy, but the float64 working set is ``O(n x (m+1))`` regardless of
    the storage format.  The view is reserved up front and never
    cleared: a column becomes resident when a write fills it, and every
    read stops at the written slots (the *fence*), so a restart costs no
    pass over the view and a cycle that writes ``k`` of the ``m+1``
    slots touches ``k`` columns.
``streaming``
    Never materializes the basis: the fused kernels of
    :mod:`repro.fused` decode one row-tile of compressed blocks at a
    time and reduce it at once, so the float64 working set is
    ``O(tile)`` — the paper's in-register fusion argument, and the
    CB-GMRES memory argument of Aliaga et al.

The solver reads the stored basis through exactly two methods, the two
fused kernels of Fig. 1: :meth:`KrylovBasis.step` (the orthogonalization
of one Arnoldi step — DCGS2's two walks of width two, in one call on the
row source) and :meth:`KrylovBasis.combine` (``V y``, the solution
update).  A step leaves the vector it makes *tentative*: the next step
finishes it with its own walks and hands it back normalised, and only
then is it written — each slot is stored (encoded) once.  Both run the *same* fused reductions in one written
accumulation order (cached hands them the columns of the dense view in
place, streaming the containers to decode), which makes the two modes
bit-identical — asserted across storages in the test suite.  The
traffic a GPU would move is priced analytically by the timing model from
the walks each cycle's record counts
(:func:`repro.gpu.timing.solve_phases`), not from the cache.

A read costs one kernel call plus ``O(1)`` Python because the basis
*keeps* the row source it walks for as long as it stays true: the
mirror's rows (and their C pointer) from construction on, and —
streaming, compiled — one :class:`~repro.accessor.Frsz2Tiles` that every
:meth:`KrylovBasis.write_vector` extends in place with the slot it has
just proved eligible.  A read only checks that the leading ``j`` slots
are still those accessors holding those containers
(:meth:`KrylovBasis._rows`); if not, it builds the per-call reader that
proves everything from scratch and loads tile by tile what C cannot walk.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..accessor import Float64Accessor, Frsz2Tiles, VectorAccessor, accessor_factory
from ..jit import dispatch as _dispatch
from ..fused import (
    DEFAULT_TILE_ELEMS,
    CachedTileReader,
    FusedOpLog,
    StreamingTileReader,
    TileReader,
    combine_fused,
)
from ..fused.kernels import STEP_NONFINITE, _LoadedRows, _NumpyRows, bill_fused
from ..observe import NULL_TRACER

__all__ = ["KrylovBasis", "BASIS_MODES", "StorageRefused"]

#: supported basis modes (``--basis-mode`` on the CLI)
BASIS_MODES = ("cached", "streaming")


class StorageRefused(Exception):
    """The storage refused the vector an Arnoldi step finished
    (:meth:`KrylovBasis.step`): the step's walks ran — and are billed —
    and its first half absorbed the previous column; the storage's own
    ``ValueError`` or ``OverflowError`` is ``__cause__``."""


class KrylovBasis:
    """``m+1`` Krylov vectors of length ``n`` in a reduced storage format.

    Parameters
    ----------
    n, m:
        Vector length and restart length (slots ``0..m``).
    storage:
        Storage-format name (see :func:`repro.accessor.make_accessor`).
    storage_factory:
        Override the per-slot accessor construction with a format-aware
        ``factory(storage, n)``, used for the initial build *and* every
        later :meth:`set_storage` — the hook ablations use for custom
        codec parameters and fault injectors use to keep wrapping
        accessors across adaptive format switches.
    tracer:
        Optional observe-layer tracer.
    basis_mode:
        ``"cached"`` (dense decompressed view, the default) or
        ``"streaming"`` (rows decoded inside the fused kernels,
        ``O(tile)`` float64 working set).  Bit-identical to each other.
    tile_elems:
        Fused-kernel tile size in elements; rounded up to the storage
        format's decode granularity (FRSZ2: the block size ``BS``).
    backend:
        Kernel backend (``"numpy"``/``"jit"``) forwarded to the default
        accessor construction — and, because :meth:`set_storage` reuses
        the same construction hook, preserved across adaptive format
        switches — and carried by every fused-kernel reader this basis
        builds, which is what selects the reduction kernels.  A custom ``storage_factory`` owns its accessor
        construction and is expected to close over a backend itself.
    """

    def __init__(
        self,
        n: int,
        m: int,
        storage: str = "float64",
        tracer=None,
        basis_mode: str = "cached",
        tile_elems: int = DEFAULT_TILE_ELEMS,
        storage_factory: "Callable[[str, int], VectorAccessor] | None" = None,
        backend: "str | None" = None,
    ) -> None:
        if m < 1:
            raise ValueError("restart length m must be positive")
        if basis_mode not in BASIS_MODES:
            raise ValueError(
                f"unknown basis_mode {basis_mode!r}; expected one of {BASIS_MODES}"
            )
        if tile_elems < 1:
            raise ValueError("tile_elems must be positive")
        self.n = int(n)
        self.m = int(m)
        self.storage = storage
        self.basis_mode = basis_mode
        self.tracer = tracer or NULL_TRACER
        self.backend = _dispatch.resolve_backend(backend)
        # set_storage rebuilds through this same hook, so the backend
        # stays pinned across adaptive format switches
        self._make: "Callable[[str, int], VectorAccessor]" = (
            storage_factory or accessor_factory(storage, backend=self.backend)
        )
        self.accessors: List[VectorAccessor] = [
            self._make(storage, n) for _ in range(m + 1)
        ]
        if self.tracer.enabled:
            for acc in self.accessors:
                acc.set_tracer(self.tracer)
        # Tile boundaries must land on whole storage blocks or a
        # streaming decode could not serve them independently; the same
        # (rounded) grid is used by the cached mode so both modes share
        # one accumulation order.
        gran = max(
            int(getattr(acc, "tile_granularity", 1)) for acc in self.accessors
        )
        self.tile_elems = max(gran, ((int(tile_elems) + gran - 1) // gran) * gran)
        #: fused-kernel work log (tiles, peak scratch bytes)
        self.fused_log = FusedOpLog()
        # decompressed view of every written vector (column j = V[:, j]);
        # streaming mode drops it entirely — that is the point.  Left
        # unfilled: no read passes ``_written`` (see write_vector)
        self._cache: Optional[np.ndarray] = (
            np.empty((n, m + 1), order="F") if basis_mode == "cached" else None
        )
        #: the view's columns; a plain ``float64`` slot stores its values
        #: in its column (:meth:`_keep_in_view`), so a vector is stored once
        self._columns = (
            None if self._cache is None
            else [self._cache[:, j] for j in range(m + 1)]
        )
        self._keep_in_view()
        self._written = 0
        #: the reader, and in it the row source, that fused calls walk
        #: without building anything (see :meth:`_rows`): the basis sets
        #: its ``j`` and hands it to the call.  Cached: the mirror's
        #: columns as C rows — and, under jit, their pointer — made here,
        #: once.  Streaming: one :class:`Frsz2Tiles` over the slots
        #: written so far, started by the first eligible write and
        #: extended in place by each later one; ``None`` while there are
        #: no rows C can walk.
        self._kept = (
            TileReader(None, 0, self.n, self.backend) if self._cache is None
            else CachedTileReader(self._cache, 0, self.backend)
        )
        #: the ``out`` words of a step (see :meth:`step`), and the buffer
        #: a streaming step decodes the vector it stored into (made on
        #: first use)
        self._out = np.zeros(6)
        self._row: Optional[np.ndarray] = None

    @property
    def bits_per_value(self) -> float:
        """Stored bits per basis value (storage-format footprint)."""
        return self.accessors[0].bits_per_value

    @property
    def stored_vector_nbytes(self) -> int:
        """Simulated device bytes of one stored basis vector."""
        return self.accessors[0].stored_nbytes()

    @property
    def peak_float64_bytes(self) -> int:
        """Largest float64 working set this basis has held.

        ``cached``: the dense ``(n, m+1)`` view, reserved up front and
        made resident by writes (a column no write reaches is never
        touched, but it is counted).
        ``streaming``: what the work buffer the compiled kernels keep
        holds — two operands' ``m+1`` partials of each tile of one round
        and, per thread of the pool, a ``tile``-double decode buffer — or,
        if larger, the ``(j, tile)`` scratch of a basis reduced tile by
        tile: ``O(m + threads x tile)`` or ``O(m x tile)``, never
        ``O(n x m)``.
        """
        if self._cache is not None:
            return int(self._cache.nbytes)
        source = self._kept.source
        kept = 0 if source is None else source.work_nbytes
        return max(kept, int(self.fused_log.peak_scratch_bytes))

    def set_storage(self, storage: str) -> None:
        """Switch every slot to a new storage format.

        The adaptive-precision hook: :class:`~repro.solvers.adaptive.
        PrecisionController` calls this at restart boundaries so each
        restart cycle's basis lives in the format the controller chose.

        Raises
        ------
        ValueError
            If the new format's decode granularity does not divide the
            established tile grid (the grid is part of the determinism
            contract and never moves after construction).

        Notes
        -----
        Rebuilt slots come back *empty*: like :meth:`reset`, the switch
        forgets every vector, so switches belong at restart boundaries —
        exactly where the controller sits.  Nothing is written to the
        cached view; the fence keeps its old columns unread.
        """
        fresh = [self._make(storage, self.n) for _ in range(self.m + 1)]
        for acc in fresh:
            gran = int(getattr(acc, "tile_granularity", 1))
            if self.tile_elems % gran:
                raise ValueError(
                    f"storage {storage!r} decodes in blocks of {gran}, which "
                    f"does not divide the established tile grid "
                    f"({self.tile_elems} elems)"
                )
            if self.tracer.enabled:
                acc.set_tracer(self.tracer)
        self.accessors[:] = fresh
        self.storage = storage
        self._keep_in_view()
        self._forget()

    def _keep_in_view(self) -> None:
        """Hand every plain ``float64`` slot its column of the cached view
        as the buffer it stores into: its write is then the view's refresh
        too.  Any other slot keeps its own storage, and a write decodes it
        into its column."""
        if self._columns is not None:
            for acc, column in zip(self.accessors, self._columns):
                if type(acc) is Float64Accessor:
                    acc.keep_in(column)

    def _forget(self) -> None:
        """Fence off every written slot: reads stop at ``_written``."""
        self._written = 0
        if self._cache is None and self._kept.source is not None:
            self._kept.source.truncate(0)

    def write_vector(self, j: int, v: np.ndarray) -> None:
        """Compress ``v`` into slot ``j`` (and refresh the cached view)."""
        if not 0 <= j <= self.m:
            raise IndexError(f"basis slot {j} out of range [0, {self.m}]")
        acc = self.accessors[j]
        with self.tracer.span("basis_write", slot=j):
            acc.write(v)
            if self._cache is not None:
                # ``_written`` is a high-water mark: slots a write skips
                # come inside the fence and must read as their cleared
                # accessors do (Arnoldi never skips one)
                if j > self._written:
                    self._cache[:, self._written:j] = 0.0
                # refreshing the lossy view decompresses the vector we
                # just wrote (one bulk decode straight into the column;
                # it is part of the write, not a stored-basis read) —
                # unless the slot stored it there itself
                column = self._columns[j]
                if getattr(acc, "_buffer", None) is not column:
                    acc.read_into(column)
            elif self.backend == "jit":
                # the container just stored becomes row j of the kept
                # source: what a per-call reader proves over all its
                # accessors on every fused call is proved here, once, for
                # the one that changed.  A slot the source cannot take —
                # wrapped, another format or layout, no C pointers, a gap
                # before it — cuts it at j (deeper calls build the
                # per-call reader); slot 0 then starts a new source
                source = self._kept.source
                if (source is None or not source.bind(j, acc)) and j == 0:
                    source = Frsz2Tiles.open([acc], self.m + 1)
                    if source is not None and source.table is None:
                        source = None  # numpy codecs: nothing C can walk
                    self._kept.source = source
        if j >= self._written:
            self._written = j + 1

    def vector(self, j: int) -> np.ndarray:
        """The decompressed basis vector ``v_j`` (lossy).

        Cached mode returns the dense view's column; streaming mode
        decompresses on demand (bit-identical — decoding is
        deterministic).  Uncounted; use :meth:`read_vector` on solver
        hot paths so the tracer counts the traffic.
        """
        if j >= self._written:
            raise IndexError(f"basis slot {j} has not been written")
        if self._cache is not None:
            return self._cache[:, j]
        return self.accessors[j].read()

    def read_vector(self, j: int) -> np.ndarray:
        """``v_j`` as a *counted* stored-basis read.

        Tallies one vector read (``basis.vector_reads`` /
        ``basis.bytes_read``) exactly like :meth:`step` and :meth:`combine`
        do per vector — the accounting route for vector-at-a-time consumers
        such as flexible GMRES's SpMV operand ``z_{j-1}``.
        """
        with self.tracer.span("basis_read", vectors=1):
            if self.tracer.enabled:
                self.tracer.count("basis.vector_reads", 1)
                self.tracer.count("basis.bytes_read", self.stored_vector_nbytes)
            return self.vector(j)

    def matrix(self, j: int) -> np.ndarray:
        """The decompressed leading basis ``V_j`` as an ``(n, j)`` array.

        A diagnostic escape hatch (orthogonality monitors, tests): in
        streaming mode this *materializes* the basis on demand — it is
        never called on the solver hot path.
        """
        if j > self._written:
            raise IndexError(f"only {self._written} basis vectors written")
        if self._cache is not None:
            return self._cache[:, :j]
        out = np.empty((self.n, j), order="F")
        for i in range(j):
            out[:, i] = self.accessors[i].read()
        return out

    def _reader(self, j: int):
        """A per-call tile source for the leading ``j`` vectors: built —
        and, streaming, proved eligible over all ``j`` accessors — from
        scratch, holding what it was opened on.  What a fused call gets
        when the kept source does not cover it (see :meth:`_rows`)."""
        if j > self._written:
            raise IndexError(f"only {self._written} basis vectors written")
        if self._cache is not None:
            return CachedTileReader(self._cache, j, self.backend)
        return StreamingTileReader(self.accessors, j, self.backend)

    def _rows(self, j: int):
        """The reader a fused call over the leading ``j`` vectors walks.

        The kept source, whenever it still is the basis: the mirror always
        is; the streaming table is when the leading ``j`` slots are the
        accessor objects, holding the containers, that
        :meth:`write_vector` bound (``covers``: two list comparisons).  Anything else — a
        swapped or wrapped accessor, a slot written or cleared behind the
        basis's back, a mixed-format or unwritten slot, numpy codecs —
        gets :meth:`_reader`'s per-call reader, which proves what it can
        and loads the rest tile by tile.
        """
        kept = self._kept
        source = kept.source
        if source is None or j > self._written or (
            self._cache is None and not source.covers(self.accessors, j)
        ):
            return self._reader(j)
        kept.j = j
        return kept

    def combine(self, j: int, y: np.ndarray) -> np.ndarray:
        """``V_j y`` — the solution-update read of Fig. 1 step 18, as a
        counted ``basis_read`` (span and counters only under a live
        tracer)."""
        tracer = self.tracer
        if not tracer.enabled:
            return combine_fused(
                self._rows(j), y, self.tile_elems, tracer, self.fused_log)
        with tracer.span("basis_read", vectors=j):
            self._count_read(j)
            return combine_fused(
                self._rows(j), y, self.tile_elems, tracer, self.fused_log)

    def step(self, k: int, t: np.ndarray, w, eta: float, lsq=None,
             flexible: bool = False):
        """One Arnoldi step of DCGS2 against the leading ``k >= 0`` stored
        vectors ``V``, which stores the vector it finishes in slot ``k``
        (:func:`repro.fused.kernels.step_rows`, the write, then
        :func:`~repro.fused.kernels.step_column`).

        ``t`` is the tentative vector the previous step returned (or
        ``r / ||r||`` at a cycle's start) and ``w`` (the SpMV output, not
        modified) its product ``A M^-1 t``.  The two walks of width two
        orthogonalize both against ``V`` at once: ``t`` a second time — it
        becomes ``q``, normalised, written to slot ``k`` — and ``w`` a
        first time; then ``w`` is orthogonalized against ``q`` *as stored*
        (the lossy vector the solution update will combine) and becomes
        the next tentative vector, normalised unless a flag is raised.
        With ``lsq``, a :class:`~repro.solvers.GivensLeastSquares` whose
        column ``k - 1`` is tentative, the step makes that column final and
        absorbs it, and opens column ``k``; ``flexible`` (a flexible
        solve's ``w`` is ``A z`` of a stored ``z``) leaves out the
        correction that makes it a column of ``A M^-1 q``.  A compiled
        source (the mirror's rows, the kept FRSZ2 table) runs each half as
        one C call; every other source runs the Python body, with the same
        bits.  A flag raised before the write (non-finite, loss of
        orthogonality, the breakdown of column ``k - 1`` its final
        subdiagonal shows) leaves slot ``k`` unwritten and no column
        opened; a refused write raises :class:`StorageRefused`.

        With ``w`` ``None`` the step *closes* a cycle: ``t``'s second pass
        alone (two walks of width one) makes column ``k - 1`` final and
        absorbs it; nothing is written and no column opens.

        Returns ``(flags, q, t_next, a, b, rho, h_next, residual)``: the
        ``STEP_*`` flags, ``q`` (the vector written, ``None`` when a flag
        before the write left slot ``k`` unwritten; a close's ``t``
        orthogonalized and normalised), the next
        tentative vector, ``V^T t``, ``V^T w`` with ``q . w`` last,
        ``||t - V a||``, the new column's subdiagonal entry and (with
        ``lsq``) the implicit residual it would leave.  Billed as the walks
        it made (:func:`~repro.fused.kernels.step_walks`), ``k`` vectors
        each; under a live tracer the walks' time is one ``basis_read``
        span.
        """
        n, tile, close = self.n, self.tile_elems, w is None
        t = np.ascontiguousarray(t, dtype=np.float64)
        if not close:
            w = np.ascontiguousarray(w, dtype=np.float64)
        if t.shape != (n,) or not close and w.shape != (n,):
            raise ValueError(
                f"t and w must be vectors of {n} values, got shapes "
                f"{t.shape} and {None if close else w.shape}")
        if not 0 <= k <= self.m or lsq is not None and (
                lsq.size != max(k - 1, 0) or k >= lsq.m + close):
            raise ValueError(
                f"step over {k} vectors of a basis of {self.m} and a least "
                f"squares holding {None if lsq is None else lsq.size} columns"
            )
        q, a, b, out = np.empty(n), np.empty(k), np.zeros(k + 1), self._out
        v, state = None if close else np.empty(n), None if lsq is None else lsq.state
        reader = self._rows(k)
        flags = reader.source.step(k, n, tile, t, w, eta, state, q, v, a, b, out)
        if k:
            if lsq is not None and not flags & STEP_NONFINITE:
                lsq.size = k  # the step absorbed column k - 1
            tracer = self.tracer
            bill_fused(k, n, tile, int(out[4]), tracer, self.fused_log, 2)
            if tracer.enabled:
                tracer.record("basis_read", out[3] * 1e-9, vectors=k)
                self._count_read(k, 2)
        out[1] = 0.0
        if not (close or flags):
            try:
                self.write_vector(k, q)
            except (ValueError, OverflowError) as exc:
                raise StorageRefused(str(exc)) from exc
            kept = self._kept.source
            if self._cache is not None:
                # the mirror's column k is the write, read where it is
                flags = kept.column(k, n, tile, q, v, w, k, eta, flexible,
                                    state, a, b, out)
            else:  # a compressed row k is decoded once, into _row
                if self._row is None:
                    self._row = np.empty(n)
                source = kept if reader is self._kept and len(
                    kept.accessors) > k else self._slot(k)
                flags = source.column(k if source is kept else 0, n, tile,
                                      self._row, v, w, k, eta, flexible,
                                      state, a, b, out)
                if self.tracer.enabled:
                    self._count_read(1)
        elif not close:
            q = None
        return flags, q, v, a, b, float(out[0]), float(out[1]), float(out[2])

    def _slot(self, k: int):
        """Slot ``k`` alone as a one-row source, for a column the kept
        source cannot reach (streaming): the compiled table a fresh reader
        proves, or the slot loaded — and billed — by that reader's route."""
        source = StreamingTileReader(self.accessors[k:k + 1], 1, self.backend).source
        if type(source) is _LoadedRows:
            rows = np.empty((1, self.n))
            source.load(0, self.n, rows)
            return _NumpyRows(rows)
        return source

    def _count_read(self, j: int, walks: int = 1) -> None:
        """Tally the stored bytes ``walks`` walks over ``V_j`` stream
        (callers skip the call under the null tracer)."""
        if j > 0:
            self.tracer.count("basis.vector_reads", walks * j)
            self.tracer.count(
                "basis.bytes_read", walks * j * self.stored_vector_nbytes)

    def reset(self) -> None:
        """Forget all vectors (used at restart).

        Fences off the dense view — no read reaches a slot the next cycle
        has not written, so its old columns stay as they are, untouched —
        and clears the accessor payloads (compressed streams, dense
        slots, both without allocating), so neither basis mode can
        observe pre-restart bits through any access path.
        """
        self._forget()
        for acc in self.accessors:
            try:
                acc.clear()
            except NotImplementedError:
                # third-party accessors without clear(): the _written
                # guard alone fences their stale payloads
                pass
