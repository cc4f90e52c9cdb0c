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
    the storage format.
``streaming``
    Never materializes the basis: the fused kernels of
    :mod:`repro.fused` decode one row-tile of compressed blocks at a
    time and reduce it at once, so the float64 working set is
    ``O(tile)`` — the paper's in-register fusion argument, and the
    CB-GMRES memory argument of Aliaga et al.

Both modes run ``V^T w`` / ``V y`` through the *same* fused reduction in
one written accumulation order (cached hands it the columns of the dense
view in place, streaming the containers to decode), which makes the two
modes bit-identical — asserted across storages in the test suite.  The
traffic a GPU would move is accounted analytically by the timing model
from the iteration log (:class:`repro.solvers.gmres.SolveStats`), not
from the cache.

A fused call costs one kernel call plus ``O(1)`` Python because the basis
*keeps* the row source the call walks for as long as it stays true: the
mirror's rows (and their C pointer) from construction on, and —
streaming, compiled — one :class:`~repro.accessor.Frsz2Tiles` that every
:meth:`KrylovBasis.write_vector` extends in place with the slot it has
just proved eligible.  A call only checks that the leading ``j`` slots
are still those accessors holding those containers
(:meth:`KrylovBasis._rows`); if not, it builds the per-call reader that
proves everything from scratch and loads tile by tile what C cannot walk.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..accessor import Frsz2Tiles, VectorAccessor, accessor_factory
from ..jit import dispatch as _dispatch
from ..fused import (
    DEFAULT_TILE_ELEMS,
    CachedTileReader,
    FusedOpLog,
    StreamingTileReader,
    TileReader,
    axpy_dot_fused,
    axpy_fused,
    bill_dot_fused,
    combine_fused,
    dot_basis_fused,
)
from ..observe import NULL_TRACER

__all__ = ["KrylovBasis", "BASIS_MODES"]

#: supported basis modes (``--basis-mode`` on the CLI)
BASIS_MODES = ("cached", "streaming")


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
        #: per-slot storage-format names (uniform until :meth:`set_storage`
        #: is called with explicit ``slots``)
        self.slot_storages: List[str] = [storage] * (m + 1)
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
        #: fused-kernel work log (tiles, values, peak scratch bytes)
        self.fused_log = FusedOpLog()
        # decompressed view of every written vector (column j = V[:, j]);
        # streaming mode drops it entirely — that is the point
        self._cache: Optional[np.ndarray] = (
            np.zeros((n, m + 1), order="F") if basis_mode == "cached" else None
        )
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

        ``cached``: the dense ``(n, m+1)`` view, allocated up front.
        ``streaming``: what the work buffer the compiled kernels keep
        holds — the ``m+1`` partials of each tile of one round and, per
        thread of the pool, a ``tile``-double decode buffer or the
        ``(m+1, 256)`` row pieces and ``8 (m+1)`` lanes of the sweep,
        whichever is larger — or, if larger, the ``(j, tile)`` scratch of
        a basis reduced tile by tile: ``O(threads x m x tile)`` either
        way, never ``O(n x m)``.
        """
        if self._cache is not None:
            return int(self._cache.nbytes)
        source = self._kept.source
        kept = 0 if source is None else source.work_nbytes
        return max(kept, int(self.fused_log.peak_scratch_bytes))

    def set_storage(self, storage: str, slots: "Optional[List[int]]" = None) -> None:
        """Switch slot(s) to a new storage format.

        The adaptive-precision hook: :class:`~repro.solvers.adaptive.
        PrecisionController` calls this at restart boundaries so each
        restart cycle's basis lives in the format the controller chose;
        per-vector adaptation passes explicit ``slots``.

        Parameters
        ----------
        storage : str
            New storage-format name.
        slots : list of int, optional
            Slot indices to rebuild; default is every slot (and updates
            :attr:`storage`, the basis-wide label).  Mixed-format bases
            are fully supported by both basis modes: the fused tile
            readers fall back to per-accessor tile decodes when slots
            disagree.

        Raises
        ------
        ValueError
            If the new format's decode granularity does not divide the
            established tile grid (the grid is part of the determinism
            contract and never moves after construction).

        Notes
        -----
        Rebuilt slots come back *empty* (their stored payload and the
        cached view column are dropped), so switches belong at restart
        boundaries — exactly where the controller sits — or on slots
        not yet written this cycle.
        """
        targets = list(range(self.m + 1)) if slots is None else list(slots)
        for j in targets:
            if not 0 <= j <= self.m:
                raise IndexError(f"basis slot {j} out of range [0, {self.m}]")
        fresh = [self._make(storage, self.n) for _ in targets]
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
        for j, acc in zip(targets, fresh):
            self.accessors[j] = acc
            self.slot_storages[j] = storage
            if self._cache is not None:
                self._cache[:, j] = 0.0
        if isinstance(self._kept.source, Frsz2Tiles) and targets:
            self._kept.source.truncate(min(targets))
        if slots is None:
            self.storage = storage

    @property
    def uniform_storage(self) -> bool:
        """True while every slot shares one storage format."""
        first = self.slot_storages[0]
        return all(s == first for s in self.slot_storages)

    def write_vector(self, j: int, v: np.ndarray) -> None:
        """Compress ``v`` into slot ``j`` (and refresh the cached view)."""
        if not 0 <= j <= self.m:
            raise IndexError(f"basis slot {j} out of range [0, {self.m}]")
        acc = self.accessors[j]
        with self.tracer.span("basis_write", slot=j):
            acc.write(v)
            if self._cache is not None:
                # refreshing the lossy view decompresses the vector we
                # just wrote (one bulk decode straight into the column;
                # it is part of the write, not a stored-basis read)
                acc.read_into(self._cache[:, j])
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
        hot paths so the traffic reaches the timing model.
        """
        if j >= self._written:
            raise IndexError(f"basis slot {j} has not been written")
        if self._cache is not None:
            return self._cache[:, j]
        return self.accessors[j].read()

    def read_vector(self, j: int) -> np.ndarray:
        """``v_j`` as a *counted* stored-basis read.

        Tallies one vector read (``basis.vector_reads`` /
        ``basis.bytes_read``) exactly like :meth:`dot_basis` does per
        vector — the accounting route for vector-at-a-time consumers
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

    def _read(self, fused, j: int, *operands):
        """One fused kernel over the leading ``j`` vectors, as a counted
        ``basis_read`` (span and counters only under a live tracer)."""
        tracer = self.tracer
        if not tracer.enabled:
            return fused(
                self._rows(j), *operands, self.tile_elems, tracer, self.fused_log
            )
        with tracer.span("basis_read", vectors=j):
            self._count_read(j)
            return fused(
                self._rows(j), *operands, self.tile_elems, tracer, self.fused_log
            )

    def dot_basis(self, j: int, w: np.ndarray) -> np.ndarray:
        """``V_j^T w`` — the orthogonalization read of Fig. 1 step 4."""
        return self._read(dot_basis_fused, j, w)

    def combine(self, j: int, y: np.ndarray) -> np.ndarray:
        """``V_j y`` — the solution-update read of Fig. 1 step 18."""
        return self._read(combine_fused, j, y)

    def axpy(self, j: int, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``w -= V_j y`` in place, fused with the basis decode.

        Element-for-element identical to ``w -= self.combine(j, y)``
        but without materializing the ``(n,)`` product (the fused-update
        structure of the paper's kernels).
        """
        return self._read(axpy_fused, j, y, w)

    def axpy_dot(self, j: int, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``w -= V_j y`` in place, then ``u = V_j^T w`` of the updated ``w``.

        The bits of :meth:`axpy` followed by :meth:`dot_basis` in one
        walk: every stored value read (streaming: decoded) once.  Billed
        as the :meth:`axpy` alone, so the counters keep describing
        Fig. 1's kernels; a caller that uses ``u`` in place of a
        :meth:`dot_basis` calls :meth:`bill_dot`.
        """
        return self._read(axpy_dot_fused, j, y, w)

    def bill_dot(self, j: int) -> None:
        """Bill the :meth:`dot_basis` whose result :meth:`axpy_dot` gave."""
        if self.tracer.enabled:
            self._count_read(j)
        bill_dot_fused(j, self.n, self.tile_elems, self.tracer, self.fused_log)

    def _count_read(self, j: int) -> None:
        """Tally the stored bytes a GPU kernel would stream for ``V_j``
        (callers skip the call under the null tracer)."""
        if j > 0:
            self.tracer.count("basis.vector_reads", j)
            if self.uniform_storage:
                nbytes = j * self.stored_vector_nbytes
            else:  # mixed-format basis: bill each slot at its own width
                nbytes = sum(
                    acc.stored_nbytes() for acc in self.accessors[:j]
                )
            self.tracer.count("basis.bytes_read", nbytes)

    def reset(self) -> None:
        """Forget all vectors (used at restart).

        Clears the dense view *and* the accessor payloads (compressed
        streams, decoded-block caches), so neither basis mode can
        observe pre-restart bits through any access path.
        """
        self._written = 0
        if self._cache is not None:
            self._cache[:] = 0.0
        elif self._kept.source is not None:
            self._kept.source.truncate(0)
        for acc in self.accessors:
            try:
                acc.clear()
            except NotImplementedError:
                # third-party accessors without clear(): the _written
                # guard alone fences their stale payloads
                pass
