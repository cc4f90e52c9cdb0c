"""Fused compressed-basis kernels (paper Section IV, Fig. 1 steps 4/18).

The paper's central performance claim is *fusion*: FRSZ2 decompression
happens in-register inside the orthogonalization and solution-update
kernels, so the compressed Krylov basis is never materialized as float64
in main memory.  This module reproduces that kernel structure in NumPy:
``dot_basis_fused`` (``V^T w``), ``combine_fused`` (``V y``),
``axpy_fused`` (``w -= V y``) and ``norm_fused`` stream over the stored
basis one *tile* at a time — a tile is a fixed run of storage blocks
decoded for **all** ``j`` vectors at once into a small scratch buffer —
and accumulate the result tile by tile.  The float64 working set is
``O(tile x j)`` instead of the ``O(n x j)`` a materialized basis costs.

Determinism contract
--------------------
Floating-point accumulation order is fixed by the tile grid, the scratch
layout (one C-contiguous ``(j, tile)`` buffer) and the per-tile reduction,
*not* by where the tile's values came from.  A :class:`CachedTileReader`
(slicing a dense decompressed cache) and a :class:`StreamingTileReader`
(decoding compressed payloads on the fly) therefore produce bit-identical
results — the property the ``basis_mode={cached,streaming}`` knob of
:class:`~repro.solvers.basis.KrylovBasis` relies on, and the reason a
full-matrix BLAS call (whose internal blocking differs) is *not* used on
the cached side.

On a GPU each tile maps onto a thread block's registers: the paper's
"46 spare instructions" budget pays for the in-register decode while the
kernel stays bound by *compressed* memory traffic
(:func:`repro.gpu.kernels.fused_dot_cost` models exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER

__all__ = [
    "DEFAULT_TILE_ELEMS",
    "FusedOpLog",
    "TileReader",
    "CachedTileReader",
    "StreamingTileReader",
    "tile_grid",
    "dot_basis_fused",
    "combine_fused",
    "axpy_fused",
    "norm_fused",
]

#: default decoded-tile size in elements (64 FRSZ2 warp blocks); the
#: per-basis value is rounded up to the storage format's block size
DEFAULT_TILE_ELEMS = 2048


@dataclass
class FusedOpLog:
    """Work log of the fused kernels run against one basis.

    Mirrored into :class:`~repro.solvers.gmres.SolveStats` (the
    ``fused_*`` fields) so the GPU timing model can price the fused
    kernels from compressed traffic
    (:meth:`repro.gpu.timing.GmresTimingModel.fused_kernel_seconds`).
    """

    dot_calls: int = 0
    dot_vectors: int = 0
    axpy_calls: int = 0
    axpy_vectors: int = 0
    combine_calls: int = 0
    combine_vectors: int = 0
    norm_calls: int = 0
    tiles: int = 0
    #: decoded values streamed through scratch (sum of tile x j)
    values: int = 0
    #: largest float64 scratch buffer any fused call allocated
    peak_scratch_bytes: int = 0

    def observe_scratch(self, nbytes: int) -> None:
        if nbytes > self.peak_scratch_bytes:
            self.peak_scratch_bytes = int(nbytes)


def tile_grid(n: int, tile_elems: int) -> "List[tuple[int, int]]":
    """The fixed ``[t0, t1)`` tile ranges covering ``n`` elements.

    Both basis modes iterate exactly this grid, which is what pins the
    accumulation order (and hence bit-identity) between them.
    """
    if tile_elems < 1:
        raise ValueError("tile_elems must be positive")
    return [(t0, min(t0 + tile_elems, n)) for t0 in range(0, n, tile_elems)]


class TileReader:
    """Source of decoded basis tiles for the fused kernels.

    A reader exposes ``n`` (vector length), ``j`` (leading vectors) and
    :meth:`load`, which fills ``out[:, :t1 - t0]`` with rows
    ``v_0[t0:t1] ... v_{j-1}[t0:t1]`` in float64.  Subclasses differ only
    in where the values come from; they must deliver bit-identical
    values for the same stored basis.
    """

    n: int
    j: int

    def load(self, t0: int, t1: int, out: np.ndarray) -> None:
        raise NotImplementedError


class CachedTileReader(TileReader):
    """Tiles sliced out of a dense decompressed ``(n, m+1)`` cache."""

    def __init__(self, cache: np.ndarray, j: int) -> None:
        self.cache = cache
        self.n = int(cache.shape[0])
        self.j = int(j)

    def load(self, t0: int, t1: int, out: np.ndarray) -> None:
        out[:, : t1 - t0] = self.cache[t0:t1, : self.j].T


class StreamingTileReader(TileReader):
    """Tiles decoded on the fly from the accessors' compressed payloads.

    A reader lives for one fused call.  On its first :meth:`load` it
    proves, once, whether the leading ``j`` accessors are plain FRSZ2
    accessors with written payloads over one layout (:meth:`repro.
    accessor.frsz2_accessor.Frsz2Tiles.open`); if so every load is one
    codec tile decode straight into the scratch rows — under
    ``backend="jit"`` a single C call through a pointer table built
    then — the analog of the paper's warp-per-block fused decode.
    Wrapped (fault-injecting), mixed-format and unwritten bases take
    one :meth:`~repro.accessor.base.VectorAccessor.read_tile` call per
    vector instead, with identical bits and identical traffic totals.
    (A reader stacked under a :class:`~repro.fused.batch.
    BatchTileReader` whose own source serves every column never loads,
    and so never builds a table of its own.)
    """

    def __init__(self, accessors: Sequence, j: int) -> None:
        self.accessors = list(accessors[:j])
        self.j = int(j)
        self.n = int(accessors[0].n) if accessors else 0
        self._tiles = None
        self._opened = False

    def load(self, t0: int, t1: int, out: np.ndarray) -> None:
        if not self._opened:
            from ..accessor.frsz2_accessor import Frsz2Tiles

            self._tiles = Frsz2Tiles.open(self.accessors)
            self._opened = True
        if self._tiles is not None:
            self._tiles.load(t0, t1, out)
            return
        for row, acc in enumerate(self.accessors):
            out[row, : t1 - t0] = acc.read_tile(t0, t1)


def _scratch_for(reader: TileReader, tile_elems: int, log: Optional[FusedOpLog]) -> np.ndarray:
    scratch = np.empty((reader.j, min(tile_elems, max(reader.n, 1))))
    if log is not None:
        log.observe_scratch(scratch.nbytes)
    return scratch


def _count_call(
    tracer, log: Optional[FusedOpLog], kind: str, vectors: int, tiles: int, values: int
) -> None:
    if log is not None:
        setattr(log, f"{kind}_calls", getattr(log, f"{kind}_calls") + 1)
        if kind != "norm":
            setattr(log, f"{kind}_vectors", getattr(log, f"{kind}_vectors") + vectors)
        log.tiles += tiles
        log.values += values
    if tracer.enabled:
        tracer.count(f"basis.fused.{kind}_calls")
        tracer.count("basis.fused.tiles", tiles)
        tracer.count("basis.fused.values", values)


def dot_basis_fused(
    reader: TileReader,
    w: np.ndarray,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> np.ndarray:
    """``V_j^T w`` streamed tile-by-tile over the compressed basis.

    Parameters
    ----------
    reader : TileReader
        Decoded-tile source for the leading ``j`` basis vectors.
    w : ndarray, shape (n,), dtype float64
        The vector being orthogonalized (Fig. 1 step 4).
    tile_elems : int
        Tile size in elements; part of the determinism contract — the
        same value must be used by both basis modes.
    tracer, log
        Optional observe-layer tracer and :class:`FusedOpLog`.

    Returns
    -------
    ndarray, shape (j,)
        The projection coefficients, accumulated in tile order.
    """
    j = reader.j
    if j == 0:
        return np.zeros(0)
    grid = tile_grid(reader.n, tile_elems)
    scratch = _scratch_for(reader, tile_elems, log)
    h = np.zeros(j)
    for t0, t1 in grid:
        reader.load(t0, t1, scratch)
        h += scratch[:, : t1 - t0] @ w[t0:t1]
    _count_call(tracer, log, "dot", j, len(grid), j * reader.n)
    return h


def combine_fused(
    reader: TileReader,
    y: np.ndarray,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> np.ndarray:
    """``V_j y`` assembled tile-by-tile (Fig. 1 step 18).

    Every output element is produced by exactly one per-tile vec-mat
    product, so the result depends only on the tile grid and scratch
    layout — identical across basis modes.
    """
    j = reader.j
    out = np.zeros(reader.n)
    if j == 0:
        return out
    grid = tile_grid(reader.n, tile_elems)
    scratch = _scratch_for(reader, tile_elems, log)
    yj = np.ascontiguousarray(y[:j], dtype=np.float64)
    for t0, t1 in grid:
        reader.load(t0, t1, scratch)
        out[t0:t1] = yj @ scratch[:, : t1 - t0]
    _count_call(tracer, log, "combine", j, len(grid), j * reader.n)
    return out


def axpy_fused(
    reader: TileReader,
    y: np.ndarray,
    w: np.ndarray,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> np.ndarray:
    """``w -= V_j y`` in place, fused with the basis decode.

    Element-for-element this computes the same update as
    ``w - combine_fused(reader, y)`` (each element is touched once), but
    never materializes the ``(n,)`` product vector: the subtraction
    happens tile-by-tile while the decoded tile is scratch-resident —
    the fused-update kernel of the paper's solution update.
    """
    j = reader.j
    if j == 0:
        return w
    grid = tile_grid(reader.n, tile_elems)
    scratch = _scratch_for(reader, tile_elems, log)
    yj = np.ascontiguousarray(y[:j], dtype=np.float64)
    for t0, t1 in grid:
        reader.load(t0, t1, scratch)
        w[t0:t1] -= yj @ scratch[:, : t1 - t0]
    _count_call(tracer, log, "axpy", j, len(grid), j * reader.n)
    return w


def norm_fused(
    segments: "Callable[[int, int], np.ndarray]",
    n: int,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> float:
    """2-norm of one stored vector, streamed tile-by-tile.

    ``segments(t0, t1)`` returns the decoded values of ``[t0, t1)`` —
    a cache-column slice (cached mode) or a freshly decoded tile
    (streaming mode); both are contiguous float64, so the per-tile
    ``seg @ seg`` reduction and the tile-order accumulation pin the
    result bit-for-bit across modes.
    """
    total = 0.0
    grid = tile_grid(n, tile_elems)
    for t0, t1 in grid:
        seg = segments(t0, t1)
        total += float(seg @ seg)
    _count_call(tracer, log, "norm", 1, len(grid), n)
    return float(np.sqrt(total))


# The fused tile kernels are registered for the numpy backend here; the
# jit backend registers the *same* callables (see
# ``repro.jit.dispatch._ensure_jit_kernels``).  The per-tile BLAS ``@``
# reduction over the C-contiguous ``(j, tile)`` scratch is the
# determinism contract itself — its internal blocking cannot be replayed
# in scalar compiled code — so it stays, in both basis modes and both
# backends.  What ``backend="jit"`` replaces is how a streaming tile gets
# *into* the scratch: one ``frsz2_decode_tile`` C call per tile, through a
# pointer table the :class:`StreamingTileReader` builds once per fused
# call, decoding each block as ``c_sig * 2^(e_max - (l-2) - 1023)`` (an
# exact product whenever ``l <= 54`` and every nonzero value of the block
# is normal; bit assembly otherwise) — byte-equal to the numpy reference
# pass.  A reduction that never materialises the tile is still open
# behind this contract (ROADMAP item 1b).
for _name, _fn in (
    ("fused.dot_basis", dot_basis_fused),
    ("fused.combine", combine_fused),
    ("fused.axpy", axpy_fused),
    ("fused.norm", norm_fused),
):
    _dispatch.register_kernel(_name, "numpy", _fn)
del _name, _fn
