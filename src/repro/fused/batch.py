"""Batched fused tile kernels for the multi-RHS solve path.

A batched Arnoldi step orthogonalizes one new vector per right-hand
side against that RHS's own stored basis.  All the active bases sit at
the same depth ``j`` (the batch solver runs its columns in lockstep),
so one decoded tile pass can serve every column: the scratch buffer
stacks the per-column ``(j, tile)`` tiles into one C-contiguous
``(C*j, tile)`` rectangle, and — when every basis streams FRSZ2
payloads — the whole stack decodes in a **single**
:meth:`~repro.core.frsz2.FRSZ2.tile_decoder` codec pass per tile (via
:class:`repro.accessor.frsz2_accessor.Frsz2Tiles` over the flattened
``C*j`` accessor list).  That is the throughput claim of
the batched path: the FRSZ2 integer decode is paid once per batch
instead of once per vector.

Bit-identity contract
---------------------
Column ``c`` of every batched kernel is bit-identical to the solo
kernel in :mod:`repro.fused.kernels` run against column ``c`` alone:

* the row block ``scratch[c*j:(c+1)*j, :tl]`` of the stacked scratch
  has exactly the strides of a solo ``(j, tile)`` scratch view (row
  stride = the full tile width), so the per-tile BLAS calls see
  byte-identical operand layouts;
* the right-hand-side block is Fortran-ordered, so each column slice
  ``W[t0:t1, c]`` is contiguous like a solo ``w[t0:t1]``;
* per-tile accumulation order is the solo kernels' fixed tile grid.

Each column also bills its own :class:`~repro.fused.kernels.FusedOpLog`
and tracer counters exactly as a solo call would (including the solo
``j * tile`` scratch share), so per-column work logs — and therefore
the timing model's inputs — match a loop of independent solves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..observe import NULL_TRACER
from .kernels import (
    DEFAULT_TILE_ELEMS,
    FusedOpLog,
    StreamingTileReader,
    TileReader,
    tile_grid,
)

__all__ = [
    "BatchTileReader",
    "dot_basis_batch",
    "axpy_batch",
]


class BatchTileReader:
    """Stacked tile source over one reader per batch column.

    ``load`` fills ``out[c*j:(c+1)*j, :t1-t0]`` with column ``c``'s
    leading-``j`` basis tiles.  When every sub-reader is a
    :class:`~repro.fused.kernels.StreamingTileReader`, the flattened
    ``C*j`` accessor list decodes in one batched codec pass per tile;
    otherwise each sub-reader loads its own row block (bit-identical —
    the batched decode is exchangeable with per-accessor reads).
    """

    def __init__(self, readers: Sequence[TileReader]) -> None:
        readers = list(readers)
        if not readers:
            raise ValueError("BatchTileReader needs at least one reader")
        self.readers = readers
        self.j = int(readers[0].j)
        self.n = int(readers[0].n)
        for r in readers[1:]:
            if r.j != self.j or r.n != self.n:
                raise ValueError("batch readers must share n and j")
        self._tiles = None
        if all(isinstance(r, StreamingTileReader) for r in readers):
            from ..accessor.frsz2_accessor import Frsz2Tiles

            self._tiles = Frsz2Tiles.open(
                [a for r in readers for a in r.accessors]
            )

    @property
    def columns(self) -> int:
        return len(self.readers)

    def load(self, t0: int, t1: int, out: np.ndarray) -> None:
        if self._tiles is not None:
            self._tiles.load(t0, t1, out)
            return
        j = self.j
        for c, r in enumerate(self.readers):
            r.load(t0, t1, out[c * j:(c + 1) * j])


def _stacked_scratch(
    reader: BatchTileReader, tile_elems: int, logs: Optional[Sequence[FusedOpLog]]
) -> np.ndarray:
    tile = min(tile_elems, max(reader.n, 1))
    scratch = np.empty((reader.columns * reader.j, tile))
    if logs is not None:
        # each column observes its own (j, tile) share — what the solo
        # kernel would have allocated for that column alone
        share = reader.j * tile * 8
        for log in logs:
            if log is not None:
                log.observe_scratch(share)
    return scratch


def _count_batch(
    tracer,
    logs: Optional[Sequence[FusedOpLog]],
    kind: str,
    j: int,
    tiles: int,
    n: int,
    columns: int,
) -> None:
    """Bill each column exactly like one solo fused call."""
    if logs is not None:
        for log in logs:
            if log is None:
                continue
            setattr(log, f"{kind}_calls", getattr(log, f"{kind}_calls") + 1)
            setattr(log, f"{kind}_vectors", getattr(log, f"{kind}_vectors") + j)
            log.tiles += tiles
            log.values += j * n
    if tracer.enabled:
        tracer.count(f"basis.fused.{kind}_calls", columns)
        tracer.count("basis.fused.tiles", tiles * columns)
        tracer.count("basis.fused.values", j * n * columns)


def dot_basis_batch(
    reader: BatchTileReader,
    W: np.ndarray,
    cols: Sequence[int],
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    logs: Optional[Sequence[FusedOpLog]] = None,
) -> np.ndarray:
    """``V_j^T w`` for every batch column in one tile sweep.

    Parameters
    ----------
    reader : BatchTileReader
        Stacked tile source; ``reader.readers[i]`` serves ``cols[i]``.
    W : ndarray, shape (n, B), Fortran order
        Vector block; only columns ``cols`` participate.
    cols : sequence of int
        Column indices into ``W``, aligned with ``reader.readers``.
    tile_elems, tracer, logs
        As the solo kernels; ``logs[i]`` is column ``i``'s work log.

    Returns
    -------
    ndarray, shape (j, C), Fortran order
        ``out[:, i]`` is bit-identical to
        ``dot_basis_fused(reader.readers[i], W[:, cols[i]], ...)``.
    """
    j = reader.j
    C = len(cols)
    H = np.zeros((j, C), order="F")
    if j == 0 or C == 0:
        return H
    grid = tile_grid(reader.n, tile_elems)
    scratch = _stacked_scratch(reader, tile_elems, logs)
    for t0, t1 in grid:
        reader.load(t0, t1, scratch)
        tl = t1 - t0
        for i, col in enumerate(cols):
            # the (j, tl) row-block view has solo-scratch strides, and
            # the F-order column slice is contiguous: same BLAS call,
            # same bits as the solo kernel
            H[:, i] += scratch[i * j:(i + 1) * j, :tl] @ W[t0:t1, col]
    _count_batch(tracer, logs, "dot", j, len(grid), reader.n, C)
    return H


def axpy_batch(
    reader: BatchTileReader,
    Y: np.ndarray,
    W: np.ndarray,
    cols: Sequence[int],
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    logs: Optional[Sequence[FusedOpLog]] = None,
) -> np.ndarray:
    """``W[:, c] -= V_j y_c`` in place for every batch column.

    ``Y`` is the ``(j, C)`` coefficient block from
    :func:`dot_basis_batch`; column ``i`` applies to ``W[:, cols[i]]``.
    Bit-identical per column to the solo
    :func:`~repro.fused.kernels.axpy_fused`.
    """
    j = reader.j
    C = len(cols)
    if j == 0 or C == 0:
        return W
    grid = tile_grid(reader.n, tile_elems)
    scratch = _stacked_scratch(reader, tile_elems, logs)
    yjs: List[np.ndarray] = [
        np.ascontiguousarray(Y[:j, i], dtype=np.float64) for i in range(C)
    ]
    for t0, t1 in grid:
        reader.load(t0, t1, scratch)
        tl = t1 - t0
        for i, col in enumerate(cols):
            W[t0:t1, col] -= yjs[i] @ scratch[i * j:(i + 1) * j, :tl]
    _count_batch(tracer, logs, "axpy", j, len(grid), reader.n, C)
    return W


# Backend-shared registration, mirroring repro.fused.kernels: the
# batched tile kernels are the numpy entries here and the identical
# callables under "jit" (see repro.jit.dispatch._ensure_jit_kernels).
from ..jit import dispatch as _dispatch  # noqa: E402

_dispatch.register_kernel("fused.dot_basis_batch", "numpy", dot_basis_batch)
_dispatch.register_kernel("fused.axpy_batch", "numpy", axpy_batch)
