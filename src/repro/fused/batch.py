"""Column loops over the solo fused kernels, for a block of operands.

Nothing in the package calls these any more: every basis row is read
where it is stored, so a batched kernel has been a loop of the solo
kernel of :mod:`repro.fused.kernels` over the columns since the
in-register reductions, and the Arnoldi core (:mod:`repro.solvers.block`)
holds one right-hand side.  The module stays because
``benchmarks/perf/layers.py`` imports :class:`BatchTileReader`,
:func:`dot_basis_batch` and :func:`axpy_batch` (``fused.batch_dot_gbps``)
and only a ``[benchmark]`` change may edit the benchmark; it goes with
the one that drops that metric (ROADMAP item 8(c)).

Bit-identity contract
---------------------
Column ``c`` of every batched kernel *is* the solo kernel run against
reader ``c`` and the contiguous column slice ``W[:, cols[c]]`` of the
Fortran-ordered block — the same written accumulation order
(:mod:`repro.fused.kernels`), the same tile grid, hence the same bits as
an independent solve of that column.  Each column also bills its own
:class:`~repro.fused.kernels.FusedOpLog`, tracer counters and accessor
traffic exactly as a solo call does, so per-column work logs — and
therefore the timing model's inputs — match a loop of independent
solves.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..observe import NULL_TRACER
from .kernels import (
    DEFAULT_TILE_ELEMS,
    FusedOpLog,
    TileReader,
    _operand,
    axpy_fused,
    dot_basis_fused,
)

__all__ = [
    "BatchTileReader",
    "dot_basis_batch",
    "axpy_batch",
]


class BatchTileReader:
    """One :class:`~repro.fused.kernels.TileReader` per batch column,
    all at the same depth ``j`` over vectors of the same length ``n``."""

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


def dot_basis_batch(
    reader: BatchTileReader,
    W: np.ndarray,
    cols: Sequence[int],
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    logs: Optional[Sequence[FusedOpLog]] = None,
) -> np.ndarray:
    """``V_j^T w`` for every batch column.

    ``reader.readers[i]`` serves column ``cols[i]`` of the float64,
    Fortran-ordered ``(n, B)`` block ``W``; ``logs[i]`` is that column's
    work log.  Column ``i`` of the Fortran-ordered ``(j, C)`` result is
    ``dot_basis_fused(reader.readers[i], W[:, cols[i]], ...)``.
    """
    W = _operand(W, (reader.n, None), "W", order="F")
    H = np.zeros((reader.j, len(cols)), order="F")
    for i, col in enumerate(cols):
        H[:, i] = dot_basis_fused(
            reader.readers[i], W[:, col], tile_elems, tracer,
            logs[i] if logs is not None else None,
        )
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

    ``Y`` is the Fortran-ordered ``(j, C)`` coefficient block from
    :func:`dot_basis_batch`; column ``i`` applies to ``W[:, cols[i]]``
    through the solo :func:`~repro.fused.kernels.axpy_fused`.
    """
    W = _operand(W, (reader.n, None), "W", order="F")
    Y = _operand(Y, (reader.j, None), "Y", order="F")
    if Y.shape[1] < len(cols):
        raise ValueError(f"Y must hold one column per entry of cols ({len(cols)})")
    for i, col in enumerate(cols):
        axpy_fused(
            reader.readers[i], Y[:, i], W[:, col], tile_elems, tracer,
            logs[i] if logs is not None else None,
        )
    return W
