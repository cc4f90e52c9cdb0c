"""Fused compressed-basis kernels (tile-streaming ``V^T w`` / ``V y``)."""

from .batch import BatchTileReader, axpy_batch, dot_basis_batch
from .kernels import (
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
    tile_grid,
)

__all__ = [
    "DEFAULT_TILE_ELEMS",
    "BatchTileReader",
    "CachedTileReader",
    "FusedOpLog",
    "StreamingTileReader",
    "TileReader",
    "axpy_batch",
    "axpy_dot_fused",
    "axpy_fused",
    "bill_dot_fused",
    "combine_fused",
    "dot_basis_batch",
    "dot_basis_fused",
    "tile_grid",
]
