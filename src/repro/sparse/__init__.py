"""Sparse-matrix substrate: CSR/COO containers, the ELL / SELL-C-σ
layouts, the SpMV engine that multiplies through them, MatrixMarket I/O
and the Table I synthetic matrix suite."""

from .coo import COOMatrix
from .csr import CSRMatrix
from .ell import ELLMatrix
from .engine import (
    SPMV_FORMATS,
    RowStats,
    SpmvEngine,
    choose_format,
    row_stats,
)
from .io import read_matrix_market, write_matrix_market
from .sell import DEFAULT_SIGMA, DEFAULT_SLICE_SIZE, SELLMatrix
from .reorder import (
    Permutation,
    magnitude_ordering,
    permute_system,
    reverse_cuthill_mckee,
)
from .suite import SUITE, MatrixSpec, build_matrix, resolve_scale, suite_names

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "SELLMatrix",
    "SpmvEngine",
    "SPMV_FORMATS",
    "RowStats",
    "row_stats",
    "choose_format",
    "DEFAULT_SLICE_SIZE",
    "DEFAULT_SIGMA",
    "Permutation",
    "magnitude_ordering",
    "permute_system",
    "reverse_cuthill_mckee",
    "read_matrix_market",
    "write_matrix_market",
    "SUITE",
    "MatrixSpec",
    "build_matrix",
    "resolve_scale",
    "suite_names",
]
