"""Sparse-matrix substrate: CSR/COO containers, the ELL layout, the
SpMV engine that multiplies through them, MatrixMarket I/O
and the Table I synthetic matrix suite."""

from .coo import COOMatrix
from .csr import CSRMatrix
from .ell import ELLMatrix
from .engine import SPMV_FORMATS, SpmvEngine, choose_format
from .io import read_matrix_market, write_matrix_market
from .reorder import (
    Permutation,
    frsz2_kill_fraction,
    magnitude_ordering,
    permute_system,
    reverse_cuthill_mckee,
)
from .suite import SUITE, MatrixSpec, build_matrix, resolve_scale, suite_names

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "SpmvEngine",
    "SPMV_FORMATS",
    "choose_format",
    "Permutation",
    "frsz2_kill_fraction",
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
