"""CSR sparse matrix: the source layout every SpMV format converts from.

The sparse matrix–vector product is the other memory-bound kernel in
GMRES besides the orthogonalization (paper Section I).  This CSR layout
keeps a precomputed expanded row-index array so SpMV is a gather +
multiply + segmented sum (``np.bincount``) — fully vectorized and robust
to empty rows.  :class:`~repro.sparse.engine.SpmvEngine` is the operator
a solve multiplies by; :meth:`CSRMatrix.matvec` is the plain numpy
product for everything else (building a right-hand side, checking a
residual).
"""

from __future__ import annotations

import numpy as np

from ..jit import dispatch as _dispatch

__all__ = ["CSRMatrix"]


@_dispatch.register("spmv.csr_matvec", "numpy")
def csr_matvec_numpy(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, x: np.ndarray,
    y: np.ndarray,
) -> None:
    """Reference CSR SpMV into ``y``: gather + multiply + segmented sum.

    ``np.bincount`` accumulates the products strictly sequentially in
    stored-entry order, the order the jit kernel replays.
    """
    y[:] = np.bincount(rows, weights=data * x[cols], minlength=y.size)


class CSRMatrix:
    """Compressed sparse row matrix (float64 values, int64 indices)."""

    #: the registered SpMV kernel the engine binds
    kernel_name = "spmv.csr_matvec"

    def __init__(
        self,
        shape: "tuple[int, int]",
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise ValueError(f"indptr must have shape ({m + 1},)")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("column index out of range")
        # expanded row index per stored entry: makes SpMV a bincount
        self._rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(self.indptr))

    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def n(self) -> int:
        """Row count (square systems use this as the problem size)."""
        return self.shape[0]

    @property
    def padded_entries(self) -> int:
        """Stored slots: CSR pads nothing."""
        return self.nnz

    @property
    def padding_ratio(self) -> float:
        return 1.0

    def apply(self, kernel, x: np.ndarray, y: np.ndarray) -> None:
        """``y = A @ x`` through ``kernel``, a ``spmv.csr_matvec``."""
        kernel(self._rows, self.indices, self.data, x, y)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, the numpy reference product."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected x of shape ({self.shape[1]},)")
        y = np.empty(self.shape[0])
        self.apply(csr_matvec_numpy, x, y)
        return y

    # ------------------------------------------------------------------

    def diagonal(self) -> np.ndarray:
        """Main-diagonal entries (zeros where absent)."""
        m, n = self.shape
        d = np.zeros(min(m, n))
        on_diag = self.indices == self._rows
        d_rows = self._rows[on_diag]
        keep = d_rows < d.size
        d[d_rows[keep]] = self.data[on_diag][keep]
        return d

    def row_norms(self, ord: float = np.inf) -> np.ndarray:
        """Per-row norms of the stored values."""
        mags = np.abs(self.data)
        if ord == np.inf:
            out = np.zeros(self.shape[0])
            np.maximum.at(out, self._rows, mags)
            return out
        if ord == 1:
            return np.bincount(self._rows, weights=mags, minlength=self.shape[0])
        if ord == 2:
            sq = np.bincount(self._rows, weights=mags**2, minlength=self.shape[0])
            return np.sqrt(sq)
        raise ValueError("ord must be 1, 2 or inf")

    def scale_rows_cols(self, dr: np.ndarray, dc: np.ndarray) -> "CSRMatrix":
        """Return ``diag(dr) @ A @ diag(dc)`` (used by the hard-matrix
        generators to inject huge dynamic range)."""
        dr = np.asarray(dr, dtype=np.float64)
        dc = np.asarray(dc, dtype=np.float64)
        if dr.shape != (self.shape[0],) or dc.shape != (self.shape[1],):
            raise ValueError("scaling vectors must match the matrix shape")
        data = self.data * dr[self._rows] * dc[self.indices]
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), data)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows, self.indices] = self.data
        return out

    def to_coo(self):
        from .coo import COOMatrix

        return COOMatrix(self.shape, self._rows.copy(), self.indices.copy(), self.data.copy())

    def transpose(self) -> "CSRMatrix":
        return self.to_coo().transpose().to_csr()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CSRMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz}>"
