"""ELLPACK storage with a fully vectorized SpMV kernel.

ELLPACK pads every row to the longest row length and stores the matrix
as two dense ``(width, rows)`` arrays — the layout GPU SpMV kernels use
for stencil/banded matrices because every thread executes the same
number of iterations and all memory accesses are coalesced (the
predecessor paper "Compressed Basis GMRES on High Performance GPUs",
Aliaga et al., switches Ginkgo between CSR and sliced-ELLPACK kernels
on exactly this structure criterion).

The NumPy analog of that kernel comes in two strategies, selected by
problem size:

* **reduce** (small matrices): a ``(width, rows)`` gather + elementwise
  multiply + ``np.add.reduce`` over the padded axis.  Minimal NumPy
  call count, so fixed per-call overhead dominates least.
* **slot-wise** (``rows >= _SLOTWISE_MIN_ROWS``): accumulate one padded
  slot at a time into the output vector, so the per-slot temporaries
  are single ``rows``-length arrays that stay cache-resident instead
  of a ``width x rows`` rectangle streamed through memory three times.

Both strategies accumulate each row's entries sequentially in
left-to-right entry order — the same order ``np.bincount`` uses on the
CSR path — so for matrices without padding-aliasing the ELL matvec is
*bit-identical* to the CSR matvec while avoiding the bincount scatter
entirely.

Padding entries store a zero value and a column index pointing at the
row's own index (clipped to the column count), so padded lanes gather a
value that is live in cache and multiply it by ``0.0``.
"""

from __future__ import annotations

import numpy as np

from ..jit import dispatch as _dispatch
from .csr import CSRMatrix

__all__ = ["ELLMatrix"]

#: row count above which the slot-wise kernel beats the fused reduce —
#: the crossover where cache residency of the per-slot temporaries
#: outweighs the extra NumPy call per padded slot
_SLOTWISE_MIN_ROWS = 4096


@_dispatch.register("spmv.ell_matvec", "numpy")
def ell_matvec_numpy(
    cols_t: np.ndarray,
    vals_t: np.ndarray,
    x: np.ndarray,
    work: "np.ndarray | None",
    y: np.ndarray,
) -> None:
    """Reference ELL SpMV over the transposed ``(width, m)`` layout, into
    ``y``.

    Both strategies accumulate each row's entries sequentially in slot
    (= CSR entry) order, so they are bit-identical to each other and to
    the jit kernel.  ``_SLOTWISE_MIN_ROWS`` is read at call time so the
    strategy crossover stays monkeypatchable.  Padding slots multiply
    their gathered x entry by 0.0; on a non-finite x that product is an
    invalid operation whose NaN is the intended propagation semantics,
    so the warning is suppressed, not the arithmetic.
    """
    width, m = cols_t.shape
    if work is None:
        work = np.empty_like(vals_t)
    with np.errstate(invalid="ignore"):
        if width > 0 and m >= _SLOTWISE_MIN_ROWS:
            # slot-wise: per-slot temporaries stay cache-resident
            np.take(x, cols_t[0], out=y, mode="clip")
            np.multiply(vals_t[0], y, out=y)
            tmp = work[0]
            for k in range(1, width):
                np.take(x, cols_t[k], out=tmp, mode="clip")
                np.multiply(vals_t[k], tmp, out=tmp)
                np.add(y, tmp, out=y)
            return
        # mode="clip" skips per-element bounds checking; the matrix
        # constructor already validated every column index
        np.take(x, cols_t, out=work, mode="clip")
        np.multiply(vals_t, work, out=work)
        # reducing over the outer axis accumulates sequentially in
        # row-entry order (bit-identical to the CSR bincount path); an
        # empty axis yields the additive identity, so width == 0 needs
        # no special case
        np.add.reduce(work, axis=0, out=y)


class ELLMatrix:
    """ELLPACK matrix (float64 values, int64 indices, transposed layout).

    Parameters
    ----------
    shape : tuple of int
        Matrix dimensions ``(rows, cols)``.
    cols_t, vals_t : ndarray, shape (width, rows)
        Column indices and values, one padded row per *column* of the
        arrays (transposed so each padded "diagonal" is contiguous).
    row_lengths : ndarray, shape (rows,)
        True (unpadded) entry count of every row; entries ``k >=
        row_lengths[i]`` of row ``i`` are padding.
    """

    #: the registered SpMV kernel the engine binds
    kernel_name = "spmv.ell_matvec"

    def __init__(
        self,
        shape: "tuple[int, int]",
        cols_t: np.ndarray,
        vals_t: np.ndarray,
        row_lengths: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        m, n = self.shape
        self.cols_t = np.ascontiguousarray(cols_t, dtype=np.int64)
        self.vals_t = np.ascontiguousarray(vals_t, dtype=np.float64)
        self.row_lengths = np.asarray(row_lengths, dtype=np.int64)
        if self.cols_t.shape != self.vals_t.shape:
            raise ValueError("cols_t and vals_t must have the same shape")
        if self.cols_t.ndim != 2 or self.cols_t.shape[1] != m:
            raise ValueError(f"expected (width, {m}) arrays")
        if self.row_lengths.shape != (m,):
            raise ValueError(f"row_lengths must have shape ({m},)")
        if np.any(self.row_lengths < 0) or np.any(self.row_lengths > self.cols_t.shape[0]):
            raise ValueError("row_lengths out of range for the padded width")
        if self.cols_t.size and (
            self.cols_t.min() < 0 or self.cols_t.max() >= max(n, 1)
        ):
            raise ValueError("column index out of range")
        self.width = int(self.cols_t.shape[0])
        self.nnz_ = int(self.row_lengths.sum())
        #: scratch for the gather/multiply passes (never escapes a product)
        self._work = np.empty_like(self.vals_t)

    # ------------------------------------------------------------------

    @classmethod
    def from_csr(cls, a: CSRMatrix) -> "ELLMatrix":
        """Lossless conversion from CSR (row entry order is preserved)."""
        m, n = a.shape
        lengths = np.diff(a.indptr)
        width = int(lengths.max()) if m else 0
        # padding gathers the row's own x entry (always finite alongside
        # the row's real gathers) and multiplies it by zero
        pad_col = np.minimum(np.arange(m, dtype=np.int64), max(n - 1, 0))
        cols_t = np.broadcast_to(pad_col, (width, m)).copy()
        vals_t = np.zeros((width, m))
        rows = np.repeat(np.arange(m, dtype=np.int64), lengths)
        slot = np.arange(a.nnz, dtype=np.int64) - np.repeat(a.indptr[:-1], lengths)
        cols_t[slot, rows] = a.indices
        vals_t[slot, rows] = a.data
        return cls(a.shape, cols_t, vals_t, lengths)

    def to_csr(self) -> CSRMatrix:
        """Lossless conversion back to CSR (exact round trip)."""
        m, n = self.shape
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(self.row_lengths, out=indptr[1:])
        rows = np.repeat(np.arange(m, dtype=np.int64), self.row_lengths)
        slot = np.arange(self.nnz_, dtype=np.int64) - np.repeat(
            indptr[:-1], self.row_lengths
        )
        return CSRMatrix(
            self.shape, indptr, self.cols_t[slot, rows], self.vals_t[slot, rows]
        )

    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.nnz_

    @property
    def padded_entries(self) -> int:
        """Stored slots including padding (the dense rectangle)."""
        return self.shape[0] * self.width

    @property
    def padding_ratio(self) -> float:
        """Padded slots per nonzero (1.0 = no padding overhead)."""
        return self.padded_entries / self.nnz_ if self.nnz_ else 1.0

    def apply(self, kernel, x: np.ndarray, y: np.ndarray) -> None:
        """``y = A @ x`` through ``kernel``, a ``spmv.ell_matvec``; per-row
        accumulation order matches the CSR kernel."""
        kernel(self.cols_t, self.vals_t, x, self._work, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ELLMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz_} "
            f"width={self.width} padding={self.padding_ratio:.2f}x>"
        )
