"""SELL-C-σ (sliced ELLPACK) storage with per-slice padded width.

SELL-C-σ groups rows into slices of ``C`` consecutive rows and pads
each slice only to *its own* longest row, which bounds the padding that
plain ELLPACK pays on matrices with a few long rows.  The σ parameter
optionally sorts rows by descending length inside windows of ``sigma``
rows before slicing, so similar-length rows share a slice and the
per-slice widths drop further; the permutation and its inverse are
stored so the matrix still acts on unpermuted vectors (Kreutzer et al.'s
SELL-C-σ; Ginkgo's SELL-P variant of it is one of the two SpMV kernels
the Aliaga et al. CB-GMRES paper selects between).

The NumPy kernel groups slices *by width* so one gather + multiply +
``np.add.reduce`` pass covers every slice of equal width — a handful of
fully vectorized passes instead of a Python loop over slices.  As in
:mod:`repro.sparse.ell`, each row's entries accumulate left-to-right in
CSR entry order, so row sums match the CSR kernel bit-for-bit; only the
row *ordering* inside the stored arrays is permuted.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..jit import dispatch as _dispatch
from .csr import CSRMatrix

__all__ = ["SELLMatrix", "DEFAULT_SLICE_SIZE", "DEFAULT_SIGMA", "sell_padded_entries"]


@_dispatch.register("spmv.sell_group_matvec", "numpy")
def sell_group_matvec_numpy(
    rows: np.ndarray,
    cols_t: np.ndarray,
    vals_t: np.ndarray,
    x: np.ndarray,
    work: "np.ndarray | None",
    y: np.ndarray,
) -> None:
    """Reference SELL SpMV for one width group; writes ``y[rows]``.

    ``np.add.reduce`` over the outer axis accumulates each row's slots
    sequentially in CSR entry order — the order the jit kernel replays.
    Padding slots multiply a gathered x entry by 0.0; when x carries
    Inf/NaN that product is an invalid operation (the NaN it yields is
    the documented propagation behaviour), so the warning — not the
    arithmetic — is suppressed.
    """
    if work is None:
        work = np.empty(cols_t.shape)
    with np.errstate(invalid="ignore"):
        # mode="clip" skips per-element bounds checking; the matrix
        # constructor already validated every column index
        np.take(x, cols_t, out=work, mode="clip")
        np.multiply(vals_t, work, out=work)
        y[rows] = np.add.reduce(work, axis=0)


#: GPU-warp-sized slices (Ginkgo's SELL-P default)
DEFAULT_SLICE_SIZE = 32
#: default σ sorting window, in rows (8 slices)
DEFAULT_SIGMA = 256


def _entry_slots(lens: np.ndarray) -> np.ndarray:
    """Per-entry slot index within its row: ``[0..l0), [0..l1), ...``."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens)


def _length_sort_permutation(lengths: np.ndarray, sigma: int) -> np.ndarray:
    """Row permutation sorting by descending length within σ-row windows.

    ``sigma <= 1`` disables sorting (identity).  The sort is stable so
    equal-length rows keep their relative order — the permutation is a
    pure function of the row-length vector.
    """
    m = lengths.size
    perm = np.arange(m, dtype=np.int64)
    if sigma <= 1:
        return perm
    for start in range(0, m, sigma):
        window = slice(start, min(start + sigma, m))
        order = np.argsort(-lengths[window], kind="stable")
        perm[window] = start + order
    return perm


def sell_padded_entries(
    lengths: np.ndarray,
    slice_size: int = DEFAULT_SLICE_SIZE,
    sigma: int = DEFAULT_SIGMA,
) -> int:
    """Stored slots of a SELL-C-σ layout for the given row lengths.

    Counts the device layout: every slice is padded to ``slice_size``
    rows times its own width (the tail slice included), the quantity the
    per-format roofline model charges as SpMV traffic.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    m = int(lengths.size)
    if m == 0:
        return 0
    perm = _length_sort_permutation(lengths, sigma)
    sorted_lengths = lengths[perm]
    n_slices = (m + slice_size - 1) // slice_size
    widths = np.zeros(n_slices, dtype=np.int64)
    np.maximum.at(widths, np.arange(m) // slice_size, sorted_lengths)
    return int(slice_size * widths.sum())


class SELLMatrix:
    """Sliced-ELLPACK matrix with per-slice width and σ-window sorting.

    Built via :meth:`from_csr`; the constructor wires the width-grouped
    kernel arrays.  ``perm`` maps storage position -> original row,
    ``inv_perm`` is its inverse.
    """

    #: the registered SpMV kernel the engine binds
    kernel_name = "spmv.sell_group_matvec"

    def __init__(
        self,
        shape: "tuple[int, int]",
        groups: "List[Tuple[np.ndarray, np.ndarray, np.ndarray]]",
        row_lengths: np.ndarray,
        perm: np.ndarray,
        slice_size: int,
        sigma: int,
        slice_widths: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        m, n = self.shape
        #: (original-row indices, cols_t, vals_t) per distinct slice width
        self._groups = [
            (
                np.asarray(rows, dtype=np.int64),
                np.ascontiguousarray(cols_t, dtype=np.int64),
                np.ascontiguousarray(vals_t, dtype=np.float64),
                np.empty(cols_t.shape),
            )
            for rows, cols_t, vals_t in groups
        ]
        for _, cols_t, _, _ in self._groups:
            # the kernel gathers with mode="clip" (no per-element bounds
            # checking), so indices must be proven in range up front
            if cols_t.size and (cols_t.min() < 0 or cols_t.max() >= max(n, 1)):
                raise ValueError("column index out of range")
        self.row_lengths = np.asarray(row_lengths, dtype=np.int64)
        self.perm = np.asarray(perm, dtype=np.int64)
        self.inv_perm = np.empty_like(self.perm)
        self.inv_perm[self.perm] = np.arange(m, dtype=np.int64)
        self.slice_size = int(slice_size)
        self.sigma = int(sigma)
        self.slice_widths = np.asarray(slice_widths, dtype=np.int64)
        self.nnz_ = int(self.row_lengths.sum())

    # ------------------------------------------------------------------

    @classmethod
    def from_csr(
        cls,
        a: CSRMatrix,
        slice_size: int = DEFAULT_SLICE_SIZE,
        sigma: int = DEFAULT_SIGMA,
    ) -> "SELLMatrix":
        """Lossless conversion from CSR.

        Parameters
        ----------
        a : CSRMatrix
            Source matrix; per-row entry order is preserved.
        slice_size : int, default 32
            Rows per slice (``C``); warp-sized on GPUs.
        sigma : int, default 256
            Length-sorting window in rows; ``<= 1`` keeps the natural
            row order (``perm`` is then the identity).
        """
        if slice_size < 1:
            raise ValueError("slice_size must be positive")
        m, n = a.shape
        lengths = np.diff(a.indptr)
        perm = _length_sort_permutation(lengths, sigma)
        pad_col = np.minimum(np.arange(m, dtype=np.int64), max(n - 1, 0))

        n_slices = (m + slice_size - 1) // slice_size
        slice_widths = np.zeros(n_slices, dtype=np.int64)
        slice_of = np.arange(m) // slice_size  # storage position -> slice
        sorted_lengths = lengths[perm]
        np.maximum.at(slice_widths, slice_of, sorted_lengths)

        groups = []
        for width in np.unique(slice_widths):
            members = np.flatnonzero(slice_widths == width)
            # storage positions of every row in these slices
            pos = (
                members[:, None] * slice_size + np.arange(slice_size)
            ).ravel()
            pos = pos[pos < m]
            rows = perm[pos]
            if width == 0:
                continue  # all-empty slices contribute nothing
            w = int(width)
            r = rows.size
            cols_t = np.broadcast_to(pad_col[rows], (w, r)).copy()
            vals_t = np.zeros((w, r))
            lens = lengths[rows]
            src_rows = np.repeat(np.arange(r, dtype=np.int64), lens)
            slot = _entry_slots(lens)
            flat = np.repeat(a.indptr[rows], lens) + slot
            cols_t[slot, src_rows] = a.indices[flat]
            vals_t[slot, src_rows] = a.data[flat]
            groups.append((rows, cols_t, vals_t))
        return cls(
            a.shape, groups, lengths, perm, slice_size, sigma, slice_widths
        )

    def to_csr(self) -> CSRMatrix:
        """Lossless conversion back to CSR (exact round trip)."""
        m, n = self.shape
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(self.row_lengths, out=indptr[1:])
        indices = np.empty(self.nnz_, dtype=np.int64)
        data = np.empty(self.nnz_)
        for rows, cols_t, vals_t, _ in self._groups:
            lens = self.row_lengths[rows]
            src_rows = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
            slot = _entry_slots(lens)
            dest = np.repeat(indptr[rows], lens) + slot
            indices[dest] = cols_t[slot, src_rows]
            data[dest] = vals_t[slot, src_rows]
        return CSRMatrix(self.shape, indptr, indices, data)

    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.nnz_

    @property
    def permuted(self) -> bool:
        """True when σ sorting actually moved rows."""
        return bool(np.any(self.perm != np.arange(self.perm.size)))

    @property
    def padded_entries(self) -> int:
        """Stored slots including padding (slices padded to ``C`` rows)."""
        return int(self.slice_size * self.slice_widths.sum())

    @property
    def padding_ratio(self) -> float:
        """Padded slots per nonzero (1.0 = no padding overhead)."""
        return self.padded_entries / self.nnz_ if self.nnz_ else 1.0

    def apply(self, kernel, x: np.ndarray, y: np.ndarray) -> None:
        """``y = A @ x`` through ``kernel``, a ``spmv.sell_group_matvec``
        run once per width group; per-row accumulation order matches the
        CSR kernel."""
        y[...] = 0.0  # rows of all-empty slices belong to no group
        for rows, cols_t, vals_t, work in self._groups:
            kernel(rows, cols_t, vals_t, x, work, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SELLMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz_} "
            f"C={self.slice_size} sigma={self.sigma} "
            f"padding={self.padding_ratio:.2f}x>"
        )
