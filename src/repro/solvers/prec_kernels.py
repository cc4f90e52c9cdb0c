"""Numpy reference kernels for the preconditioner set-up and apply paths.

The hot kernels of :mod:`repro.solvers.preconditioner` — the ILU(0)
numeric factorisation, the sparse unit-lower/upper triangular sweeps
and the batched block-diagonal apply of block-Jacobi — are registered
here under the ``numpy`` backend of the :mod:`repro.jit` dispatch
registry, mirroring how the codec and SpMV kernels are wired.  The jit
engine registers the same names under ``jit`` and must reproduce these
results *bit for bit* (:mod:`repro.jit.selftest`).

Bit-identity notes
------------------
The factorisation and the triangular sweeps are recurrences — row ``i``
consumes the already-finished rows it references — so there is no
vectorized formulation that preserves the evaluation order.  The
references therefore run the scalar loops in pure Python over
``.tolist()`` data: a Python ``float`` is an IEEE-754 double and every
``s -= vals[k] * y[cols[k]]`` rounds the multiply, then the subtract,
exactly like the C kernels built with ``-ffp-contract=off``.  The
block-diagonal apply accumulates each output row in stored order for the same reason.

These loops are the *definition* of the result, not the fast path, and
also what a host without a compiler runs.  What they fix is each row's
operations and their order; the order in which *rows* are visited is
theirs only by convenience.  Rows that do not reference each other can
be computed in any order without moving a bit, which is the freedom the
engine's chunk-wavefront sweeps use (``prec_lower_trisolve`` in
:data:`repro.jit.cbackend.C_SOURCE`).

The two sweeps are prepared once per pattern, like
``frsz2.decode_tile``: the registered kernel takes the pattern arrays
and returns the ``sweep`` that is then called once per apply with the
factor values.  The reference has nothing to prepare; the engine
computes its visiting order there.
"""

from __future__ import annotations

import numpy as np

from ..jit import dispatch as _dispatch

__all__ = [
    "ilu0_factor_numpy",
    "lower_unit_trisolve_numpy",
    "upper_trisolve_numpy",
    "block_diag_apply_numpy",
]


@_dispatch.register("prec.ilu0_factor", "numpy")
def ilu0_factor_numpy(indptr, cols, vals):
    """ILU(0) numeric factorisation on the pattern of column-sorted rows.

    IKJ ordering with a scatter workspace: row ``i`` divides each entry
    left of the diagonal by its column's pivot (``f = lu[kk] / lu[dp]``)
    and subtracts ``f`` times that pivot row's upper part from the
    entries row ``i`` stores (``lu[p] = lu[p] - f * lu[t]``: a rounded
    product, then a rounded difference); nothing outside the pattern is
    created.  Returns ``(lu, diag_pos, row)``: the factored values in
    the pattern's order, each row's diagonal position, and ``-1`` — or
    the first row whose pivot is structurally missing or exactly zero,
    at which the factorisation stops.
    """
    n = len(indptr) - 1
    ip = np.asarray(indptr).tolist()
    cols = np.asarray(cols).tolist()
    lu = np.asarray(vals, dtype=np.float64).tolist()
    pos = [-1] * n
    diag_pos = [-1] * n
    row = -1
    for i in range(n):
        s, e = ip[i], ip[i + 1]
        for k in range(s, e):
            pos[cols[k]] = k
        for kk in range(s, e):
            j = cols[kk]
            if j >= i:
                break
            dp = diag_pos[j]
            f = lu[kk] / lu[dp]
            lu[kk] = f
            for t in range(dp + 1, ip[j + 1]):
                p = pos[cols[t]]
                if p >= 0:
                    lu[p] = lu[p] - f * lu[t]
        dpi = -1
        for k in range(s, e):
            if cols[k] == i:
                dpi = k
                break
        for k in range(s, e):
            pos[cols[k]] = -1
        if dpi < 0 or lu[dpi] == 0.0:
            row = i
            break
        diag_pos[i] = dpi
    return (
        np.asarray(lu, dtype=np.float64),
        np.asarray(diag_pos, dtype=np.int64),
        row,
    )


@_dispatch.register("prec.lower_trisolve", "numpy")
def lower_unit_trisolve_numpy(indptr, indices):
    """Sweeps ``L y = b``, ``L`` strictly-lower CSR plus a unit diagonal.

    ``indptr``/``indices`` hold only the strictly-lower pattern (the
    multipliers of the ILU(0) factorization); the unit diagonal is
    implicit.  Returns ``sweep(data, b)``, which solves for the values
    ``data`` of that pattern.
    """

    def sweep(data, b) -> np.ndarray:
        n = len(b)
        ip = indptr.tolist()
        cols = indices.tolist()
        vals = np.asarray(data, dtype=np.float64).tolist()
        y = np.asarray(b, dtype=np.float64).tolist()
        for i in range(n):
            s = y[i]
            for k in range(ip[i], ip[i + 1]):
                s -= vals[k] * y[cols[k]]
            y[i] = s
        return np.asarray(y, dtype=np.float64)

    return sweep


@_dispatch.register("prec.upper_trisolve", "numpy")
def upper_trisolve_numpy(indptr, indices):
    """Sweeps ``U y = b``, ``U`` strictly-upper CSR plus a diagonal.

    Returns ``sweep(data, udiag, b)`` for the values ``data`` of the
    strictly-upper pattern and the diagonal ``udiag``.
    """

    def sweep(data, udiag, b) -> np.ndarray:
        n = len(b)
        ip = indptr.tolist()
        cols = indices.tolist()
        vals = np.asarray(data, dtype=np.float64).tolist()
        diag = np.asarray(udiag, dtype=np.float64).tolist()
        y = np.asarray(b, dtype=np.float64).tolist()
        for i in range(n - 1, -1, -1):
            s = y[i]
            for k in range(ip[i], ip[i + 1]):
                s -= vals[k] * y[cols[k]]
            y[i] = s / diag[i]
        return np.asarray(y, dtype=np.float64)

    return sweep


@_dispatch.register("prec.block_diag_apply", "numpy")
def block_diag_apply_numpy(blocks, v, bs, n) -> np.ndarray:
    """Apply a block-diagonal operator stored as flattened dense blocks.

    ``blocks`` is the float64 flattening of ``ceil(n/bs)`` row-major
    ``bs x bs`` blocks (the trailing block zero-padded); only the
    leading ``min(bs, n - lo)`` rows/columns of each block are touched,
    so the padding content never reaches the output.
    """
    bl = np.asarray(blocks, dtype=np.float64).tolist()
    vv = np.asarray(v, dtype=np.float64).tolist()
    nb = -(-n // bs)
    out = [0.0] * n
    for b in range(nb):
        lo = b * bs
        hi = min(lo + bs, n)
        base = b * bs * bs
        for i in range(lo, hi):
            s = 0.0
            row = base + (i - lo) * bs
            for k in range(lo, hi):
                s += bl[row + (k - lo)] * vv[k]
            out[i] = s
    return np.asarray(out, dtype=np.float64)
