"""Numpy reference kernels for the preconditioner apply paths.

The three hot kernels of :mod:`repro.solvers.preconditioner` — the
sparse unit-lower/upper triangular solves of ILU(0) and the batched
block-diagonal apply of block-Jacobi — are registered here under the
``numpy`` backend of the :mod:`repro.jit` dispatch registry, mirroring
how the codec and SpMV kernels are wired.  The jit engine registers the
same names under ``jit`` and must reproduce these results *bit for bit*
(:mod:`repro.jit.selftest`).

Bit-identity notes
------------------
A sparse triangular solve is a strictly sequential recurrence — row
``i`` consumes the already-solved entries ``y[j], j < i`` — so there is
no vectorized formulation that preserves the evaluation order.  The
reference therefore runs the scalar loops in pure Python over
``.tolist()`` data: a Python ``float`` is an IEEE-754 double and every
``s -= vals[k] * y[cols[k]]`` rounds the multiply, then the subtract,
exactly like the C kernels built with ``-ffp-contract=off``.  The
block-diagonal apply accumulates each output row in stored order for the same reason.
These loops are the *reference semantics*, not the fast path — the jit
engine replays them in compiled code.
"""

from __future__ import annotations

import numpy as np

from ..jit import dispatch as _dispatch

__all__ = [
    "lower_unit_trisolve_numpy",
    "upper_trisolve_numpy",
    "block_diag_apply_numpy",
]


@_dispatch.register("prec.lower_trisolve", "numpy")
def lower_unit_trisolve_numpy(indptr, indices, data, b) -> np.ndarray:
    """Solve ``L y = b`` with ``L`` strictly-lower CSR plus a unit diagonal.

    ``indptr``/``indices``/``data`` hold only the strictly-lower
    entries (the multipliers of the ILU(0) factorization); the unit
    diagonal is implicit.
    """
    n = len(b)
    ip = indptr.tolist()
    cols = indices.tolist()
    vals = data.tolist()
    y = np.asarray(b, dtype=np.float64).tolist()
    for i in range(n):
        s = y[i]
        for k in range(ip[i], ip[i + 1]):
            s -= vals[k] * y[cols[k]]
        y[i] = s
    return np.asarray(y, dtype=np.float64)


@_dispatch.register("prec.upper_trisolve", "numpy")
def upper_trisolve_numpy(indptr, indices, data, udiag, b) -> np.ndarray:
    """Solve ``U y = b`` with ``U`` strictly-upper CSR plus diagonal ``udiag``."""
    n = len(b)
    ip = indptr.tolist()
    cols = indices.tolist()
    vals = data.tolist()
    diag = np.asarray(udiag, dtype=np.float64).tolist()
    y = np.asarray(b, dtype=np.float64).tolist()
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(ip[i], ip[i + 1]):
            s -= vals[k] * y[cols[k]]
        y[i] = s / diag[i]
    return np.asarray(y, dtype=np.float64)


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
