"""Incremental Givens-rotation QR of the GMRES Hessenberg matrix.

GMRES minimizes ``||beta e_1 - H_m y||`` (Fig. 1 step 18).  Applying one
Givens rotation per Arnoldi step keeps the problem triangular and yields
the *implicit* residual norm for free: after ``j`` steps the magnitude of
the rotated right-hand side's last entry equals the current residual
norm.  This is the quantity GMRES tracks between restarts — the paper's
Fig. 9a jumps happen precisely because this estimate is only re-anchored
by an explicit residual computation at each restart.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GivensLeastSquares"]


class GivensLeastSquares:
    """Incremental solver for ``min_y ||beta e_1 - H y||_2``."""

    def __init__(self, m: int, beta: float) -> None:
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        # R is stored upper-triangular, column j filled at step j
        self._r = np.zeros((m + 1, m))
        # rotations and right-hand side as machine floats: a step touches
        # O(j) scalars, which the interpreter moves faster unboxed — the
        # same IEEE double operations, one rounding each, as on float64
        self._cs: "list[float]" = []
        self._sn: "list[float]" = []
        self._g = [float(beta)] + [0.0] * m
        self._j = 0

    @property
    def size(self) -> int:
        """Number of columns absorbed so far."""
        return self._j

    @property
    def residual_norm(self) -> float:
        """Implicit residual norm ``|g_{j+1}|`` after ``j`` steps."""
        return abs(self._g[self._j])

    def append_column(self, h: np.ndarray, h_next: float) -> float:
        """Absorb Hessenberg column ``(h_{1:j,j}, h_{j+1,j})``.

        Returns the updated implicit residual norm.
        """
        j = self._j
        if j >= self.m:
            raise RuntimeError("least-squares system is full")
        col = h.tolist()
        col.append(float(h_next))
        if not all(map(math.isfinite, col)):
            # A NaN/Inf here would silently poison every later rotation
            # and the right-hand side; fail loudly so the solver's
            # recovery path (or the caller) can discard the cycle.
            raise FloatingPointError("non-finite Hessenberg column")
        col += [0.0] * (j + 2 - len(col))
        # apply the accumulated rotations to the new column
        lo = col[0]
        for i, (c, s) in enumerate(zip(self._cs, self._sn)):
            hi = col[i + 1]
            col[i] = c * lo + s * hi
            lo = -s * lo + c * hi
        # new rotation annihilating the subdiagonal entry
        a, b = lo, col[j + 1]
        # np.hypot, not math.hypot: the two round differently
        r = float(np.hypot(a, b))
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = a / r, b / r
        self._cs.append(c)
        self._sn.append(s)
        col[j], col[j + 1] = r, 0.0
        # rotate the right-hand side
        gj = self._g[j]
        self._g[j] = c * gj
        self._g[j + 1] = -s * gj
        self._r[: len(col), j] = col
        self._j += 1
        return abs(self._g[j + 1])

    def solve(self) -> np.ndarray:
        """Back-substitute for the minimizer ``y`` over the first j columns."""
        j = self._j
        if j == 0:
            return np.zeros(0)
        r = self._r[:j, :j]
        y = np.zeros(j)
        for i in range(j - 1, -1, -1):
            s = self._g[i] - r[i, i + 1 :] @ y[i + 1 :]
            diag = r[i, i]
            if diag == 0.0:
                # exact breakdown: the subspace already contains the
                # solution; a zero component is the minimum-norm choice
                y[i] = 0.0
            else:
                y[i] = s / diag
        return y
