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

from ..fused.kernels import givens_column, givens_state, givens_views

__all__ = ["GivensLeastSquares"]


class GivensLeastSquares:
    """Incremental solver for ``min_y ||beta e_1 - H y||_2``.

    The state is one float64 array, :attr:`state`
    (:func:`repro.fused.givens_state`): the rotations ``cs`` and ``sn``,
    the rotated right-hand side ``g``, ``R`` and the Hessenberg matrix
    ``h`` itself, each also a view of its own.  :meth:`append_column`
    absorbs a column in machine floats (:func:`repro.fused.givens_column`);
    the Arnoldi step (:meth:`repro.solvers.KrylovBasis.step`) does the same
    IEEE operations on :attr:`state` in place, so both leave the same bits.
    A step keeps the column it opens *tentative* in ``h`` — the next step
    makes it final and absorbs it — and :meth:`finish` absorbs the
    tentative column a cycle ends on.
    """

    def __init__(self, m: int, beta: float) -> None:
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.state = givens_state(m)
        self._views = givens_views(self.state)
        self.cs, self.sn, self.g, self.r, self.h = self._views
        self.g[0] = beta
        #: number of columns absorbed so far
        self.size = 0

    @property
    def residual_norm(self) -> float:
        """Implicit residual norm ``|g_{j+1}|`` after ``j`` steps."""
        return abs(float(self.g[self.size]))

    def append_column(self, h: np.ndarray, h_next: float) -> float:
        """Absorb Hessenberg column ``(h_{1:j,j}, h_{j+1,j})``.

        Returns the updated implicit residual norm.
        """
        if self.size >= self.m:
            raise RuntimeError("least-squares system is full")
        if not (math.isfinite(h_next) and all(map(math.isfinite, h.tolist()))):
            # A NaN/Inf here would silently poison every later rotation
            # and the right-hand side; fail loudly so the solver's
            # recovery path (or the caller) can discard the cycle.
            raise FloatingPointError("non-finite Hessenberg column")
        residual = givens_column(self._views, self.size, h, h_next)
        self.size += 1
        return residual

    def finish(self) -> float:
        """Absorb the tentative column the last Arnoldi step left in ``h``
        (column :attr:`size`, its subdiagonal below it); returns the
        implicit residual, the one that step read."""
        c = self.size
        return self.append_column(self.h[:c + 1, c], self.h.item(c + 1, c))

    def solve(self) -> np.ndarray:
        """Back-substitute for the minimizer ``y`` over the first j columns."""
        j = self.size
        if j == 0:
            return np.zeros(0)
        r = self.r[:j, :j]
        y = np.zeros(j)
        for i in range(j - 1, -1, -1):
            s = self.g[i] - r[i, i + 1 :] @ y[i + 1 :]
            diag = r[i, i]
            if diag == 0.0:
                # exact breakdown: the subspace already contains the
                # solution; a zero component is the minimum-norm choice
                y[i] = 0.0
            else:
                y[i] = s / diag
        return y
