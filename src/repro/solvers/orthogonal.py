"""Orthogonalization for the Arnoldi process (Fig. 1 steps 4-11), by DCGS2.

The paper's Fig. 1 runs classical Gram-Schmidt with a conditional second
pass (the ``eta`` test of steps 7-10): up to three walks of the stored
basis per step.  This package runs the low-synchronization DCGS2 of
Świrydowicz et al. (NLAA 2021) and Bielich et al. (Parallel Computing
2022) instead: the second pass of a vector is delayed to the next step,
where it shares the walks of the next vector's first pass — two walks of
width two per step (``V^T t`` with ``V^T w``, then ``t -= V a`` with
``w -= V b``), each stored value read (decoded) once and used twice.
A step leaves its vector *tentative* — orthogonalized once, normalised,
not stored — and the next step finishes it: ``rho = ||t - V a||`` is
computed explicitly (the stored rows are only as orthonormal as their
storage), ``q = (t - V a) / rho`` is written once, and the Hessenberg
column of the step before becomes final (``h += sigma a``, subdiagonal
``sigma rho``).  ``eta`` keeps two roles: the breakdown test, and a loss
of orthogonality raised when ``rho < eta``.  A breakdown is tested twice:
on the new direction after its one pass (``nu`` below ``eta eps ||w||``,
which an exact cancellation meets), and on the column its second pass
makes final (``sigma rho`` below ``eta eps`` times the column's norm,
which a direction that vanished only to rounding meets — its first pass
leaves a rounding's worth, a tentative vector of noise); either ends the
cycle as a breakdown, never as a loss.  The walks, the norms, the tests
and the Givens update are one :meth:`KrylovBasis.step` — a single C call
on a compiled row source, :func:`repro.fused.step_rows` (its Python
body) on any other.  :func:`cgs_orthogonalize` gives one vector both
passes at once, for a caller that has a single vector to orthogonalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fused import norm2
from ..fused.kernels import STEP_NONFINITE
from .basis import KrylovBasis

__all__ = ["OrthogonalizationResult", "cgs_orthogonalize", "DEFAULT_ETA"]

#: breakdown and loss-of-orthogonality threshold; 1/sqrt(2) is the usual
#: DGKS-style choice
DEFAULT_ETA = 2.0 ** -0.5


@dataclass
class OrthogonalizationResult:
    """Output of :func:`cgs_orthogonalize`: ``w`` orthogonalized twice."""

    #: ``h_{1:j}`` — the coefficients of ``w`` on the stored basis
    h: np.ndarray
    #: ``h_{j+1}`` — the norm the two passes left
    h_next: float
    #: the orthogonalized (not normalised) vector, ``h_next`` times the
    #: second pass's unit vector
    w: np.ndarray
    #: breakdown: ``w`` vanished against the basis, ``h_next`` zero or
    #: below ``eta eps ||w||`` (Fig. 1 step 12)
    breakdown: bool
    #: a NaN/Inf contaminated the coefficients (corrupted basis or w)
    nonfinite: bool = False
    #: the second pass took most of what the first left (below ``eta``
    #: of it): ``w`` is numerically inside the stored span beyond what a
    #: second pass repairs
    loss_of_orthogonality: bool = False


def cgs_orthogonalize(
    basis: KrylovBasis, j: int, w: np.ndarray, eta: float = DEFAULT_ETA
) -> OrthogonalizationResult:
    """Classical Gram-Schmidt with two passes of ``w`` (left as it is)
    against the leading ``j`` stored vectors, each pass the close of
    :meth:`KrylovBasis.step` (the step without a product: two walks of
    width one, nothing stored).  A solver's step gives each vector the
    same two passes, one in each of two steps, sharing their walks with
    the next vector's first; alone, a vector pays for both.  The
    breakdown and the loss are the tests of the paper's Fig. 1 on the
    two passes' norms."""
    flags, q, _, a, _, rho, _, _ = basis.step(j, w, None, eta)
    h, h_next, loss = a, rho, False
    if not flags & STEP_NONFINITE and rho > 0.0:
        flags, q, _, a, _, rho, _, _ = basis.step(j, q, None, eta)
        h, h_next, loss = h + h_next * a, h_next * rho, rho < eta
    nonfinite = bool(flags & STEP_NONFINITE)
    omega = norm2(np.ascontiguousarray(w, dtype=np.float64), basis.tile_elems,
                  basis.backend)
    breakdown = not nonfinite and (
        h_next == 0.0 or h_next < eta * np.finfo(np.float64).eps * omega)
    return OrthogonalizationResult(
        h=h,
        h_next=h_next,
        w=q * h_next if h_next else np.zeros_like(q),
        breakdown=breakdown,
        nonfinite=nonfinite,
        loss_of_orthogonality=loss and not (nonfinite or breakdown),
    )
