"""Orthogonalization for the Arnoldi process (Fig. 1 steps 4-11).

Classical Gram-Schmidt against the (lossy) stored basis with the
conditional re-orthogonalization of the paper's Fig. 1: after the first
pass, if the remaining norm ``h_{j+1,j}`` dropped below ``eta`` times the
pre-orthogonalization norm, a second pass runs and its coefficients are
accumulated into ``h`` (steps 7-10).  This is the paper's and Ginkgo's
choice (Aliaga et al., *Compressed Basis GMRES on High Performance
GPUs*): one walk of the stored basis per pass, where modified
Gram-Schmidt walks it one vector at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import KrylovBasis

__all__ = ["OrthogonalizationResult", "cgs_orthogonalize", "DEFAULT_ETA"]

#: re-orthogonalization threshold; 1/sqrt(2) is the usual DGKS-style choice
DEFAULT_ETA = 2.0 ** -0.5

_EPS = float(np.finfo(np.float64).eps)


def _norm(w: np.ndarray) -> float:
    """``||w||_2`` of a float64 vector as a machine float: the dot and the
    correctly rounded root ``np.linalg.norm`` computes for such a vector
    (same bits — held by a test), without its argument handling."""
    return math.sqrt(float(w.dot(w)))


@dataclass
class OrthogonalizationResult:
    """Output of one Arnoldi orthogonalization step."""

    #: h_{1:j,j} — projection coefficients onto the stored basis
    h: np.ndarray
    #: h_{j+1,j} — the norm of the orthogonalized vector
    h_next: float
    #: the orthogonalized (not yet normalized) vector
    w: np.ndarray
    #: whether the conditional second pass ran
    reorthogonalized: bool
    #: breakdown: w vanished against the basis (Fig. 1 step 12)
    breakdown: bool
    #: a NaN/Inf contaminated the coefficients (corrupted basis or w)
    nonfinite: bool = False
    #: the re-orthogonalization pass failed the eta test again ("twice is
    #: enough"): the new direction is numerically inside the stored span,
    #: i.e. the lossy basis has lost orthogonality beyond repair
    loss_of_orthogonality: bool = False


def _finish(
    h: np.ndarray,
    h_next: float,
    w: np.ndarray,
    w_tilde: float,
    reorth: bool,
    h_first: float,
    eta: float,
) -> OrthogonalizationResult:
    """Classify the step outcome of the Gram-Schmidt passes."""
    nonfinite = not (math.isfinite(h_next) and bool(np.isfinite(h).all()))
    breakdown = (not nonfinite) and (
        h_next == 0.0 or h_next < eta * _EPS * w_tilde
    )
    loss = (
        not nonfinite
        and not breakdown
        and reorth
        and h_next < eta * h_first
    )
    return OrthogonalizationResult(
        h=h,
        h_next=h_next,
        w=w,
        reorthogonalized=reorth,
        breakdown=breakdown,
        nonfinite=nonfinite,
        loss_of_orthogonality=loss,
    )


def cgs_orthogonalize(
    basis: KrylovBasis, j: int, w: np.ndarray, eta: float = DEFAULT_ETA
) -> OrthogonalizationResult:
    """Classical Gram-Schmidt with conditional re-orthogonalization."""
    w = np.array(w, dtype=np.float64)
    w_tilde = _norm(w)  # omega-tilde of Fig. 1 step 3
    h = basis.dot_basis(j, w)
    # w -= V_j h and, in the same walk over the stored basis, the u = V_j^T w
    # a second pass starts from: the eta test asks for that pass on nearly
    # every step, and when it does not, u is dropped unbilled
    u = basis.axpy_dot(j, h, w)
    h_next = _norm(w)
    h_first = h_next
    reorth = h_next < eta * w_tilde
    if reorth:
        basis.bill_dot(j)
        basis.axpy(j, u, w)
        h = h + u
        h_next = _norm(w)
    return _finish(h, h_next, w, w_tilde, reorth, h_first, eta)

