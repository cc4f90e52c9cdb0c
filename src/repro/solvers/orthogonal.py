"""Orthogonalization for the Arnoldi process (Fig. 1 steps 4-11).

Classical Gram-Schmidt against the (lossy) stored basis with the
conditional re-orthogonalization of the paper's Fig. 1: after the first
pass, if the remaining norm ``h_{j+1,j}`` dropped below ``eta`` times the
pre-orthogonalization norm, a second pass runs and its coefficients are
accumulated into ``h`` (steps 7-10).  This is the paper's and Ginkgo's
choice (Aliaga et al., *Compressed Basis GMRES on High Performance
GPUs*): one walk of the stored basis per pass, where modified
Gram-Schmidt walks it one vector at a time.  The passes, their norms and
the eta test are one :meth:`KrylovBasis.step` — a single C call on a
compiled row source, :func:`repro.fused.step_rows` (its Python body)
on any other — which the solver also hands its Givens state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fused.kernels import STEP_BREAKDOWN, STEP_LOSS, STEP_NONFINITE, STEP_REORTH
from .basis import KrylovBasis

__all__ = ["OrthogonalizationResult", "cgs_orthogonalize", "DEFAULT_ETA"]

#: re-orthogonalization threshold; 1/sqrt(2) is the usual DGKS-style choice
DEFAULT_ETA = 2.0 ** -0.5


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


def cgs_orthogonalize(
    basis: KrylovBasis, j: int, w: np.ndarray, eta: float = DEFAULT_ETA
) -> OrthogonalizationResult:
    """Classical Gram-Schmidt with conditional re-orthogonalization: the
    Arnoldi step of :meth:`KrylovBasis.step` without a Givens update
    (``w`` is left as it is; the result holds an orthogonalized copy)."""
    flags, h, w, h_next, _ = basis.step(j, w, eta)
    return OrthogonalizationResult(
        h=h,
        h_next=h_next,
        w=w,
        reorthogonalized=bool(flags & STEP_REORTH),
        breakdown=bool(flags & STEP_BREAKDOWN),
        nonfinite=bool(flags & STEP_NONFINITE),
        loss_of_orthogonality=bool(flags & STEP_LOSS),
    )
