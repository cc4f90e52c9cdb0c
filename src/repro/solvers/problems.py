"""Benchmark problem construction (paper Section V-B).

The right-hand side is generated deterministically and identically to
[1]: ``s[i] = sin(i)``, expected solution ``x_sol = s / ||s||_2``, and
``b = A x_sol``.  All solvers start from ``x0 = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..fused import norm2
from ..sparse.csr import CSRMatrix
from ..sparse.suite import SUITE, build_matrix, resolve_scale

__all__ = ["Problem", "make_expected_solution", "make_rhs", "make_problem"]


def make_expected_solution(n: int) -> np.ndarray:
    """``x_sol = s / ||s||`` with ``s[i] = sin(i)`` (paper Section V-B);
    the norm in the fused lane order, so ``b`` is the same whatever the
    host's BLAS threads."""
    s = np.sin(np.arange(n, dtype=np.float64))
    return s / norm2(s)


def make_rhs(a: CSRMatrix) -> "tuple[np.ndarray, np.ndarray]":
    """Deterministic ``(b, x_sol)`` for a matrix, per the paper's recipe."""
    x_sol = make_expected_solution(a.shape[1])
    return a.matvec(x_sol), x_sol


@dataclass
class Problem:
    """A fully specified benchmark instance."""

    name: str
    a: CSRMatrix
    b: np.ndarray
    x_sol: np.ndarray
    target_rrn: float
    scale: str


def make_problem(name: str, scale: Optional[str] = None, target_rrn: Optional[float] = None) -> Problem:
    """Build matrix + rhs + target for a Table I suite entry.

    ``target_rrn`` overrides the registry's (pre)calibrated target; see
    :mod:`repro.solvers.calibration` for the paper's calibration recipe.
    """
    scale = resolve_scale(scale)
    a = build_matrix(name, scale)
    b, x_sol = make_rhs(a)
    if target_rrn is None:
        target_rrn = SUITE[name].target_for(scale)
    return Problem(name=name, a=a, b=b, x_sol=x_sol, target_rrn=target_rrn, scale=scale)
