"""Experiment drivers regenerating every table and figure of the paper.

Each driver returns plain data structures; the benchmark files render
them with :mod:`repro.bench.report`.  The expensive storage-format sweep
(shared by Fig. 7, Fig. 8 and Fig. 11) is memoized per process.

The paper averages Fig. 8 / Fig. 11 over ten runs; our solves are fully
deterministic (synthetic matrices, fixed right-hand sides), so a single
run carries the same information.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ieee754 import biased_exponent, to_bits
from ..gpu.device import DeviceSpec, H100_PCIE
from ..gpu.timing import speedup_table
from ..fused.kernels import STEP_BREAKDOWN, STEP_NONFINITE
from ..solvers.basis import KrylovBasis
from ..solvers.gmres import CbGmres, GmresResult
from ..solvers.orthogonal import DEFAULT_ETA
from ..solvers.problems import make_problem
from ..sparse.suite import SUITE, build_matrix, resolve_scale, suite_names

__all__ = [
    "FIG7_FORMATS",
    "table1_rows",
    "table2_rows",
    "solve_with_storage",
    "convergence_histories",
    "format_sweep",
    "figure7_rows",
    "figure8_rows",
    "figure11_rows",
    "krylov_vectors",
    "krylov_histograms",
    "matrix_exponent_histogram",
]

#: the storage formats of Figs. 7, 8 and 11
FIG7_FORMATS = ("float64", "float32", "float16", "frsz2_32")

_SWEEP_MAX_ITER = 8000
_SWEEP_STALL_RESTARTS = 10


def table1_rows(scale: Optional[str] = None) -> List[Tuple]:
    """Table I: per matrix, analog size/nnz, paper size/nnz, target RRN."""
    scale = resolve_scale(scale)
    rows = []
    for name in suite_names():
        spec = SUITE[name]
        a = build_matrix(name, scale)
        rows.append(
            (
                name,
                a.shape[0],
                a.nnz,
                spec.paper_size,
                spec.paper_nnz,
                spec.target_for(scale),
                spec.paper_target_rrn,
            )
        )
    return rows


def table2_rows() -> List[Tuple]:
    """Table II: compressor name, bound type, requested bound."""
    from ..compressors.pressio import TABLE_II

    return [
        (s.name, s.error_bound_type, s.error_bound)
        for s in TABLE_II.values()
    ]


def solve_with_storage(
    matrix: str,
    storage: str,
    scale: Optional[str] = None,
    max_iter: int = _SWEEP_MAX_ITER,
    target_rrn: Optional[float] = None,
) -> GmresResult:
    """One CB-GMRES solve of a suite problem with a given basis format."""
    p = make_problem(matrix, scale, target_rrn=target_rrn)
    solver = CbGmres(
        p.a, storage, max_iter=max_iter, stall_restarts=_SWEEP_STALL_RESTARTS
    )
    return solver.solve(p.b, p.target_rrn)


def convergence_histories(
    matrix: str,
    storages: Sequence[str],
    scale: Optional[str] = None,
    max_iter: int = _SWEEP_MAX_ITER,
) -> Dict[str, GmresResult]:
    """Residual-norm histories for Fig. 5 / Fig. 6 / Fig. 9."""
    return {
        s: solve_with_storage(matrix, s, scale=scale, max_iter=max_iter)
        for s in storages
    }


@lru_cache(maxsize=4)
def format_sweep(scale: str) -> "Dict[str, Dict[str, GmresResult]]":
    """The full suite x FIG7_FORMATS sweep behind Figs. 7, 8 and 11."""
    out: Dict[str, Dict[str, GmresResult]] = {}
    for name in suite_names():
        out[name] = {
            fmt: solve_with_storage(name, fmt, scale=scale) for fmt in FIG7_FORMATS
        }
    return out


def figure7_rows(scale: Optional[str] = None) -> List[Tuple]:
    """Fig. 7: target and achieved final RRN per matrix and format."""
    scale = resolve_scale(scale)
    sweep = format_sweep(scale)
    rows = []
    for name in suite_names():
        target = SUITE[name].target_for(scale)
        row = [name, target]
        for fmt in FIG7_FORMATS:
            r = sweep[name][fmt]
            row.append(r.final_rrn if r.converged else float("nan"))
        rows.append(tuple(row))
    return rows


def figure8_rows(scale: Optional[str] = None) -> List[Tuple]:
    """Fig. 8: iterations relative to float64 (0 = did not converge)."""
    scale = resolve_scale(scale)
    sweep = format_sweep(scale)
    rows = []
    for name in suite_names():
        base = sweep[name]["float64"].iterations
        row = [name, base]
        for fmt in FIG7_FORMATS:
            r = sweep[name][fmt]
            row.append(r.iterations / base if r.converged and base else 0.0)
        rows.append(tuple(row))
    return rows


@dataclass
class SpeedupSummary:
    """Fig. 11 headline averages."""

    per_matrix: List[Tuple]
    mean_speedup: Dict[str, float]
    mean_speedup_without_pr02r: Dict[str, float]


def figure11_rows(
    scale: Optional[str] = None, device: DeviceSpec = H100_PCIE
) -> SpeedupSummary:
    """Fig. 11: modeled end-to-end speedup over float64 per matrix.

    Bars for non-converged format/problem pairs are removed, and the
    text's headline averages (with and without PR02R) are computed the
    same way the paper reports them.
    """
    scale = resolve_scale(scale)
    sweep = format_sweep(scale)
    per_matrix: List[Tuple] = []
    collected: Dict[str, List[float]] = {fmt: [] for fmt in FIG7_FORMATS}
    collected_no_pr: Dict[str, List[float]] = {fmt: [] for fmt in FIG7_FORMATS}
    for name in suite_names():
        speedups = speedup_table(list(sweep[name].values()), device)
        row = [name]
        for fmt in FIG7_FORMATS:
            s = speedups.get(fmt, float("nan"))
            row.append(s)
            if fmt in speedups:
                collected[fmt].append(s)
                if name != "PR02R":
                    collected_no_pr[fmt].append(s)
        per_matrix.append(tuple(row))
    mean = {f: float(np.mean(v)) if v else float("nan") for f, v in collected.items()}
    mean_no_pr = {
        f: float(np.mean(v)) if v else float("nan")
        for f, v in collected_no_pr.items()
    }
    return SpeedupSummary(
        per_matrix=per_matrix,
        mean_speedup=mean,
        mean_speedup_without_pr02r=mean_no_pr,
    )


def krylov_vectors(
    matrix: str, iterations: Sequence[int], scale: Optional[str] = None
) -> Dict[int, np.ndarray]:
    """Krylov basis vectors v_j at the requested Arnoldi steps (Fig. 2).

    Runs the Arnoldi process in float64 on the suite problem — the
    solver's steps (:meth:`KrylovBasis.step`) — and captures the
    normalized basis vectors the solver would compress.
    """
    p = make_problem(matrix, scale)
    n = p.a.n
    last = max(iterations)
    basis = KrylovBasis(n, last + 1, "float64")
    r = p.b.copy()
    t = r / float(np.linalg.norm(r))
    captured: Dict[int, np.ndarray] = {}
    for j in range(last + 1):
        # the step over j stored vectors finishes v_j and makes the next
        flags, v, t, *_ = basis.step(j, t, p.a.matvec(t), DEFAULT_ETA)
        if v is None:  # not stored: a flag before the write
            break
        if j in iterations:
            captured[j] = v.copy()
        if flags & (STEP_BREAKDOWN | STEP_NONFINITE):
            break  # no next tentative vector
    return captured


def krylov_histograms(
    matrix: str = "atmosmodd",
    iterations: Sequence[int] = (0, 10),
    value_bins: int = 41,
    scale: Optional[str] = None,
):
    """Fig. 2: value and exponent histograms of Krylov vectors.

    Returns ``{iteration: (value_hist, value_edges, exp_values, exp_counts)}``.
    """
    vectors = krylov_vectors(matrix, iterations, scale)
    out = {}
    for j, v in vectors.items():
        hist, edges = np.histogram(v, bins=value_bins)
        exps = biased_exponent(to_bits(np.abs(v))).astype(np.int64) - 1023
        exps = exps[v != 0]
        values, counts = np.unique(exps, return_counts=True)
        out[j] = (hist, edges, values, counts)
    return out


def matrix_exponent_histogram(
    matrix: str = "PR02R", scale: Optional[str] = None, bin_width: int = 4
):
    """Fig. 10: base-2 exponent histogram of all matrix non-zeros."""
    a = build_matrix(matrix, scale)
    data = a.data[a.data != 0.0]
    exps = biased_exponent(to_bits(np.abs(data))).astype(np.int64) - 1023
    lo = int(exps.min()) // bin_width * bin_width
    hi = (int(exps.max()) // bin_width + 1) * bin_width
    edges = np.arange(lo, hi + bin_width, bin_width)
    hist, _ = np.histogram(exps, bins=edges)
    return edges[:-1], hist
