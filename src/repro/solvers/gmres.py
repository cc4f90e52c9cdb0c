"""Restarted CB-GMRES with a compressed Krylov basis (paper Fig. 1).

The solver follows the paper's algorithmic formulation exactly:

* Gram-Schmidt against the stored basis, twice for every vector, by
  DCGS2 (:mod:`repro.solvers.orthogonal`: a vector's second pass shares
  the walks of the next one's first) — where the paper's Fig. 1 runs
  classical Gram-Schmidt with a conditional second pass;
* incremental Givens least squares giving the *implicit* residual norm
  every iteration; the *explicit* residual is recomputed only at each
  restart — producing the correction jumps of Fig. 9a;
* restart length ``m = 100`` (paper Section V-B), initial guess
  ``x0 = 0``, stopping criterion ``||b - A x|| <= target_rrn * ||b||``;
* the Krylov basis lives behind the Accessor in a reduced storage
  format (float64/float32/float16/frsz2_*/Table-II round trips); the
  newest vector is kept in double precision for the SpMV of the next
  iteration, matching Ginkgo's CB-GMRES.

The paper's own experiments run unpreconditioned (Section V-C: "We do
not use any preconditioner to not blur the numerical impact") and that
remains the default here, but the iteration is right-preconditioned:
pass ``preconditioner=`` (see :mod:`repro.solvers.preconditioner`, or
``make_preconditioner`` for the CLI names) to solve ``A M^-1 u = b``
with ``x = M^-1 u``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, List, Optional

import numpy as np

from ..accessor import VectorAccessor
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER
from ..sparse.csr import CSRMatrix
from ..sparse.engine import SPMV_FORMATS, SpmvEngine
from .adaptive import CycleRecord
from .basis import BASIS_MODES, KrylovBasis
from .orthogonal import DEFAULT_ETA
from .preconditioner import IdentityPreconditioner, Preconditioner

__all__ = [
    "ResidualSample",
    "BreakdownEvent",
    "SolveStats",
    "GmresResult",
    "CbGmres",
]

#: paper default restart length
DEFAULT_RESTART = 100
#: paper default iteration cap (Section V-C calibration runs)
DEFAULT_MAX_ITER = 20_000
#: default bound on poisoned-cycle recoveries before the solve gives up
DEFAULT_MAX_RECOVERIES = 10


@dataclass(frozen=True)
class ResidualSample:
    """One point of the convergence history."""

    iteration: int
    rrn: float
    #: "implicit" (Givens estimate) or "explicit" (recomputed at restart)
    kind: str


@dataclass(frozen=True)
class BreakdownEvent:
    """One detected Arnoldi breakdown or poisoned cycle.

    ``kind`` is one of ``"nonfinite_spmv"`` (NaN/Inf out of the matvec),
    ``"nonfinite_orthogonalization"`` (corrupted basis contaminated the
    Hessenberg column), ``"nonfinite_update"`` (the solution update
    itself was poisoned), ``"nonfinite_residual"`` (the restart residual
    came back non-finite), ``"basis_write_failed"`` (the storage format
    rejected the vector), or ``"loss_of_orthogonality"`` (a vector's second
    Gram-Schmidt pass took most of it: ``rho < eta``).
    """

    iteration: int
    kind: str
    detail: str = ""


@dataclass
class SolveStats:
    """Work log of a solve, priced by the GPU timing model (Fig. 11,
    :func:`repro.gpu.timing.solve_phases`).

    The basis traffic is counted per restart cycle, in ``cycles``: the
    walks each Arnoldi step made over the basis (the dot and the axpy of
    width two: ``2k`` vectors over ``k`` stored ones, and two more for
    the close of a cycle's last column), the solution update's walk over
    ``j_used`` vectors, and the
    vectors written, each at the cycle's storage.  Together with ``n``
    and the SpMV log this determines the bytes a GPU implementation
    moves.
    """

    n: int = 0
    nnz: int = 0
    bits_per_value: float = 64.0
    iterations: int = 0
    restarts: int = 0
    spmv_calls: int = 0
    dense_vector_ops: int = 0
    reorthogonalizations: int = 0
    preconditioner_applies: int = 0
    #: poisoned Arnoldi cycles discarded and restarted (fault tolerance)
    recoveries: int = 0
    #: storage format the SpMV kernel executed in ("csr"/"ell")
    spmv_format: str = "csr"
    #: stored slots of that layout including padding (``nnz`` for CSR)
    spmv_padded_entries: int = 0
    #: basis kernel structure: "cached" (materialized) or "streaming"
    basis_mode: str = "cached"
    #: fused-kernel tile size in elements (after granularity rounding)
    basis_tile_elems: int = 0
    #: largest float64 working set the basis held during the solve
    basis_peak_float64_bytes: int = 0
    #: row-tiles the fused walks visited, over every basis of the solve
    fused_tiles: int = 0
    #: one :class:`~repro.solvers.adaptive.CycleRecord` per restart
    #: cycle the solve opened, in order
    cycles: List[CycleRecord] = field(default_factory=list)


@dataclass
class GmresResult:
    """Outcome of a CB-GMRES solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    final_rrn: float
    target_rrn: float
    storage: str
    history: List[ResidualSample] = field(default_factory=list)
    stats: SolveStats = field(default_factory=SolveStats)
    stalled: bool = False
    #: every breakdown/fault detected during the solve (empty = clean run)
    breakdown_events: List[BreakdownEvent] = field(default_factory=list)
    #: the recovery budget ran out before the solve could finish
    recovery_exhausted: bool = False

    @property
    def recoveries(self) -> int:
        """Poisoned cycles that were discarded and restarted."""
        return self.stats.recoveries

    def history_arrays(self, kind: Optional[str] = None):
        """(iterations, rrns) arrays, optionally filtered by sample kind."""
        samples = [s for s in self.history if kind is None or s.kind == kind]
        its = np.array([s.iteration for s in samples], dtype=np.int64)
        rrns = np.array([s.rrn for s in samples])
        return its, rrns


def _is_count(value, least: int) -> bool:
    """``value`` is an integer (not a bool) ``>= least``."""
    return (
        isinstance(value, Integral) and not isinstance(value, bool) and value >= least
    )


class CbGmres:
    """Compressed-basis restarted GMRES.

    Parameters
    ----------
    a:
        System matrix: a :class:`~repro.sparse.csr.CSRMatrix` (wrapped in
        a :class:`~repro.sparse.engine.SpmvEngine` of ``spmv_format``), a
        pre-built engine (kept, with its format), or an operator decorator
        around one such as a fault injector.
    storage:
        Krylov-basis storage format name (see
        :func:`repro.accessor.list_storage_formats`), or ``"adaptive"``:
        the storage is then a per-restart decision of a
        :class:`~repro.solvers.adaptive.PrecisionController`
        (downshifting toward frsz2_16 when the error model admits it,
        never again to a rung at or below one whose cycle was in
        distress — see
        :mod:`repro.solvers.adaptive` and ``docs/PRECISION.md``).
        Adaptive results keep ``storage="adaptive"``; each of their
        ``stats.cycles`` records names its storage and why the
        controller chose it.
    m:
        Restart length (paper: 100).
    eta:
        The threshold of Fig. 1, with ``0 < eta < 1``: a breakdown when a
        new direction keeps less than ``eta eps`` of its norm, a loss of
        orthogonality when a vector's second pass leaves less than
        ``eta`` of it.
    max_iter:
        Global iteration cap (paper: 20,000), an integer ``>= 1``.
    stall_restarts:
        Optional early exit: if this many consecutive restarts fail to
        improve the best explicit residual by 0.1 %
        (:data:`repro.solvers.block.STALL_FACTOR`), the solve is
        declared stalled (saves the full 20k iterations on hopeless
        format/problem combinations like float16 on PR02R; ``None``
        reproduces the paper's run-to-the-cap behaviour).  An integer
        ``>= 1``.
    preconditioner:
        Right preconditioner ``M`` (the ``M^-1`` of Fig. 1); default is
        the identity, matching the paper's experiments (Section V-C).
    spmv_format:
        SpMV layout of the engine built around a ``CSRMatrix``:
        ``"csr"`` (default) multiplies by the matrix as stored,
        ``"ell"`` forces that layout, ``"auto"`` lets
        :func:`repro.sparse.engine.choose_format` pick from the row
        lengths.  Every layout gives the same bits.
    recovery:
        When True (default), NaN/Inf escaping the Arnoldi loop — from a
        faulty SpMV, a corrupted stored basis vector, or a poisoned
        orthogonalization — ends the cycle at the fault: Hessenberg
        columns absorbed *before* the fault are salvaged into a partial
        solution update, the poisoned tail is discarded, and the next
        cycle restarts from a fresh explicit residual instead of
        crashing or silently diverging.  Each such event is a
        *recovery*, logged in ``SolveStats.recoveries`` and
        ``GmresResult.breakdown_events``.
    basis_mode:
        ``"cached"`` (default) materializes the decompressed basis in a
        dense float64 view; ``"streaming"`` never does — the fused
        kernels decode one compressed tile at a time (``O(tile)``
        float64 working set, the paper's in-register fusion structure).
        The two modes are bit-identical.
    tracer:
        Optional :class:`repro.observe.Tracer`.  When given, the solve
        emits nested wall-clock spans (``restart`` / ``arnoldi`` /
        ``spmv`` / ``orthogonalize`` / ``basis_read`` / ``basis_write``
        / ``update``) and counters through every instrumented layer
        (basis, accessors, FRSZ2 codec); the operator's own span and
        ``spmv.*`` counters come only from a tracer the caller assigns
        to the engine.  The default null tracer is a
        set of no-ops: results are bit-identical either way, since
        tracing never touches the numerics.
    storage_factory:
        Override the accessor construction with a format-aware
        ``factory(storage, n)``, honored across adaptive format
        switches (ablation studies pass custom block sizes and rounding
        modes, fault injectors wrap storage through this hook).
    max_recoveries:
        Bound on *consecutive fruitless* recoveries: the counter grows
        with every recovery and resets whenever the explicit residual
        improves, so transient faults never kill a progressing solve
        while persistent faults end it promptly with
        ``recovery_exhausted=True`` (callers such as
        :class:`repro.robust.RobustCbGmres` then escalate the storage
        format).  An integer ``>= 0``.
    backend:
        Kernel backend (``"numpy"``/``"jit"``, see
        :mod:`repro.jit.dispatch`) threaded onto the SpMV kernels and
        the basis accessors' codec.  The jit kernels are bit-identical
        to numpy, so the solve trajectory is byte-equal across
        backends; ``"jit"`` degrades to ``"numpy"`` with a
        :class:`~repro.jit.dispatch.JitUnavailableWarning` when no
        engine is available.
    """

    def __init__(
        self,
        a: CSRMatrix,
        storage: str = "float64",
        m: int = DEFAULT_RESTART,
        eta: float = DEFAULT_ETA,
        max_iter: int = DEFAULT_MAX_ITER,
        stall_restarts: Optional[int] = 8,
        preconditioner: Optional[Preconditioner] = None,
        recovery: bool = True,
        max_recoveries: int = DEFAULT_MAX_RECOVERIES,
        spmv_format: str = "csr",
        basis_mode: str = "cached",
        tracer=None,
        storage_factory: "Callable[[str, int], VectorAccessor] | None" = None,
        backend: "str | None" = None,
    ) -> None:
        if a.shape[0] != a.shape[1]:
            raise ValueError("GMRES requires a square matrix")
        if m < 1:
            raise ValueError("restart length must be positive")
        # eta >= 1 flags nearly every step as a loss of orthogonality; a
        # NaN or eta <= 0 switches both of its tests off
        if not (isinstance(eta, Real) and 0.0 < eta < 1.0):
            raise ValueError(f"eta must be a finite number with 0 < eta < 1, got {eta!r}")
        if not isinstance(max_iter, Integral) or max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
        # counts: the stall test would read 0 or -3 as 1 and 2.5 as 3, the
        # budget would truncate 2.7 to 2, and a bool is no count at all
        if stall_restarts is not None and not _is_count(stall_restarts, 1):
            raise ValueError(
                "stall_restarts must be None or an integer >= 1, "
                f"got {stall_restarts!r}"
            )
        if not _is_count(max_recoveries, 0):
            raise ValueError(
                f"max_recoveries must be an integer >= 0, got {max_recoveries!r}"
            )
        if spmv_format not in SPMV_FORMATS:
            raise ValueError(
                f"unknown SpMV format {spmv_format!r}; "
                f"expected one of {SPMV_FORMATS}"
            )
        self.spmv_format = spmv_format
        # resolve once so an unavailable-jit warning fires here, not
        # again in every component the resolved name is threaded into
        self.backend = _dispatch.resolve_backend(backend)
        if isinstance(a, CSRMatrix):
            a = SpmvEngine(a, format=spmv_format, backend=self.backend)
        elif not hasattr(a, "resolved_format"):
            raise ValueError(
                "CbGmres multiplies by an SpmvEngine: pass a CSRMatrix, an "
                f"SpmvEngine or an operator wrapped around one; got {type(a).__name__}"
            )
        elif backend is not None and isinstance(a, SpmvEngine):
            # a pre-built engine: switch its kernel in place (bit-identical
            # either way); decorators keep their engine's backend
            a.set_backend(self.backend)
        self.a = a
        self.storage = storage
        self.m = int(m)
        self.eta = float(eta)
        self.max_iter = int(max_iter)
        self.stall_restarts = stall_restarts
        self.preconditioner = preconditioner or IdentityPreconditioner()
        self.recovery = bool(recovery)
        self.max_recoveries = int(max_recoveries)
        if basis_mode not in BASIS_MODES:
            raise ValueError(
                f"unknown basis_mode {basis_mode!r}; expected one of {BASIS_MODES}"
            )
        self.basis_mode = basis_mode
        self.tracer = tracer or NULL_TRACER
        if self.tracer is not NULL_TRACER:
            getattr(self.preconditioner, "attach_tracer", lambda t: None)(
                self.tracer
            )
        self._storage_factory = storage_factory

    def solve(
        self,
        b: np.ndarray,
        target_rrn: float,
        x0: Optional[np.ndarray] = None,
        record_history: bool = True,
        monitor: "Callable[[int, int, KrylovBasis, float], None] | None" = None,
    ) -> GmresResult:
        """Solve ``A x = b`` to ``||b - A x|| <= target_rrn * ||b||``.

        Parameters
        ----------
        b : ndarray, shape (n,), dtype float64
            Right-hand side; ``n`` is the matrix dimension.
        target_rrn : float
            Relative residual norm to reach (the paper's per-matrix
            calibrated targets; see Table I).  Must be non-negative.
        x0 : ndarray, shape (n,), dtype float64, optional
            Initial guess; defaults to the zero vector (paper §V-B).
        record_history : bool, default True
            Record a :class:`ResidualSample` per iteration (implicit
            Givens estimates) and per restart (explicit residuals) in
            ``result.history``.
        monitor : callable, optional
            ``monitor(iteration, j, basis, implicit_rrn)`` is invoked
            after every Arnoldi step with the live (lossy)
            :class:`~repro.solvers.basis.KrylovBasis` — the hook the
            analysis tools use to observe orthogonality decay without
            perturbing the solve.

        Returns
        -------
        GmresResult
            ``x`` (shape ``(n,)``, float64), ``converged``,
            ``iterations``, ``final_rrn`` (explicitly recomputed),
            ``history``, per-kernel ``stats`` (the timing model's
            input), and the ``breakdown_events`` / ``recoveries``
            fault-tolerance log.

        Raises
        ------
        ValueError
            If ``b`` or ``x0`` has the wrong shape or holds a NaN or an
            Inf, or ``target_rrn`` is negative.
        """
        from .block import _Solve

        n = self.a.shape[0]
        b = np.ascontiguousarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},)")
        target = float(target_rrn)
        if target < 0:
            raise ValueError("target_rrn must be non-negative")
        if x0 is None:
            x = np.zeros(n)
        else:
            x = np.array(x0, dtype=np.float64)
            if x.shape != (n,):
                raise ValueError(f"x0 must have shape ({n},)")
        # a NaN would end as ``converged=False`` without a word, an Inf as a
        # divide warning deep in the cycle: refuse both here, by name.  A NaN
        # is the min *and* the max, an Inf one of them — two reductions and no
        # ``isfinite(b)`` temporary, whose ``n`` freed bytes left the
        # allocator in a state that cost ``prec_ilu0``'s float64 twin 5 %
        for name, v in (("right-hand side", b), ("x0", x)):
            if n and not np.isfinite([v.min(), v.max()]).all():
                raise ValueError(f"{name} holds a NaN or an Inf")
        return _Solve(self, b, target, x, record_history, monitor).run()

    # -- the Arnoldi core's two hook points (repro.solvers.block) ------
    #: flexible variants keep V in float64 and fill a second stored basis
    _flexible = False

    def _direction(self, s, j: int) -> np.ndarray:
        """Fig. 1 step 2 operand ``M^-1 v``; the newest vector stays in
        double precision."""
        return s.precondition(self.preconditioner, s.v)

    def _correction(self, s) -> np.ndarray:
        """Fig. 1 step 18: ``M^-1 (V_m y)``."""
        with self.tracer.span("update", columns=s.j_used):
            update = s.basis.combine(s.j_used, s.lsq.solve())
        return s.precondition(self.preconditioner, update)
