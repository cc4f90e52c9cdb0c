"""The Arnoldi core: the package's one restart cycle (paper Fig. 1).

Every solver of the package runs this module's single restart cycle, for
one right-hand side: :meth:`~repro.solvers.gmres.CbGmres.solve`
validates its input and runs one :class:`_Solve`;
:class:`~repro.solvers.fgmres.FlexibleGmres` runs the same object with
the two hook points overridden, and :class:`repro.robust.RobustCbGmres`
runs it once per fallback attempt.  Tracer spans, breakdown recovery,
the adaptive precision controller and the stats billing are threaded
through the cycle once, here.

Many right-hand sides against one matrix — a coalesced serve attempt,
:func:`repro.serve.worker.run_coalesced_job` — loop this cycle over one
solver.  A lockstep that advanced ``k`` columns through the same step
and turned their ``k`` SpMVs into one multi-vector product measured
0.94–1.04× that loop on the serve workload's groups (see
``docs/ARCHITECTURE.md``, "Arnoldi core"): the orthogonalization and the
basis writes were already per column, and so is every compiled
``matmat``.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional

import numpy as np

from .adaptive import ADAPTIVE_STORAGE, CycleFeedback, PrecisionController
from .basis import KrylovBasis
from .gmres import BreakdownEvent, GmresResult, ResidualSample, SolveStats
from .hessenberg import GivensLeastSquares
from .orthogonal import cgs_orthogonalize

#: ``FusedOpLog`` fields mirrored into ``SolveStats.fused_*``
_FUSED_FIELDS = (
    "dot_calls", "dot_vectors", "axpy_calls", "axpy_vectors",
    "combine_calls", "combine_vectors", "tiles", "values",
)


class _Solve:
    """One right-hand side's restarted solve: its state and its cycle.

    ``solver`` supplies the configuration (operator, restart length,
    tolerances, preconditioner, recovery budget, tracer, storage
    factories) and the two hook points:

    ``solver._direction(s, j) -> z``
        The SpMV operand of step ``j`` — ``M^-1 v`` (Fig. 1 step 2) for
        :class:`~repro.solvers.gmres.CbGmres`.
    ``solver._correction(s) -> update``
        The solution update closing a cycle — ``M^-1 (V_m y)`` (step
        18).  Must read ``s.j_used`` vectors of ``s.stored``: the cycle
        bills them once the update is known to be finite.

    ``basis`` is the Arnoldi basis ``V`` the solve orthogonalizes
    against; ``stored`` is the basis whose traffic the timing model
    prices as compressed and whose format the adaptive ``controller``
    moves — ``V`` itself for CB-GMRES, the second (``Z``) basis of a
    solver with ``_flexible`` set, whose ``V`` stays float64.
    """

    # per-solve progress
    total_iters = 0
    stagnant = 0
    fruitless = 0
    prev_explicit = np.inf
    rrn = np.inf
    converged = False
    stalled = False
    exhausted = False
    finished = False
    # the open Arnoldi cycle
    lsq: Optional[GivensLeastSquares] = None
    v: Optional[np.ndarray] = None
    j_used = 0
    poison: Optional[BreakdownEvent] = None
    in_step = False
    #: adaptive: stat counters at the open cycle's start (for the
    #: per-cycle feedback deltas)
    cycle_mark: Optional[dict] = None

    def __init__(self, solver, b, target, x, record_history, monitor):
        self.solver = solver
        self.b = b
        self.bnorm = float(np.linalg.norm(b))
        self.target = target
        self.x = x
        self.record_history = record_history
        self.monitor = monitor
        self.tracer = tracer = solver.tracer
        a = solver.a
        self.n = n = a.shape[0]
        # Arnoldi SpMV scratch: every matvec of a cycle lands in the same
        # preallocated buffer (the orthogonalization copies w before
        # mutating it, so the buffer never escapes a step); skipped for
        # operators whose matvec lacks an ``out=`` parameter
        try:
            takes_out = "out" in inspect.signature(a.matvec).parameters
        except (TypeError, ValueError):  # builtins/C callables
            takes_out = False
        self.w_out = {"out": np.empty(n)} if takes_out else {}

        storage = solver.storage
        self.label = f"fgmres[{storage}]" if solver._flexible else storage
        # adaptive: the solve's own controller (a fresh one per solve
        # keeps solves of one solver independent — and the cached/
        # streaming bit-identity contract: decisions depend only on
        # explicit residuals, which both modes share exactly) and the
        # stored bits of every format actually used (for the
        # traffic-weighted mean)
        self.controller: Optional[PrecisionController] = None
        if storage == ADAPTIVE_STORAGE:
            self.controller = PrecisionController(solver.precision, tracer=tracer)
        self.bits_seen: Dict[str, float] = {}

        # the single KrylovBasis construction site
        def new_basis(fmt, storage_factory=None) -> KrylovBasis:
            return KrylovBasis(
                n, solver.m, fmt, tracer=tracer,
                basis_mode=solver.basis_mode, tile_elems=solver.tile_elems,
                storage_factory=storage_factory, backend=solver.backend,
            )

        self.stored = new_basis(
            # adaptive: first decision lands before the first write; the
            # ladder top is a never-read placeholder until then
            self.controller.config.ladder[-1] if self.controller else storage,
            solver._storage_factory,
        )
        self.basis = new_basis("float64") if solver._flexible else self.stored
        self.stats = SolveStats(
            n=n,
            nnz=a.nnz,
            bits_per_value=self.stored.bits_per_value,
            spmv_format=a.resolved_format,
            spmv_padded_entries=a.padded_entries,
            basis_mode=solver.basis_mode,
            basis_tile_elems=self.stored.tile_elems,
        )
        self.history: List[ResidualSample] = []
        self.events: List[BreakdownEvent] = []

    # -- bookkeeping ------------------------------------------------------
    def recover(self, event: BreakdownEvent) -> bool:
        """Log a recovery; False — and the solve finished, exhausted —
        once the fruitless budget is spent."""
        self.events.append(event)
        self.stats.recoveries += 1
        self.fruitless += 1
        if self.fruitless > self.solver.max_recoveries:
            self.exhausted = True
            self.finished = True
            return False
        return True

    def bill(self, basis: KrylovBasis, reads: int = 0, writes: int = 0) -> None:
        """Bill vector touches of ``basis`` to the work log.

        The stored basis feeds ``basis_reads``/``basis_writes`` (split
        per storage format under the controller); reads of a separate
        float64 ``V`` are full-width vectors the timing model prices
        uncompressed, and its writes are not stored-basis traffic.
        """
        stats = self.stats
        if basis is not self.stored:
            stats.uncompressed_basis_reads += reads
            return
        stats.basis_reads += reads
        stats.basis_writes += writes
        if self.controller is not None:
            fmt = basis.storage
            self.bits_seen[fmt] = basis.bits_per_value
            for bucket, k in (
                (stats.reads_by_storage, reads), (stats.writes_by_storage, writes)
            ):
                if k:
                    bucket[fmt] = bucket.get(fmt, 0) + k

    def precondition(self, prec, v: np.ndarray) -> np.ndarray:
        """``M^-1 v``, billed; the identity passes ``v`` through."""
        if prec.is_identity:
            return v
        self.stats.preconditioner_applies += 1
        return prec.apply(v)

    def select_storage(self) -> None:
        """Adaptive restart step: feed the finished cycle back, then
        pick this cycle's storage — both on explicit residuals, so the
        decision stream is identical across basis modes."""
        controller, stats, stored = self.controller, self.stats, self.stored
        mark = self.cycle_mark
        if mark is not None:
            controller.observe_cycle(CycleFeedback(
                storage=stored.storage,
                start_rrn=mark["rrn"],
                end_rrn=self.rrn,
                iterations=stats.iterations - mark["iters"],
                reorthogonalizations=stats.reorthogonalizations - mark["reorth"],
                loss_of_orthogonality=any(
                    e.kind == "loss_of_orthogonality"
                    for e in self.events[mark["events"]:]
                ),
                recoveries=stats.recoveries - mark["recov"],
            ))
        decision = controller.decide(self.rrn, self.target)
        if decision.storage != stored.storage:
            stored.set_storage(decision.storage)
        stats.storage_trace.append(decision.storage)
        self.cycle_mark = {
            "rrn": self.rrn,
            "iters": stats.iterations,
            "reorth": stats.reorthogonalizations,
            "recov": stats.recoveries,
            "events": len(self.events),
        }

    # -- the restart cycle ------------------------------------------------
    def run(self) -> GmresResult:
        if self.bnorm == 0.0:
            return GmresResult(
                x=np.zeros(self.n), converged=True, iterations=0, final_rrn=0.0,
                target_rrn=self.target, storage=self.label, history=self.history,
                stats=self.stats,
            )
        span, m = self.tracer.span, self.solver.m
        passes = 0
        while not self.finished:
            with span("restart", index=passes):
                if self.restart():
                    for j in range(1, m + 1):
                        with span("arnoldi", j=j):
                            self.arnoldi_step(j)
                        if not self.in_step:
                            break
                    self.update()
            passes += 1
        return self.verify()

    def restart(self) -> bool:
        """Explicit residual and exit tests; True when a new Arnoldi
        cycle opens (slot 0 written)."""
        solver = self.solver
        with self.tracer.span("spmv"):
            ax = solver.a.matvec(self.x)
        r = self.b - ax
        self.stats.spmv_calls += 1
        self.stats.dense_vector_ops += 2
        beta = float(np.linalg.norm(r))
        if solver.recovery and not np.isfinite(beta):
            # a fault in the restart SpMV itself (x is known finite:
            # poisoned updates are never applied) — recompute on the
            # next pass
            self.recover(BreakdownEvent(self.total_iters, "nonfinite_residual"))
            return False
        self.rrn = beta / self.bnorm
        if self.rrn < self.prev_explicit:
            self.fruitless = 0  # real progress: replenish the budget
        if self.record_history:
            self.history.append(
                ResidualSample(self.total_iters, self.rrn, "explicit")
            )
        if self.rrn <= self.target:
            self.converged = True
            self.finished = True
            return False
        if self.total_iters >= solver.max_iter:
            self.finished = True
            return False
        if solver.stall_restarts is not None and self.stats.restarts > 0:
            if self.rrn > self.prev_explicit * solver.stall_factor:
                self.stagnant += 1
                if self.stagnant >= solver.stall_restarts:
                    self.stalled = True
                    self.finished = True
                    return False
            else:
                self.stagnant = 0
        self.prev_explicit = min(self.prev_explicit, self.rrn)

        if self.controller is not None:
            self.select_storage()
        self.basis.reset()
        if self.stored is not self.basis:
            self.stored.reset()
        self.v = r / beta
        self.lsq = GivensLeastSquares(solver.m, beta)
        self.j_used = 0
        self.poison = None
        self.in_step = True
        self.basis.write_vector(0, self.v)  # storage rejections propagate
        self.bill(self.basis, writes=1)
        return True

    def arnoldi_step(self, j: int) -> None:
        """Fig. 1 steps 2-16 at depth ``j``; clears ``in_step`` when the
        cycle ends here."""
        solver = self.solver
        z = solver._direction(self, j)
        with self.tracer.span("spmv"):
            w = solver.a.matvec(z, **self.w_out)
        stats = self.stats
        stats.spmv_calls += 1
        if solver.recovery and not np.all(np.isfinite(w)):
            self.poison = BreakdownEvent(self.total_iters, "nonfinite_spmv")
            self.in_step = False
            return

        with self.tracer.span("orthogonalize"):
            ores = cgs_orthogonalize(self.basis, j, w, solver.eta)
        self.bill(self.basis, reads=2 * j if ores.reorthogonalized else j)
        stats.reorthogonalizations += int(ores.reorthogonalized)
        stats.dense_vector_ops += 4
        if solver.recovery and ores.nonfinite:
            self.poison = BreakdownEvent(
                self.total_iters, "nonfinite_orthogonalization"
            )
            self.in_step = False
            return
        self.total_iters += 1
        stats.iterations += 1
        impl = self.lsq.append_column(ores.h, ores.h_next) / self.bnorm
        self.j_used = j
        if self.record_history:
            self.history.append(ResidualSample(self.total_iters, impl, "implicit"))
        if self.monitor is not None:
            self.monitor(self.total_iters, j, self.basis, impl)
        if ores.breakdown:
            self.in_step = False  # happy breakdown: solution is in the subspace
            return
        if solver.recovery and ores.loss_of_orthogonality:
            # the columns absorbed so far are valid: apply the partial
            # update, then restart the cycle early
            self.events.append(
                BreakdownEvent(self.total_iters, "loss_of_orthogonality")
            )
            self.in_step = False
            return
        self.v = ores.w  # the step's own copy: normalised where it is
        self.v /= ores.h_next
        try:
            self.basis.write_vector(j, self.v)
        except (ValueError, OverflowError) as exc:
            if not solver.recovery:
                raise
            self.poison = BreakdownEvent(
                self.total_iters, "basis_write_failed", str(exc)
            )
            self.in_step = False
            return
        self.bill(self.basis, writes=1)
        if impl <= self.target or self.total_iters >= solver.max_iter:
            self.in_step = False

    def update(self) -> None:
        """The solution update closing the cycle."""
        solver = self.solver
        if self.poison is not None:
            # discard the poisoned tail; columns absorbed before the
            # fault are provably finite and are salvaged into a partial
            # update below (the next restart re-anchors on a fresh
            # explicit residual either way)
            if not self.recover(self.poison):
                return
            if self.j_used == 0:
                return  # fault hit before any column was absorbed
        update = solver._correction(self)
        if solver.recovery and not np.all(np.isfinite(update)):
            # corrupted stored vectors leaked into the update: drop it
            self.recover(BreakdownEvent(self.total_iters, "nonfinite_update"))
            return
        self.x = self.x + update
        self.bill(self.stored, reads=self.j_used)
        self.stats.dense_vector_ops += 1
        self.stats.restarts += 1

    def verify(self) -> GmresResult:
        """Final explicit residual, then the result."""
        with self.tracer.span("spmv"):
            ax = self.solver.a.matvec(self.x)
        final_rrn = float(np.linalg.norm(self.b - ax) / self.bnorm)
        self.stats.spmv_calls += 1
        if self.solver.recovery and not np.isfinite(final_rrn):
            # the verification SpMV itself was hit; x is finite, so
            # report the last trustworthy explicit residual, not NaN
            self.events.append(BreakdownEvent(self.total_iters, "nonfinite_residual"))
            final_rrn = self.rrn if np.isfinite(self.rrn) else float(self.prev_explicit)
        return self.finalize(final_rrn)

    def finalize(self, final_rrn: float) -> GmresResult:
        """Close the work log and build the result."""
        stats, stored, controller = self.stats, self.stored, self.controller
        # round-trip formats only know their compressed size after writing
        stats.bits_per_value = stored.bits_per_value
        if controller is not None:
            stats.precision_upshifts = controller.upshifts
            stats.precision_downshifts = controller.downshifts
            # one scalar cannot name a mixed-storage solve's width, so
            # report the traffic-weighted mean of the formats used
            touches = {
                fmt: stats.reads_by_storage.get(fmt, 0)
                + stats.writes_by_storage.get(fmt, 0)
                for fmt in self.bits_seen
            }
            weight = sum(touches.values())
            if weight:
                stats.bits_per_value = (
                    sum(self.bits_seen[f] * t for f, t in touches.items()) / weight
                )
        # every basis of the solve contributes float64 working set and
        # fused-kernel work (flexible GMRES holds two)
        bases = [self.basis] if stored is self.basis else [self.basis, stored]
        stats.basis_peak_float64_bytes = sum(b.peak_float64_bytes for b in bases)
        for name in _FUSED_FIELDS:
            setattr(
                stats, f"fused_{name}",
                sum(getattr(b.fused_log, name) for b in bases),
            )
        return GmresResult(
            x=self.x,
            converged=self.converged,
            iterations=self.total_iters,
            final_rrn=final_rrn,
            target_rrn=self.target,
            storage=self.label,
            history=self.history,
            stats=stats,
            stalled=self.stalled,
            breakdown_events=self.events,
            recovery_exhausted=self.exhausted,
            precision_trace=list(controller.decisions) if controller else [],
        )
