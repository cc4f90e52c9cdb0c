"""The Arnoldi core: the package's one restart cycle (paper Fig. 1).

Every solver of the package runs this module's single restart cycle, for
one right-hand side: :meth:`~repro.solvers.gmres.CbGmres.solve`
validates its input and runs one :class:`_Solve`;
:class:`~repro.solvers.fgmres.FlexibleGmres` runs the same object with
the two hook points overridden, and :class:`repro.robust.RobustCbGmres`
runs it once per fallback attempt.  Tracer spans, breakdown recovery,
the adaptive precision controller and the per-cycle billing are threaded
through the cycle once, here.

Many right-hand sides against one matrix — a serve attempt of several
members, :func:`repro.serve.worker.run_attempt` — loop this cycle over
one solver.  A lockstep that advanced ``k`` columns through the same step
and turned their ``k`` SpMVs into one multi-vector product measured
0.94–1.04× that loop on the serve workload's groups (see
``docs/ARCHITECTURE.md``, "Arnoldi core"): the orthogonalization and the
basis writes were already per column, and so is every compiled
``matmat``.
"""

from __future__ import annotations

import inspect
from typing import List, Optional

import numpy as np

from ..fused import norm2
from ..fused.kernels import STEP_BREAKDOWN, STEP_LOSS, STEP_NONFINITE, step_walks
from .adaptive import ADAPTIVE_STORAGE, LADDER, CycleRecord, PrecisionController
from .basis import KrylovBasis, StorageRefused
from .gmres import BreakdownEvent, GmresResult, ResidualSample, SolveStats
from .hessenberg import GivensLeastSquares

#: a restart counts as progress only when its explicit residual is below
#: this fraction of a reference: the best one so far for the stall exit
#: (``CbGmres(stall_restarts=)``), the cycle's own start for the adaptive
#: controller's distress test
STALL_FACTOR = 0.999


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
        18).  Must walk ``s.j_used`` vectors of ``s.stored`` once: the
        cycle bills that walk.

    ``basis`` is the Arnoldi basis ``V`` the solve orthogonalizes
    against; ``stored`` is the basis whose writes and update the cycle
    records bill at the cycle's storage and whose format the adaptive
    ``controller`` moves — ``V`` itself for CB-GMRES, the second
    (``Z``) basis of a solver with ``_flexible`` set, whose ``V`` stays
    float64 (its records name it ``step_storage``).
    """

    # per-solve progress
    stagnant = 0
    fruitless = 0
    prev_explicit = np.inf
    rrn = np.inf
    converged = False
    stalled = False
    exhausted = False
    finished = False
    # the open Arnoldi cycle: the tentative vector the next step finishes
    # and stores, and the columns whose vectors are stored (the last one
    # tentative until a step or the cycle's end absorbs it)
    lsq: Optional[GivensLeastSquares] = None
    v: Optional[np.ndarray] = None
    j_used = 0
    poison: Optional[BreakdownEvent] = None
    in_step = False
    #: the open cycle's record (the last of ``stats.cycles``), filled as
    #: the cycle runs; None before the first cycle and once the last
    #: one closed
    cycle: Optional[CycleRecord] = None

    def __init__(self, solver, b, target, x, record_history, monitor):
        self.solver = solver
        self.b = b
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
        # explicit residuals, which both modes share exactly)
        self.controller: Optional[PrecisionController] = None
        if storage == ADAPTIVE_STORAGE:
            self.controller = PrecisionController(tracer=tracer)

        # the single KrylovBasis construction site
        def new_basis(fmt, storage_factory=None) -> KrylovBasis:
            return KrylovBasis(
                n, solver.m, fmt, tracer=tracer,
                basis_mode=solver.basis_mode,
                storage_factory=storage_factory, backend=solver.backend,
            )

        self.stored = new_basis(
            # adaptive: first decision lands before the first write; the
            # ladder top is a never-read placeholder until then
            LADDER[-1] if self.controller else storage,
            solver._storage_factory,
        )
        self.basis = new_basis("float64") if solver._flexible else self.stored
        self.bnorm = self.norm(b)
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
    def norm(self, v: np.ndarray) -> float:
        """``||v||`` in the fused lane order over the basis's tile grid
        (:func:`repro.fused.norm2`): no BLAS, so no bit depends on the
        host's BLAS threads."""
        return norm2(v, self.basis.tile_elems, self.basis.backend)

    def recover(self, event: BreakdownEvent) -> bool:
        """Log a recovery, charged to the open cycle; False — and the
        solve finished, exhausted — once the fruitless budget is spent."""
        self.events.append(event)
        self.stats.recoveries += 1
        if self.cycle is not None:
            self.cycle.recoveries += 1
        self.fruitless += 1
        if self.fruitless > self.solver.max_recoveries:
            self.exhausted = True
            self.finished = True
            return False
        return True

    def precondition(self, prec, v: np.ndarray) -> np.ndarray:
        """``M^-1 v``, billed; the identity passes ``v`` through."""
        if prec.is_identity:
            return v
        self.stats.preconditioner_applies += 1
        return prec.apply(v)

    def close_cycle(self, end_rrn: float) -> None:
        """Close the open cycle's record on the next explicit residual."""
        cycle = self.cycle
        cycle.end_rrn = end_rrn
        cycle.bits_per_value = self.stored.bits_per_value
        self.cycle = None

    def open_cycle(self) -> None:
        """Open the new cycle's record.  Adaptive: feed the finished
        cycle back first, then take the record of the storage the
        controller picks — both on explicit residuals, so the decision
        stream is identical across basis modes."""
        cycles, stored, controller = self.stats.cycles, self.stored, self.controller
        if controller is None:
            cycle = CycleRecord(stored.storage, self.rrn)
        else:
            last = cycles[-1] if cycles else None
            if last is not None:
                controller.observe_cycle(last)
            cycle = controller.decide(self.rrn, self.target)
            if last is not None and self.tracer.enabled:
                shift = LADDER.index(cycle.storage) - LADDER.index(last.storage)
                if shift:
                    self.tracer.count(
                        "precision.upshifts" if shift > 0 else "precision.downshifts"
                    )
            if cycle.storage != stored.storage:
                stored.set_storage(cycle.storage)
        if self.basis is not stored:
            cycle.step_storage = self.basis.storage
        cycles.append(cycle)
        self.cycle = cycle

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
        cycle opens (its first tentative vector ``r / ||r||``, which the
        first step stores in slot 0)."""
        solver = self.solver
        with self.tracer.span("spmv"):
            ax = solver.a.matvec(self.x)
        r = self.b - ax
        self.stats.spmv_calls += 1
        self.stats.dense_vector_ops += 2
        beta = self.norm(r)
        if solver.recovery and not np.isfinite(beta):
            # a fault in the restart SpMV itself (x is known finite:
            # poisoned updates are never applied) — recompute on the
            # next pass
            self.recover(BreakdownEvent(self.stats.iterations, "nonfinite_residual"))
            return False
        self.rrn = beta / self.bnorm
        if self.cycle is not None:
            self.close_cycle(self.rrn)
        if self.rrn < self.prev_explicit:
            self.fruitless = 0  # real progress: replenish the budget
        if self.record_history:
            self.history.append(
                ResidualSample(self.stats.iterations, self.rrn, "explicit")
            )
        if self.rrn <= self.target:
            self.converged = True
            self.finished = True
            return False
        if self.stats.iterations >= solver.max_iter:
            self.finished = True
            return False
        if solver.stall_restarts is not None and self.stats.restarts > 0:
            if self.rrn > self.prev_explicit * STALL_FACTOR:
                self.stagnant += 1
                if self.stagnant >= solver.stall_restarts:
                    self.stalled = True
                    self.finished = True
                    return False
            else:
                self.stagnant = 0
        self.prev_explicit = min(self.prev_explicit, self.rrn)

        self.open_cycle()
        self.basis.reset()
        if self.stored is not self.basis:
            self.stored.reset()
        self.v = r / beta
        self.lsq = GivensLeastSquares(solver.m, beta)
        self.j_used = 0
        self.poison = None
        self.in_step = True
        return True

    def arnoldi_step(self, j: int) -> None:
        """Fig. 1 steps 2-16 at depth ``j``, by DCGS2: the SpMV of the
        tentative vector, then one step that stores it as ``v_{j-1}``;
        clears ``in_step`` when the cycle ends here."""
        solver = self.solver
        z = solver._direction(self, j)
        with self.tracer.span("spmv"):
            w = solver.a.matvec(z, **self.w_out)
        stats = self.stats
        stats.spmv_calls += 1
        if solver.recovery and not np.all(np.isfinite(w)):
            self.poison = BreakdownEvent(stats.iterations, "nonfinite_spmv")
            self.in_step = False
            return

        # DCGS2's two walks, v_{j-1} finished and stored, the Hessenberg
        # column j - 2 made final and absorbed, column j - 1 opened and the
        # next tentative vector: one step of the basis, its walks billed
        # first (they run before the write a storage may refuse)
        cycle = self.cycle
        walks = step_walks(j - 1)
        cycle.step_walks += walks
        cycle.step_vectors += walks * (j - 1)
        try:
            with self.tracer.span("orthogonalize"):
                flags, q, t, _, _, _, _, residual = self.basis.step(
                    j - 1, self.v, w, solver.eta, self.lsq, solver._flexible)
        except StorageRefused as exc:
            if not solver.recovery or j == 1:
                # a storage that refuses a cycle's first vector
                raise exc.__cause__ from None
            self.poison = BreakdownEvent(
                stats.iterations, "basis_write_failed", str(exc)
            )
            self.in_step = False
            return
        if walks:  # the walks orthogonalized v_{j-1} a second time
            stats.reorthogonalizations += 1
            cycle.reorthogonalizations += 1
        stats.dense_vector_ops += 4
        if flags & STEP_NONFINITE:
            if not solver.recovery:
                raise FloatingPointError("non-finite Hessenberg column")
            self.poison = BreakdownEvent(
                stats.iterations, "nonfinite_orthogonalization"
            )
            self.in_step = False
            return
        if q is None:
            # v_{j-1} was not stored and no column opened: the cycle closes
            # on the columns absorbed so far.  Either one pass had not been
            # enough for it (a loss: the cycle restarts on a fresh
            # residual), or it had vanished — the breakdown of column
            # j - 2, which the step before saw only a rounding of
            if flags & STEP_LOSS and solver.recovery:
                self.events.append(
                    BreakdownEvent(stats.iterations, "loss_of_orthogonality")
                )
                cycle.loss_of_orthogonality = True
            self.in_step = False
            return
        stats.iterations += 1
        cycle.iterations += 1
        if self.basis is self.stored:
            cycle.basis_writes += 1
        else:
            cycle.step_writes += 1
        self.j_used = j
        impl = residual / self.bnorm
        if self.record_history:
            self.history.append(ResidualSample(stats.iterations, impl, "implicit"))
        if self.monitor is not None:
            self.monitor(stats.iterations, j, self.basis, impl)
        if flags & STEP_BREAKDOWN:
            # happy breakdown: the solution is in the subspace, and the
            # new column, whose vector vanished, is final as it is
            self.lsq.finish()
            self.in_step = False
            return
        self.v = t  # the next tentative vector, normalised by the step
        if impl <= self.target or stats.iterations >= solver.max_iter:
            self.in_step = False

    def close(self) -> None:
        """Make the cycle's last column final: the second pass of the
        tentative vector it left, without a product (two walks of width
        one), absorbed like any step's — and, like any step's, a loss of
        orthogonality when that pass takes most of the vector, unless the
        column's final subdiagonal shows a breakdown (which ends nothing
        more).  A stored vector the walks find poisoned leaves that
        column out of the update."""
        j, solver, cycle = self.j_used, self.solver, self.cycle
        with self.tracer.span("orthogonalize"):
            flags = self.basis.step(
                j, self.v, None, solver.eta, self.lsq, solver._flexible)[0]
        walks = step_walks(j)
        cycle.step_walks += walks
        cycle.step_vectors += walks * j
        if flags & STEP_NONFINITE:
            self.j_used = self.lsq.size
        elif flags & STEP_LOSS and solver.recovery:
            self.events.append(
                BreakdownEvent(self.stats.iterations, "loss_of_orthogonality"))
            cycle.loss_of_orthogonality = True

    def update(self) -> None:
        """The solution update closing the cycle."""
        solver = self.solver
        if self.poison is not None:
            # discard the poisoned tail; columns absorbed before the
            # fault are provably finite — a walk has read every vector
            # they update with — and are salvaged into a partial update
            # below (the next restart re-anchors on a fresh explicit
            # residual either way)
            if not self.recover(self.poison):
                return
            self.j_used = self.lsq.size
            if self.j_used == 0:
                return  # fault hit before any column was absorbed
        elif self.j_used > self.lsq.size:
            self.close()
            if self.j_used == 0:
                return
        self.cycle.implicit_rrn = self.lsq.residual_norm / self.bnorm
        update = solver._correction(self)
        self.cycle.update_vectors += self.j_used
        if solver.recovery and not np.all(np.isfinite(update)):
            # corrupted stored vectors leaked into the update: drop it
            self.recover(BreakdownEvent(self.stats.iterations, "nonfinite_update"))
            return
        self.x = self.x + update
        self.stats.dense_vector_ops += 1
        self.stats.restarts += 1

    def verify(self) -> GmresResult:
        """Final explicit residual, then the result."""
        with self.tracer.span("spmv"):
            ax = self.solver.a.matvec(self.x)
        final_rrn = self.norm(self.b - ax) / self.bnorm
        self.stats.spmv_calls += 1
        if self.solver.recovery and not np.isfinite(final_rrn):
            # the verification SpMV itself was hit; x is finite, so
            # report the last trustworthy explicit residual, not NaN
            self.events.append(
                BreakdownEvent(self.stats.iterations, "nonfinite_residual")
            )
            # the last explicit residual is finite, or no restart got one
            final_rrn = self.rrn
        return self.finalize(final_rrn)

    def finalize(self, final_rrn: float) -> GmresResult:
        """Close the work log and build the result."""
        stats, stored = self.stats, self.stored
        if self.cycle is not None:  # no restart after it: the solve ended in it
            self.close_cycle(final_rrn)
        # round-trip formats only know their compressed size after writing
        stats.bits_per_value = stored.bits_per_value
        if self.controller is not None:
            # one scalar cannot name a mixed-storage solve's width, so
            # report the mean of the formats used, weighted by the stored
            # vectors each cycle read or wrote
            bits, touches = {}, {}
            for cycle in stats.cycles:
                fmt = cycle.storage
                bits[fmt] = cycle.bits_per_value
                touches[fmt] = touches.get(fmt, 0) + (
                    cycle.update_vectors + cycle.direction_reads + cycle.basis_writes
                    + (cycle.step_vectors if cycle.step_storage is None else 0)
                )
            weight = sum(touches.values())
            if weight:
                stats.bits_per_value = (
                    sum(bits[f] * t for f, t in touches.items()) / weight
                )
        # every basis of the solve contributes float64 working set and
        # fused-kernel work (flexible GMRES holds two)
        bases = [self.basis] if stored is self.basis else [self.basis, stored]
        stats.basis_peak_float64_bytes = sum(b.peak_float64_bytes for b in bases)
        stats.fused_tiles = sum(b.fused_log.tiles for b in bases)
        return GmresResult(
            x=self.x,
            converged=self.converged,
            iterations=stats.iterations,
            final_rrn=final_rrn,
            target_rrn=self.target,
            storage=self.label,
            history=self.history,
            stats=stats,
            stalled=self.stalled,
            breakdown_events=self.events,
            recovery_exhausted=self.exhausted,
        )
