"""The Arnoldi core: one lockstep restart-cycle driver (paper Fig. 1).

Every solver of the package runs this module's single restart cycle:
:meth:`~repro.solvers.gmres.CbGmres.solve` is its width-1 call,
:meth:`~repro.solvers.gmres.CbGmres.solve_batch` its width-``B`` call,
and :class:`~repro.solvers.fgmres.FlexibleGmres` the same calls with
the two hook points overridden (see :class:`_Lockstep`).  Tracer
spans, breakdown recovery, the adaptive precision controller and the
stats billing are threaded through the cycle once, here.

Serving traffic is many right-hand sides against few matrices, so the
driver runs ``B`` simultaneous restarted-GMRES processes against one
matrix: every unfinished column performs its restart evaluation
together (one multi-vector SpMV), and all columns inside an Arnoldi
cycle advance through the same step ``j`` in lockstep, so

* the SpMV is one :meth:`~repro.sparse.engine.SpmvEngine.matmat` over
  the active columns instead of ``B`` separate matvecs,
* the orthogonalization is the solo :func:`~repro.solvers.orthogonal.
  cgs_orthogonalize` of every column in turn — each reads its own basis
  rows where they are stored, so a pass shared between columns would
  save nothing,
* and every column writes its new basis vector itself
  (:meth:`~repro.solvers.basis.KrylovBasis.write_vector`): one batched
  encode of all columns' vectors was measured slower than the loop.

Bit-identity contract
---------------------
Column ``c`` of a batched solve is **bit-identical** to an independent
:meth:`~repro.solvers.gmres.CbGmres.solve` on ``B[:, c]``: identical
solution bits, residual history, iteration counts, events, and
per-column work stats.  This holds because every per-column scalar
decision (convergence, stalling, the eta test, breakdown handling,
recovery budgets, the adaptive controller's storage choice) lives in
that column's own :class:`_Column` state and is evaluated by the same
code at every width, and the one batched kernel is bit-identical per
column to its solo counterpart (see
:meth:`~repro.sparse.csr.CSRMatrix.matmat`).  Columns
that converge, break down, or get poisoned simply leave the lockstep
early — they stop doing work while the rest of the batch proceeds.

Whenever a single column is live (``B == 1``, or the rest of the batch
has finished) — or the operator has no ``matmat``, e.g. a fault
injector — the batched SpMV is bypassed and the step runs the solo
kernel directly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .adaptive import ADAPTIVE_STORAGE, CycleFeedback, PrecisionController
from .basis import KrylovBasis
from .gmres import BreakdownEvent, GmresResult, ResidualSample, SolveStats
from .hessenberg import GivensLeastSquares
from .orthogonal import cgs_orthogonalize, mgs_orthogonalize

__all__ = ["BatchGmresResult", "solve_batch"]

#: ``FusedOpLog`` fields mirrored into ``SolveStats.fused_*``
_FUSED_FIELDS = (
    "dot_calls", "dot_vectors", "axpy_calls", "axpy_vectors",
    "combine_calls", "combine_vectors", "tiles", "values",
)


@dataclass
class BatchGmresResult:
    """Outcome of one batched multi-RHS solve.

    ``results[c]`` is the full :class:`~repro.solvers.gmres.GmresResult`
    of column ``c`` — bit-identical to an independent solve of that
    column.  The batch-level counter records how much work actually ran
    through the shared SpMV.
    """

    results: List[GmresResult] = field(default_factory=list)
    #: multi-vector SpMV invocations (restart + Arnoldi + final check)
    batched_spmv_calls: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> GmresResult:
        return self.results[i]

    def __iter__(self):
        return iter(self.results)

    @property
    def converged(self) -> "List[bool]":
        return [r.converged for r in self.results]

    @property
    def iterations(self) -> "List[int]":
        return [r.iterations for r in self.results]


class _Column:
    """Mutable solver state of one right-hand side.

    ``basis`` is the Arnoldi basis ``V`` the column orthogonalizes
    against; ``stored`` is the basis whose traffic the timing model
    prices as compressed and whose format the adaptive ``controller``
    moves — ``V`` itself for CB-GMRES, the second (``Z``) basis of
    flexible GMRES, whose ``V`` stays float64.
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
    result: Optional[GmresResult] = None
    # the open Arnoldi cycle
    lsq: Optional[GivensLeastSquares] = None
    v: Optional[np.ndarray] = None
    j_used = 0
    last_impl = np.inf
    poison: Optional[BreakdownEvent] = None
    in_step = False
    #: adaptive: stat counters at the open cycle's start (for the
    #: per-cycle feedback deltas)
    cycle_mark: Optional[dict] = None

    def __init__(self, idx, b, target, x, basis, stored, stats, controller):
        self.idx = idx
        self.b = b
        self.bnorm = float(np.linalg.norm(b))
        self.target = target
        self.x = x
        self.basis = basis
        self.stored = stored
        self.stats = stats
        self.history: List[ResidualSample] = []
        self.events: List[BreakdownEvent] = []
        # adaptive: the column's own controller (a fresh one per solve
        # keeps solves independent — and the cached/streaming and
        # solo/batched bit-identity contracts: decisions depend only on
        # explicit residuals, which all of those share exactly) and the
        # stored bits of every format actually used (for the
        # traffic-weighted mean)
        self.controller: Optional[PrecisionController] = controller
        self.bits_seen: Dict[str, float] = {}

    def recover(self, event: BreakdownEvent, max_recoveries: int) -> bool:
        """Log a recovery; False — and the column finished, exhausted —
        once the fruitless budget is spent."""
        self.events.append(event)
        self.stats.recoveries += 1
        self.fruitless += 1
        if self.fruitless > max_recoveries:
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
        decision stream is identical across basis modes and widths."""
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

    def finalize(self, final_rrn: float, storage: str) -> None:
        """Close the work log and build the column's result."""
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
        # every basis of the column contributes float64 working set and
        # fused-kernel work (flexible GMRES holds two)
        bases = [self.basis] if stored is self.basis else [self.basis, stored]
        stats.basis_peak_float64_bytes = sum(b.peak_float64_bytes for b in bases)
        for name in _FUSED_FIELDS:
            setattr(
                stats, f"fused_{name}",
                sum(getattr(b.fused_log, name) for b in bases),
            )
        self.result = GmresResult(
            x=self.x,
            converged=self.converged,
            iterations=self.total_iters,
            final_rrn=final_rrn,
            target_rrn=self.target,
            storage=storage,
            history=self.history,
            stats=stats,
            stalled=self.stalled,
            breakdown_events=self.events,
            recovery_exhausted=self.exhausted,
            precision_trace=list(controller.decisions) if controller else [],
        )


class _Lockstep:
    """The package's only restart loop, over one :class:`_Column` per
    right-hand side.

    ``solver`` supplies the configuration (operator, restart length,
    tolerances, preconditioner, recovery budget, tracer, storage
    factories) and the two hook points:

    ``solver._direction(c, j) -> z``
        The SpMV operand of step ``j`` — ``M^-1 v`` (Fig. 1 step 2) for
        :class:`~repro.solvers.gmres.CbGmres`.
    ``solver._correction(c) -> update``
        The solution update closing a cycle — ``M^-1 (V_m y)`` (step
        18).  Must read ``c.j_used`` vectors of ``c.stored``: the driver
        bills them once the update is known to be finite.

    A solver with ``_flexible`` set (:class:`~repro.solvers.fgmres.
    FlexibleGmres`) gets a float64 ``V`` plus a second basis in
    ``solver.storage`` as ``c.stored`` — the one its hooks fill and
    read, under the solver's accessor factories and controller.
    """

    def __init__(self, solver, b_cols, targets, x0_cols, record_history, monitor):
        self.solver = solver
        self.record_history = record_history
        self.monitor = monitor
        self.tracer = tracer = solver.tracer
        self.out = BatchGmresResult()
        a = solver.a
        self.n = n = a.shape[0]
        self.matmat = getattr(a, "matmat", None)
        # Arnoldi SpMV scratch: while a single column is live every
        # matvec of the cycle lands in the same preallocated buffer (the
        # orthogonalization copies w before mutating it, so the buffer
        # never escapes a step); skipped for operators whose matvec
        # lacks an ``out=`` parameter
        try:
            takes_out = "out" in inspect.signature(a.matvec).parameters
        except (TypeError, ValueError):  # builtins/C callables
            takes_out = False
        self.w_buf = np.empty(n) if takes_out else None

        storage = solver.storage
        self.label = f"fgmres[{storage}]" if solver._flexible else storage

        # the single KrylovBasis construction site
        def new_basis(fmt, storage_factory=None) -> KrylovBasis:
            return KrylovBasis(
                n, solver.m, fmt, tracer=tracer,
                basis_mode=solver.basis_mode, tile_elems=solver.tile_elems,
                storage_factory=storage_factory, backend=solver.backend,
            )

        self.cols: List[_Column] = []
        for idx, (b, target) in enumerate(zip(b_cols, targets)):
            controller = None
            if storage == ADAPTIVE_STORAGE:
                controller = PrecisionController(solver.precision, tracer=tracer)
            stored = new_basis(
                # adaptive: first decision lands before the first write;
                # the ladder top is a never-read placeholder until then
                controller.config.ladder[-1] if controller else storage,
                solver._storage_factory,
            )
            basis = new_basis("float64") if solver._flexible else stored
            stats = SolveStats(
                n=n,
                nnz=a.nnz,
                bits_per_value=stored.bits_per_value,
                spmv_format=getattr(a, "resolved_format", "csr"),
                spmv_padded_entries=int(getattr(a, "padded_entries", a.nnz)),
                basis_mode=solver.basis_mode,
                basis_tile_elems=stored.tile_elems,
            )
            x = (
                np.zeros(n) if x0_cols is None
                else np.array(x0_cols[idx], dtype=np.float64)
            )
            col = _Column(idx, b, target, x, basis, stored, stats, controller)
            if col.bnorm == 0.0:
                col.finished = True
                col.result = GmresResult(
                    x=np.zeros(n), converged=True, iterations=0, final_rrn=0.0,
                    target_rrn=target, storage=self.label, history=col.history,
                    stats=stats,
                )
            self.cols.append(col)

    # -- shared kernels -------------------------------------------------
    def spmv(self, vectors: "List[np.ndarray]", scratch: bool = False):
        """One SpMV per vector; multi-vector kernel when available."""
        if self.matmat is not None and len(vectors) > 1:
            Z = np.empty((self.n, len(vectors)), order="F")
            for i, z in enumerate(vectors):
                Z[:, i] = z
            with self.tracer.span("spmv"):
                Y = self.matmat(Z)
            self.out.batched_spmv_calls += 1
            return [Y[:, i] for i in range(len(vectors))]
        lone = scratch and len(vectors) == 1 and self.w_buf is not None
        kwargs = {"out": self.w_buf} if lone else {}
        results = []
        for z in vectors:
            with self.tracer.span("spmv"):
                results.append(self.solver.a.matvec(z, **kwargs))
        return results

    def orthogonalize(self, j: int, step: "List[_Column]", ws):
        """Fig. 1 steps 4-11 for every stepping column, each against its
        own basis: every basis row is read where it is stored, so there
        is nothing a pass shared between columns could save."""
        solver = self.solver
        kernel = (
            cgs_orthogonalize if solver.orthogonalization == "cgs"
            else mgs_orthogonalize
        )
        with self.tracer.span("orthogonalize", columns=len(step)):
            return [kernel(c.basis, j, w, solver.eta) for c, w in zip(step, ws)]

    # -- the restart cycle ----------------------------------------------
    def run(self) -> BatchGmresResult:
        passes = 0
        while True:
            active = [c for c in self.cols if not c.finished]
            if not active:
                break
            with self.tracer.span("restart", index=passes, columns=len(active)):
                cycle = self.restart(active)
                for j in range(1, self.solver.m + 1):
                    live = [c for c in cycle if c.in_step]
                    if not live:
                        break
                    with self.tracer.span("arnoldi", j=j, columns=len(live)):
                        self.arnoldi_step(j, live)
                self.update(cycle)
            passes += 1
        self.verify()
        self.out.results = [c.result for c in self.cols]
        return self.out

    def restart(self, active: "List[_Column]") -> "List[_Column]":
        """Explicit residuals and exit tests; returns the columns that
        open a new Arnoldi cycle (slot 0 written)."""
        solver = self.solver
        entering: List[_Column] = []
        for c, ax in zip(active, self.spmv([c.x for c in active])):
            r = c.b - ax
            c.stats.spmv_calls += 1
            c.stats.dense_vector_ops += 2
            beta = float(np.linalg.norm(r))
            if solver.recovery and not np.isfinite(beta):
                # a fault in the restart SpMV itself (x is known finite:
                # poisoned updates are never applied) — recompute on the
                # next pass
                c.recover(
                    BreakdownEvent(c.total_iters, "nonfinite_residual"),
                    solver.max_recoveries,
                )
                continue
            c.rrn = beta / c.bnorm
            if c.rrn < c.prev_explicit:
                c.fruitless = 0  # real progress: replenish the budget
            if self.record_history:
                c.history.append(ResidualSample(c.total_iters, c.rrn, "explicit"))
            if c.rrn <= c.target:
                c.converged = True
                c.finished = True
                continue
            if c.total_iters >= solver.max_iter:
                c.finished = True
                continue
            if solver.stall_restarts is not None and c.stats.restarts > 0:
                if c.rrn > c.prev_explicit * solver.stall_factor:
                    c.stagnant += 1
                    if c.stagnant >= solver.stall_restarts:
                        c.stalled = True
                        c.finished = True
                        continue
                else:
                    c.stagnant = 0
            c.prev_explicit = min(c.prev_explicit, c.rrn)

            if c.controller is not None:
                c.select_storage()
            c.basis.reset()
            if c.stored is not c.basis:
                c.stored.reset()
            c.v = r / beta
            c.lsq = GivensLeastSquares(solver.m, beta)
            c.j_used = 0
            c.poison = None
            c.in_step = True
            entering.append(c)

        for c in entering:
            c.basis.write_vector(0, c.v)  # storage rejections propagate
            c.bill(c.basis, writes=1)
        return entering

    def arnoldi_step(self, j: int, live: "List[_Column]") -> None:
        """Fig. 1 steps 2-16 at depth ``j`` for every live column."""
        solver = self.solver
        ws = self.spmv([solver._direction(c, j) for c in live], scratch=True)
        step: List[_Column] = []
        step_ws: List[np.ndarray] = []
        for c, w in zip(live, ws):
            c.stats.spmv_calls += 1
            if solver.recovery and not np.all(np.isfinite(w)):
                c.poison = BreakdownEvent(c.total_iters, "nonfinite_spmv")
                c.in_step = False
            else:
                step.append(c)
                step_ws.append(w)
        if not step:
            return

        writers: List[_Column] = []
        for c, ores in zip(step, self.orthogonalize(j, step, step_ws)):
            c.bill(c.basis, reads=2 * j if ores.reorthogonalized else j)
            c.stats.reorthogonalizations += int(ores.reorthogonalized)
            c.stats.dense_vector_ops += 4
            if solver.recovery and ores.nonfinite:
                c.poison = BreakdownEvent(
                    c.total_iters, "nonfinite_orthogonalization"
                )
                c.in_step = False
                continue
            c.total_iters += 1
            c.stats.iterations += 1
            impl = c.lsq.append_column(ores.h, ores.h_next) / c.bnorm
            c.last_impl = impl
            c.j_used = j
            if self.record_history:
                c.history.append(ResidualSample(c.total_iters, impl, "implicit"))
            if self.monitor is not None:
                self.monitor(c.idx, c.total_iters, j, c.basis, impl)
            if ores.breakdown:
                c.in_step = False  # happy breakdown: solution is in the subspace
                continue
            if solver.recovery and ores.loss_of_orthogonality:
                # the columns absorbed so far are valid: apply the
                # partial update, then restart the cycle early
                c.events.append(
                    BreakdownEvent(c.total_iters, "loss_of_orthogonality")
                )
                c.in_step = False
                continue
            c.v = ores.w  # the step's own copy: normalised where it is
            c.v /= ores.h_next
            writers.append(c)
        for c in writers:
            try:
                c.basis.write_vector(j, c.v)
            except (ValueError, OverflowError) as exc:
                if not solver.recovery:
                    raise
                c.poison = BreakdownEvent(
                    c.total_iters, "basis_write_failed", str(exc)
                )
                c.in_step = False
                continue
            c.bill(c.basis, writes=1)
        for c in writers:
            if c.in_step and (
                c.last_impl <= c.target or c.total_iters >= solver.max_iter
            ):
                c.in_step = False

    def update(self, cycle: "List[_Column]") -> None:
        """Per-column solution updates closing the cycle."""
        solver = self.solver
        for c in cycle:
            if c.poison is not None:
                # discard the poisoned tail; columns absorbed before the
                # fault are provably finite and are salvaged into a
                # partial update below (the next restart re-anchors on a
                # fresh explicit residual either way)
                if not c.recover(c.poison, solver.max_recoveries):
                    continue
                if c.j_used == 0:
                    continue  # fault hit before any column was absorbed
            update = solver._correction(c)
            if solver.recovery and not np.all(np.isfinite(update)):
                # corrupted stored vectors leaked into the update: drop it
                c.recover(
                    BreakdownEvent(c.total_iters, "nonfinite_update"),
                    solver.max_recoveries,
                )
                continue
            c.x = c.x + update
            c.bill(c.stored, reads=c.j_used)
            c.stats.dense_vector_ops += 1
            c.stats.restarts += 1

    def verify(self) -> None:
        """Final explicit residual of every solved column (batched)."""
        pending = [c for c in self.cols if c.result is None]
        for c, final_ax in zip(pending, self.spmv([c.x for c in pending])):
            final_rrn = float(np.linalg.norm(c.b - final_ax) / c.bnorm)
            c.stats.spmv_calls += 1
            if self.solver.recovery and not np.isfinite(final_rrn):
                # the verification SpMV itself was hit; x is finite, so
                # report the last trustworthy explicit residual, not NaN
                c.events.append(BreakdownEvent(c.total_iters, "nonfinite_residual"))
                final_rrn = c.rrn if np.isfinite(c.rrn) else float(c.prev_explicit)
            c.finalize(final_rrn, self.label)


def solve_batch(
    solver,
    B: Union[np.ndarray, Sequence[np.ndarray]],
    target_rrn: Union[float, Sequence[float]],
    x0: Optional[np.ndarray] = None,
    record_history: bool = True,
    monitor: "Callable[[int, int, int, KrylovBasis, float], None] | None" = None,
) -> BatchGmresResult:
    """Run ``B`` lockstep CB-GMRES solves sharing one matrix.

    Parameters
    ----------
    solver : CbGmres
        The configured solver (matrix, storage, restart length, ...).
    B : ndarray (n, B) or sequence of (n,) vectors
        Right-hand sides, one per column.
    target_rrn : float or sequence of float
        Per-column relative-residual target (a scalar applies to all).
    x0 : ndarray (n, B), optional
        Initial guesses; defaults to zero (paper §V-B).
    record_history, monitor
        As in :meth:`~repro.solvers.gmres.CbGmres.solve`; the batched
        monitor receives the column index first:
        ``monitor(col, iteration, j, basis, implicit_rrn)``.

    Returns
    -------
    BatchGmresResult
        Per-column :class:`~repro.solvers.gmres.GmresResult` objects
        (bit-identical to independent solves) plus batch-path counters.
    """
    n = solver.a.shape[0]
    if isinstance(B, np.ndarray):
        if B.ndim == 1:
            B = B[:, None]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must have shape ({n}, nrhs)")
        b_cols = [np.ascontiguousarray(B[:, c], dtype=np.float64)
                  for c in range(B.shape[1])]
    else:
        b_cols = [np.ascontiguousarray(b, dtype=np.float64) for b in B]
        for b in b_cols:
            if b.shape != (n,):
                raise ValueError(f"every right-hand side must have shape ({n},)")
    nrhs = len(b_cols)
    if nrhs == 0:
        return BatchGmresResult()
    if np.isscalar(target_rrn):
        targets = [float(target_rrn)] * nrhs
    else:
        targets = [float(t) for t in target_rrn]
        if len(targets) != nrhs:
            raise ValueError("target_rrn must be scalar or one per column")
    for t in targets:
        if t < 0:
            raise ValueError("target_rrn must be non-negative")
    x0_cols = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n, nrhs):
            raise ValueError(f"x0 must have shape ({n}, {nrhs})")
        x0_cols = [x0[:, c] for c in range(nrhs)]
    # a NaN would end as ``converged=False`` without a word, an Inf as a
    # divide warning deep in the cycle: refuse both here, by name.  A NaN
    # is the min *and* the max, an Inf one of them — two reductions and no
    # ``isfinite(col)`` temporary, whose ``n`` freed bytes left the
    # allocator in a state that cost ``prec_ilu0``'s float64 twin 5 %
    for name, cols in (("right-hand side", b_cols), ("x0", x0_cols or ())):
        for c, col in enumerate(cols):
            if col.size and not np.isfinite([col.min(), col.max()]).all():
                raise ValueError(f"{name} column {c} holds a NaN or an Inf")
    return _Lockstep(
        solver, b_cols, targets, x0_cols, record_history, monitor
    ).run()
