"""Automatic precision fallback for CB-GMRES.

The compressed-basis trade-off is probabilistic: a lossy storage format
usually converges like float64 (the paper's headline result), but on a
hostile spectrum — or under hardware faults — it can stall or exhaust
its recovery budget.  :class:`RobustCbGmres` turns that into a
guarantee: it walks :func:`~repro.solvers.adaptive.escalation` of the
requested storage, one attempt more whenever an attempt fails, with
uncompressed ``float64`` as the correctness-guaranteeing terminal.  An
``adaptive`` attempt climbs the rungs inside its own solve (its
controller's floor), so its escalation is ``float64`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..accessor import VectorAccessor, make_accessor
from ..solvers.adaptive import ADAPTIVE_STORAGE, escalation
from ..solvers.gmres import DEFAULT_MAX_ITER, DEFAULT_RESTART, CbGmres, GmresResult
from ..solvers.orthogonal import DEFAULT_ETA
from ..solvers.preconditioner import Preconditioner

__all__ = ["RobustResult", "RobustCbGmres"]

#: stall window per attempt (tighter than CbGmres' default of 8 so
#: hopeless formats hand over quickly)
ATTEMPT_STALL_RESTARTS = 4


@dataclass
class RobustResult:
    """Outcome of an escalating solve.

    ``attempts`` holds one :class:`GmresResult` per storage tried, in
    escalation order; ``result`` is the last (authoritative)
    one.
    """

    result: GmresResult
    attempts: List[GmresResult]

    @property
    def x(self) -> np.ndarray:
        return self.result.x

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def final_rrn(self) -> float:
        return self.result.final_rrn

    @property
    def storage_used(self) -> str:
        """The storage format of the attempt that produced ``x``."""
        return self.result.storage

    @property
    def fell_back(self) -> bool:
        """True when at least one escalation was needed."""
        return len(self.attempts) > 1

    @property
    def total_iterations(self) -> int:
        return sum(a.iterations for a in self.attempts)

    @property
    def total_recoveries(self) -> int:
        return sum(a.recoveries for a in self.attempts)

    @property
    def outcome(self) -> str:
        """``converged`` | ``fell_back`` | ``failed`` (for reports)."""
        if self.converged:
            return "fell_back" if self.fell_back else "converged"
        return "failed"


class RobustCbGmres:
    """CB-GMRES with breakdown recovery and automatic precision fallback.

    Parameters mirror :class:`~repro.solvers.gmres.CbGmres`, in its
    order.  An attempt fails when it stalls (over
    :data:`ATTEMPT_STALL_RESTARTS` restarts), exhausts its recoveries or
    hits its iteration cap; the next storage of
    :func:`~repro.solvers.adaptive.escalation` then warm-starts from the
    best finite iterate found so far, so work done in a lossy format is
    never thrown away.  ``storage_factory``, when given, maps
    ``(storage, n)`` to an accessor — the hook the fault-injection
    campaign uses to wrap every attempt's basis in a
    :class:`~repro.robust.faults.FaultyAccessor`.  ``spmv_format``
    (default ``"csr"``) wraps ``a`` in a
    :class:`~repro.sparse.engine.SpmvEngine` *once*, so every attempt
    reuses the same converted layout.  ``backend`` (``"numpy"``/``"jit"``)
    is resolved once and threaded into every attempt's solver; the jit
    kernels are bit-identical to numpy, so the fallback decisions are
    unaffected.
    """

    def __init__(
        self,
        a,
        storage: str = "frsz2_16",
        m: int = DEFAULT_RESTART,
        eta: float = DEFAULT_ETA,
        max_iter: int = DEFAULT_MAX_ITER,
        storage_factory: "Callable[[str, int], VectorAccessor] | None" = None,
        preconditioner: Optional[Preconditioner] = None,
        spmv_format: str = "csr",
        basis_mode: str = "cached",
        backend: "str | None" = None,
    ) -> None:
        # a throwaway solver does what every attempt would repeat: it
        # checks the settings, resolves the backend (one unavailable-jit
        # warning) and converts the operator, once; the attempts share both
        first = CbGmres(a, m=m, eta=eta, max_iter=max_iter,
                        spmv_format=spmv_format, backend=backend)
        self.a = first.a
        self.storage = storage
        if storage_factory is None:
            # fail fast on an unknown format name, before any attempt
            for name in escalation(storage):
                if name != ADAPTIVE_STORAGE:
                    make_accessor(name, 0)
        #: what every attempt's CbGmres is built with besides its storage
        self._attempt = dict(
            m=m, eta=eta, max_iter=max_iter,
            stall_restarts=ATTEMPT_STALL_RESTARTS,
            # the (storage, n) factory keeps wrapping accessors (fault
            # injectors) across the controller's format switches too
            storage_factory=storage_factory,
            preconditioner=preconditioner, basis_mode=basis_mode,
            backend=first.backend if backend is not None else None,
        )

    def solve(
        self,
        b: np.ndarray,
        target_rrn: float,
        x0: Optional[np.ndarray] = None,
        record_history: bool = False,
    ) -> RobustResult:
        """Walk the escalation until an attempt converges."""
        attempts: List[GmresResult] = []
        x_start = x0
        best_rrn = np.inf
        for storage in escalation(self.storage):
            solver = CbGmres(self.a, storage, **self._attempt)
            res = solver.solve(
                b, target_rrn, x0=x_start, record_history=record_history
            )
            attempts.append(res)
            if res.converged:
                break
            if np.all(np.isfinite(res.x)) and res.final_rrn < best_rrn:
                best_rrn = res.final_rrn
                x_start = res.x
        return RobustResult(result=attempts[-1], attempts=attempts)
