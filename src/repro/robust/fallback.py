"""Automatic precision fallback for CB-GMRES.

The compressed-basis trade-off is probabilistic: a lossy storage format
usually converges like float64 (the paper's headline result), but on a
hostile spectrum — or under hardware faults — it can stall or exhaust
its recovery budget.  :class:`RobustCbGmres` turns that into a
guarantee: storage formats are tried cheapest-first along a
``FallbackPolicy`` chain, escalating whenever an attempt fails, with
uncompressed ``float64`` as the correctness-guaranteeing terminal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..accessor import VectorAccessor, make_accessor
from ..solvers.adaptive import ADAPTIVE_STORAGE, ControllerConfig
from ..solvers.gmres import (
    DEFAULT_MAX_ITER,
    DEFAULT_MAX_RECOVERIES,
    DEFAULT_RESTART,
    CbGmres,
    GmresResult,
)
from ..solvers.orthogonal import DEFAULT_ETA
from ..solvers.preconditioner import Preconditioner

__all__ = ["FallbackPolicy", "RobustResult", "RobustCbGmres"]

#: lossy-first default chain ending in the exact float64 terminal
DEFAULT_CHAIN = ("frsz2_16", "frsz2_32", "float64")


@dataclass(frozen=True)
class FallbackPolicy:
    """When and how to escalate the Krylov-basis storage format.

    ``chain`` is tried in order; an attempt that converges ends the
    solve.  An attempt fails — and the next format is tried — when it
    stalls, exhausts its ``max_recoveries`` budget, or hits its
    iteration cap.  Each escalation warm-starts from the best finite
    iterate found so far, so work done in a lossy format is never thrown
    away.
    """

    chain: Tuple[str, ...] = DEFAULT_CHAIN
    max_recoveries: int = DEFAULT_MAX_RECOVERIES
    #: stall window per attempt (tighter than CbGmres' default of 8 so
    #: hopeless formats hand over quickly)
    stall_restarts: Optional[int] = 4

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("fallback chain must name at least one storage format")

    def chain_from(self, storage: str) -> "FallbackPolicy":
        """This policy with ``chain`` starting at ``storage``.

        If ``storage`` is in the chain, the chain is truncated to start
        there; otherwise the format escalates straight to the chain's
        terminal (the correctness guarantee).
        """
        if storage in self.chain:
            chain = self.chain[self.chain.index(storage):]
        elif storage == self.chain[-1]:
            chain = (storage,)
        else:
            chain = (storage, self.chain[-1])
        return FallbackPolicy(
            chain=chain,
            max_recoveries=self.max_recoveries,
            stall_restarts=self.stall_restarts,
        )


@dataclass
class RobustResult:
    """Outcome of a fallback-chain solve.

    ``attempts`` holds one :class:`GmresResult` per storage format
    tried, in chain order; ``result`` is the last (authoritative) one.
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

    Parameters mirror :class:`~repro.solvers.gmres.CbGmres`, with the
    storage format replaced by a :class:`FallbackPolicy`.
    ``storage_factory``, when given, maps ``(storage, n)`` to an
    accessor — the hook the fault-injection campaign uses to wrap every
    attempt's basis in a :class:`~repro.robust.faults.FaultyAccessor`.
    ``spmv_format`` (default ``"csr"``) wraps ``a`` in a
    :class:`~repro.sparse.engine.SpmvEngine` *once*, so every attempt
    of the chain reuses the same converted layout.  ``backend``
    (``"numpy"``/``"jit"``) is resolved once and threaded into every
    attempt's solver; the jit kernels are bit-identical to numpy, so
    the fallback decisions are unaffected.
    """

    def __init__(
        self,
        a,
        policy: Optional[FallbackPolicy] = None,
        m: int = DEFAULT_RESTART,
        eta: float = DEFAULT_ETA,
        max_iter: int = DEFAULT_MAX_ITER,
        storage_factory: "Callable[[str, int], VectorAccessor] | None" = None,
        preconditioner: Optional[Preconditioner] = None,
        spmv_format: str = "csr",
        basis_mode: str = "cached",
        tile_elems: Optional[int] = None,
        precision: Optional[ControllerConfig] = None,
        backend: "str | None" = None,
    ) -> None:
        # a throwaway solver does what every attempt would repeat: it
        # checks the settings, resolves the backend (one unavailable-jit
        # warning) and converts the operator, once; the attempts share both
        first = CbGmres(a, m=m, eta=eta, max_iter=max_iter,
                        spmv_format=spmv_format, backend=backend)
        self.backend = first.backend if backend is not None else None
        self.spmv_format = spmv_format
        self.a = first.a
        self.policy = policy or FallbackPolicy()
        self.m = int(m)
        self.eta = float(eta)
        self.max_iter = int(max_iter)
        self._factory = storage_factory
        self.preconditioner = preconditioner
        self.basis_mode = basis_mode
        self.tile_elems = tile_elems
        self.precision = precision
        if storage_factory is None:
            # fail fast on unknown format names in the chain (adaptive
            # expands to its ladder, validated by ControllerConfig)
            for storage in self.policy.chain:
                if storage != ADAPTIVE_STORAGE:
                    make_accessor(storage, 0)

    def attempt_plan(self) -> "List[Tuple[str, Optional[str]]]":
        """The ``(storage, adaptive_floor)`` sequence :meth:`solve` walks.

        Fixed chain entries map to ``(storage, None)``.  An
        ``"adaptive"`` entry expands into one adaptive attempt per
        non-terminal ladder rung with the escalation floor raised one
        rung each time — so after a fault-driven escalation the
        controller can never downshift back below the level the chain
        has moved past — followed by the ladder's terminal as a plain
        fixed attempt (the correctness guarantee).  Consecutive
        duplicates are collapsed.
        """
        cfg = self.precision or ControllerConfig()
        plan: List[Tuple[str, Optional[str]]] = []
        for storage in self.policy.chain:
            if storage == ADAPTIVE_STORAGE:
                for floor in cfg.ladder[:-1]:
                    plan.append((ADAPTIVE_STORAGE, floor))
                plan.append((cfg.ladder[-1], None))
            else:
                plan.append((storage, None))
        deduped: List[Tuple[str, Optional[str]]] = []
        for step in plan:
            if not deduped or deduped[-1] != step:
                deduped.append(step)
        return deduped

    def solve(
        self,
        b: np.ndarray,
        target_rrn: float,
        x0: Optional[np.ndarray] = None,
        record_history: bool = False,
    ) -> RobustResult:
        """Walk the fallback chain until an attempt converges."""
        attempts: List[GmresResult] = []
        x_start = x0
        best_rrn = np.inf
        for storage, floor in self.attempt_plan():
            precision = None
            if storage == ADAPTIVE_STORAGE:
                precision = dataclasses.replace(
                    self.precision or ControllerConfig(), floor=floor
                )
            solver = CbGmres(
                self.a,
                storage,
                m=self.m,
                eta=self.eta,
                max_iter=self.max_iter,
                stall_restarts=self.policy.stall_restarts,
                # the (storage, n) factory keeps wrapping accessors (fault
                # injectors) across the controller's format switches too
                storage_factory=self._factory,
                precision=precision,
                preconditioner=self.preconditioner,
                recovery=True,
                max_recoveries=self.policy.max_recoveries,
                basis_mode=self.basis_mode,
                backend=self.backend,
                **(
                    {"tile_elems": self.tile_elems}
                    if self.tile_elems is not None
                    else {}
                ),
            )
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
