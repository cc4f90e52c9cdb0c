"""Adaptive per-restart precision control for the compressed basis.

CB-GMRES (Aliaga et al., PAPERS.md) stores the Krylov basis lossily
because the solver only needs the *search directions* preserved — and
how well they must be preserved changes over the solve.  The empirical
rule this module is built on (measured on this repo's own bench grid,
see ``docs/PRECISION.md``) is the restart-cycle form of the Fox et al.
error-bound analysis:

    one restart cycle whose basis is stored with unit roundoff ``u``
    cannot reduce the explicit residual by more than a small multiple
    of ``u`` relative to the residual it started from.

A cycle therefore only needs enough precision to cover the residual
reduction it is *actually going to deliver*.  Two quantities bound that
delivery:

* the convergence rate: the per-cycle reduction factor ``g`` observed on
  previous (storage-uncapped) cycles, and
* the finish line: once the target is closer than one cycle's worth of
  progress, the cycle only needs to reduce by ``tau / rho`` — near
  convergence the *required* per-cycle reduction shrinks, so the final
  cycles tolerate the cheapest formats.

The controller picks, per restart, the cheapest ladder format at or
above its *floor* whose roundoff (times a safety factor) fits inside
``max(g_predicted, tau / rho)``.  The floor only rises: a cycle in
distress — its explicit residual did not fall below
:data:`~repro.solvers.block.STALL_FACTOR` of its start (or was not
finite), it lost orthogonality, or it needed a fault recovery — lifts
the floor to the rung above its own for the rest of the solve.  A rung
that once failed to reduce the residual has no claim on a later cycle:
the rule :func:`escalation` applies between attempts, applied between
cycles.

:func:`escalation` is the one answer to "the attempt failed, which
storage next?" — for :class:`repro.robust.RobustCbGmres`, the fault
campaign and the serve engine's retries alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "ADAPTIVE_STORAGE",
    "LADDER",
    "STORAGE_UNIT_ROUNDOFF",
    "escalation",
    "storage_unit_roundoff",
    "CycleRecord",
    "PrecisionController",
]

#: the pseudo storage-format name that enables the controller
ADAPTIVE_STORAGE = "adaptive"

#: the storage rungs from cheapest (largest unit roundoff) to safest: the
#: formats the controller picks from per restart, and the path every
#: :func:`escalation` climbs
LADDER: Tuple[str, ...] = ("frsz2_16", "frsz2_32", "float64")

#: headroom on the error-bound test: format ``f`` is admissible for a
#: cycle needing reduction ``g`` only if ``u(f) * SAFETY <= g``
SAFETY = 4.0
#: per-cycle reduction assumed before any cycle has been observed: first
#: cycles on well-behaved systems gain many decades, which admits
#: ``frsz2_32`` but not ``frsz2_16`` — the paper's own default
PRIOR_GAIN = 1e-8
#: a cycle is *storage-capped* when its reduction factor lands within
#: this multiple of the format's unit roundoff: it hit the error-model
#: wall, so its gain says more about the format than about the matrix
CAP_MARGIN = 32.0

#: a cycle is in *distress* when its explicit residual ends above this
#: multiple of the implicit one its least squares closed on: the stored
#: basis no longer carries the Arnoldi relation, so the residual the cycle
#: minimised is not the solve's (its gain then says nothing of the matrix)
GAP_MARGIN = 1e3

#: pointwise unit roundoff of each storage format: FRSZ2 keeps an
#: ``N-1``-bit fixed-point mantissa against a block-shared exponent
#: (relative error ``2**-(N-1)`` — paper Section IV-A), IEEE formats
#: round to ``2**-(p)`` with ``p`` explicit mantissa bits
STORAGE_UNIT_ROUNDOFF: Dict[str, float] = {
    "frsz2_16": 2.0 ** -15,
    "frsz2_32": 2.0 ** -31,
    "float16": 2.0 ** -11,
    "float32": 2.0 ** -24,
    "float64": 2.0 ** -53,
}


def storage_unit_roundoff(storage: str) -> float:
    """Pointwise relative roundoff of a storage format.

    Parameters
    ----------
    storage : str
        A format name.  ``frsz2_N`` resolves to ``2**-(N-1)`` even for
        widths not in the precomputed table.

    Returns
    -------
    float
        The unit roundoff ``u`` such that storing a value ``x`` yields
        ``x (1 + delta)`` with ``|delta| <= u`` (up to the block-shared
        exponent loss FRSZ2 adds for small-magnitude values).

    Raises
    ------
    KeyError
        For names that are neither tabulated nor ``frsz2_N``.
    """
    if storage in STORAGE_UNIT_ROUNDOFF:
        return STORAGE_UNIT_ROUNDOFF[storage]
    if storage.startswith("frsz2_"):
        bits = int(storage.split("_", 1)[1])
        return 2.0 ** -(bits - 1)
    raise KeyError(storage)


def escalation(storage: str) -> Tuple[str, ...]:
    """The storages a solve asked for ``storage`` walks, one more each
    time the last attempt failed (stalled, ran out of recoveries or hit
    its iteration cap).

    * a rung of :data:`LADDER`: it and the rungs above it;
    * any other fixed format: itself, then the ladder's top, ``float64``
      (the correctness guarantee);
    * ``"adaptive"``: the controller, which climbs the rungs inside the
      solve by itself, then fixed ``float64``.

    Examples
    --------
    >>> escalation("frsz2_32")
    ('frsz2_32', 'float64')
    >>> escalation("adaptive")
    ('adaptive', 'float64')
    """
    if storage in LADDER:
        return LADDER[LADDER.index(storage):]
    return (storage, LADDER[-1])


@dataclass
class CycleRecord:
    """One restart cycle of a solve, filled in as the cycle runs.

    Every solve keeps one record per Arnoldi cycle it opened, fixed
    storage included, in ``SolveStats.cycles``.  Under
    ``storage="adaptive"`` the controller opens it (:meth:`PrecisionController.decide`)
    and reads it back once the cycle is over
    (:meth:`PrecisionController.observe_cycle`).

    Attributes
    ----------
    storage : str
        Format the cycle's stored basis was kept in.
    start_rrn, end_rrn : float
        Explicit relative residual at the cycle's start and the next one
        computed after it (the next cycle's start, else the solve's
        final residual); their ratio is the observed per-cycle reduction
        factor.  ``end_rrn`` is NaN while the cycle is open.
    implicit_rrn : float
        The implicit relative residual of the least squares the cycle's
        update solved (NaN: no update).
    iterations : int
        Arnoldi steps the cycle ran.
    reorthogonalizations : int
        Steps whose walks orthogonalized a vector a second time (every
        step over a stored vector).
    loss_of_orthogonality : bool
        A second pass took most of a vector (``rho < eta``): the cycle
        ended on it.
    recoveries : int
        Recoveries charged from the cycle's start to the next cycle's
        (faults, a non-finite restart residual after the cycle included).
    step_walks, step_vectors : int
        Walks of the basis the cycle's Arnoldi steps made
        (:func:`repro.fused.kernels.step_walks`: two per step over a
        stored vector, two more for the close of the cycle's last column)
        and the vectors they read (``k`` per walk over ``k`` stored
        vectors).
    update_vectors : int
        Vectors the solution update's one walk (``V y``) read; 0 when
        the cycle ended without one.
    direction_reads : int
        Vectors read back one at a time from the stored basis, one walk
        each — a flexible solve's ``z_{j-1}`` for the SpMV.
    basis_writes : int
        Vectors written to the stored basis.
    step_storage : str or None
        Storage of the basis the steps walk when it is not the stored
        one — a flexible solve's float64 ``V``; None: ``storage``.
    step_writes : int
        Vectors written to that ``step_storage`` basis; 0 when the steps
        walk the stored one.
    bits_per_value : float
        Stored width of the cycle's basis, taken when the cycle closed.
    needed_gain : float or None
        Adaptive solves: the per-cycle reduction the cycle was budgeted
        for (``max(g_predicted, tau / rho)``).
    reason : str or None
        Adaptive solves: ``"error-bound"`` (the rule picked the storage)
        or ``"floor"`` (the floor a distressed cycle raised overrode a
        cheaper admissible pick).
    """

    storage: str
    start_rrn: float
    end_rrn: float = math.nan
    implicit_rrn: float = math.nan
    iterations: int = 0
    reorthogonalizations: int = 0
    loss_of_orthogonality: bool = False
    recoveries: int = 0
    step_walks: int = 0
    step_vectors: int = 0
    update_vectors: int = 0
    direction_reads: int = 0
    basis_writes: int = 0
    step_storage: Optional[str] = None
    step_writes: int = 0
    bits_per_value: float = 64.0
    needed_gain: Optional[float] = None
    reason: Optional[str] = None


class PrecisionController:
    """Chooses the basis storage format for each restart cycle.

    One controller instance serves one solve: it is stateful (observed
    convergence rate, floor) and is consulted once per restart via
    :meth:`decide`, fed once per *finished* cycle via
    :meth:`observe_cycle`.

    Parameters
    ----------
    tracer : repro.observe.Tracer, optional
        Decisions are surfaced as ``precision.*`` counters
        (``precision.restarts.<fmt>``, ``precision.floor_clamps``,
        ``precision.distress``); the solve adds ``precision.upshifts`` /
        ``precision.downshifts`` from its sequence of records.

    Examples
    --------
    >>> c = PrecisionController()
    >>> first = c.decide(rrn=1.0, target_rrn=1e-6)
    >>> first.storage, first.reason
    ('frsz2_32', 'error-bound')
    >>> first.end_rrn, first.iterations = 1e-4, 50  # what the cycle did
    >>> c.observe_cycle(first)
    >>> c.decide(rrn=1e-4, target_rrn=1e-6).storage
    'frsz2_16'
    """

    def __init__(self, tracer=None) -> None:
        from ..observe import NULL_TRACER

        self.tracer = tracer or NULL_TRACER
        self._floor_idx = 0
        self._gain_pred: Optional[float] = None

    @property
    def floor(self) -> str:
        """The lowest :data:`LADDER` rung the controller may choose; it
        only rises, one rung above each cycle in distress."""
        return LADDER[self._floor_idx]

    # -- feedback ------------------------------------------------------

    def observe_cycle(self, fb: CycleRecord) -> None:
        """Fold one finished cycle into the controller state.

        A cycle that made progress (its explicit residual fell below
        :data:`~repro.solvers.block.STALL_FACTOR` of its start) and was
        not storage-capped sets the convergence-rate estimate.  A cycle
        in distress — no progress, a loss of orthogonality, an explicit
        residual above :data:`GAP_MARGIN` times its implicit one, or a
        fault recovery — raises the floor to the rung above its own.  A
        capped cycle is a success, not distress.
        """
        from .block import STALL_FACTOR  # block imports this module

        idx = LADDER.index(fb.storage) if fb.storage in LADDER else len(LADDER) - 1
        ratio = fb.end_rrn / fb.start_rrn if fb.start_rrn > 0 else math.nan
        progress = ratio < STALL_FACTOR  # False for a NaN
        gap = fb.end_rrn > GAP_MARGIN * fb.implicit_rrn  # False for a NaN
        if progress and not gap and ratio > CAP_MARGIN * storage_unit_roundoff(
                fb.storage):
            self._gain_pred = ratio
        if (not progress or gap or fb.loss_of_orthogonality
                or fb.recoveries > 0):
            self._floor_idx = max(self._floor_idx, min(idx + 1, len(LADDER) - 1))
            if self.tracer.enabled:
                self.tracer.count("precision.distress")

    # -- decisions -----------------------------------------------------

    def decide(self, rrn: float, target_rrn: float) -> CycleRecord:
        """Pick the storage format for the restart cycle starting now.

        Parameters
        ----------
        rrn : float
            Explicit relative residual at the restart.
        target_rrn : float
            The solve's convergence target.

        Returns
        -------
        CycleRecord
            The record of the cycle starting now: the chosen format, the
            start residual, the budgeted per-cycle reduction and the
            reason the format won.  The choice is mirrored into the
            ``precision.restarts.<fmt>`` tracer counter.
        """
        g_pred = self._gain_pred if self._gain_pred is not None else PRIOR_GAIN
        finish = target_rrn / rrn if rrn > 0 else 1.0
        needed = max(g_pred, min(finish, 1.0))
        idx = len(LADDER) - 1
        for i, fmt in enumerate(LADDER):
            if storage_unit_roundoff(fmt) * SAFETY <= needed:
                idx = i
                break
        reason = "error-bound"
        if self._floor_idx > idx:
            idx = self._floor_idx
            reason = "floor"
            if self.tracer.enabled:
                self.tracer.count("precision.floor_clamps")
        storage = LADDER[idx]
        if self.tracer.enabled:
            self.tracer.count(f"precision.restarts.{storage}")
        return CycleRecord(
            storage, float(rrn), needed_gain=float(needed), reason=reason
        )
