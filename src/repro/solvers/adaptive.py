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

The controller picks, per restart, the cheapest ladder format whose
roundoff (times a safety factor) fits inside
``max(g_predicted, tau / rho)``, then lets feedback veto it: a cycle
whose observed reduction was storage-capped, that tripped the CGS
re-orthogonalization machinery, that lost orthogonality outright, or
that needed a fault recovery, forces an upshift that is *held* for a
few restarts so the controller cannot oscillate.  External floors
(:meth:`PrecisionController.raise_floor`) encode the composition rule
with :mod:`repro.robust`: once the fault-escalation chain has moved past
a format, the controller never goes back below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ADAPTIVE_STORAGE",
    "DEFAULT_LADDER",
    "STORAGE_UNIT_ROUNDOFF",
    "storage_unit_roundoff",
    "ControllerConfig",
    "CycleFeedback",
    "PrecisionDecision",
    "PrecisionController",
]

#: the pseudo storage-format name that enables the controller
ADAPTIVE_STORAGE = "adaptive"

#: cheapest-to-safest storage ladder the controller walks (matches the
#: fault-escalation chain of :data:`repro.robust.fallback.DEFAULT_CHAIN`
#: so floors translate one-to-one)
DEFAULT_LADDER: Tuple[str, ...] = ("frsz2_16", "frsz2_32", "float64")

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


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the :class:`PrecisionController`.

    Attributes
    ----------
    ladder : tuple of str
        Storage formats from cheapest to safest.  Must be ordered by
        decreasing unit roundoff.
    safety : float
        Headroom multiplier on the error-bound test: format ``f`` is
        admissible for a cycle needing reduction ``g`` only if
        ``u(f) * safety <= g``.  Larger is more conservative.
    prior_gain : float
        Per-cycle reduction factor assumed before any cycle has been
        observed.  The default (``1e-8``) reflects that first cycles on
        well-behaved systems gain many decades, which admits
        ``frsz2_32`` but not ``frsz2_16`` — the paper's own default.
    reorth_fraction : float
        Feedback-upshift trigger: a cycle where at least this fraction
        of the Arnoldi steps needed re-orthogonalization (the CGS
        eta test) *and* the fraction jumped by ``reorth_jump`` over the
        solve's own best cycle is deemed to be eroding the directions,
        and the next cycle runs one rung higher.  The jump term makes
        the signal relative: some matrices re-orthogonalize every step
        even in float64, which says nothing about the storage.
    reorth_jump : float
        Minimum increase over the lowest re-orthogonalization fraction
        seen so far before the ``reorth_fraction`` trigger arms.
    stall_gain : float
        A cycle whose reduction factor is above this (i.e. essentially
        no progress) triggers a feedback upshift.
    cap_margin : float
        A cycle counts as *storage-capped* when its observed reduction
        factor lands within this multiple of the format's unit
        roundoff — the cycle hit the error-model wall, so its gain says
        more about the format than about the matrix.
    hold_restarts : int
        How many subsequent restart decisions a feedback-driven upshift
        is held for, preventing downshift/upshift oscillation.
    floor : str, optional
        Initial escalation floor: the controller starts with every
        ladder rung below this format forbidden (equivalent to calling
        :meth:`PrecisionController.raise_floor` right after
        construction).  :class:`repro.robust.RobustCbGmres` uses this
        to re-run adaptive attempts with a raised floor after a
        fault-driven escalation.
    """

    ladder: Tuple[str, ...] = DEFAULT_LADDER
    safety: float = 4.0
    prior_gain: float = 1e-8
    reorth_fraction: float = 0.5
    reorth_jump: float = 0.25
    stall_gain: float = 0.999
    cap_margin: float = 32.0
    hold_restarts: int = 2
    floor: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.ladder) < 1:
            raise ValueError("ladder must name at least one storage format")
        us = [storage_unit_roundoff(f) for f in self.ladder]
        if any(a <= b for a, b in zip(us, us[1:])):
            raise ValueError(
                "ladder must be ordered cheapest (largest roundoff) to "
                f"safest: {self.ladder}"
            )
        if self.safety < 1.0:
            raise ValueError("safety must be >= 1")
        if not 0.0 < self.prior_gain < 1.0:
            raise ValueError("prior_gain must be in (0, 1)")
        if self.hold_restarts < 0:
            raise ValueError("hold_restarts must be non-negative")
        if self.floor is not None and self.floor not in self.ladder:
            raise ValueError(
                f"floor {self.floor!r} is not on the ladder {self.ladder}"
            )


@dataclass(frozen=True)
class CycleFeedback:
    """What one finished restart cycle tells the controller.

    Attributes
    ----------
    storage : str
        Format the cycle's basis was stored in.
    start_rrn, end_rrn : float
        Explicit relative residual at the cycle's start and end; their
        ratio is the observed per-cycle reduction factor.
    iterations : int
        Arnoldi steps the cycle ran.
    reorthogonalizations : int
        Steps whose eta test forced a second orthogonalization pass.
    loss_of_orthogonality : bool
        The cycle ended on a hard re-orthogonalization failure.
    recoveries : int
        Poisoned-cycle recoveries charged during the cycle (faults).
    """

    storage: str
    start_rrn: float
    end_rrn: float
    iterations: int
    reorthogonalizations: int = 0
    loss_of_orthogonality: bool = False
    recoveries: int = 0


@dataclass(frozen=True)
class PrecisionDecision:
    """One per-restart storage decision.

    Attributes
    ----------
    restart : int
        Restart-cycle index the decision applies to.
    storage : str
        Chosen format.
    rrn : float
        Explicit relative residual at decision time.
    needed_gain : float
        The per-cycle reduction the cycle was budgeted for
        (``max(g_predicted, tau / rho)``).
    reason : str
        ``"error-bound"`` (the rule picked it), ``"feedback-hold"``
        (an upshift hold overrode a cheaper admissible pick), or
        ``"floor"`` (an external escalation floor overrode it).
    """

    restart: int
    storage: str
    rrn: float
    needed_gain: float
    reason: str


class PrecisionController:
    """Chooses the basis storage format for each restart cycle.

    One controller instance serves one solve: it is stateful (observed
    convergence rate, upshift holds, escalation floors) and is
    consulted once per restart via :meth:`decide`, fed once per
    *finished* cycle via :meth:`observe_cycle`.

    Parameters
    ----------
    config : ControllerConfig, optional
        Tuning knobs; defaults are calibrated on the repo bench grid.
    tracer : repro.observe.Tracer, optional
        Decisions are surfaced as ``precision.*`` counters
        (``precision.restarts.<fmt>``, ``precision.upshifts``,
        ``precision.downshifts``, ``precision.floor_clamps``).

    Examples
    --------
    >>> c = PrecisionController()
    >>> c.decide(rrn=1.0, target_rrn=1e-12).storage
    'frsz2_32'
    >>> c.observe_cycle(CycleFeedback("frsz2_32", 1.0, 1e-4, 50))
    >>> c.decide(rrn=1e-4, target_rrn=1e-12).storage
    'frsz2_16'
    """

    def __init__(self, config: Optional[ControllerConfig] = None, tracer=None) -> None:
        from ..observe import NULL_TRACER

        self.config = config or ControllerConfig()
        self.tracer = tracer or NULL_TRACER
        self._gain_pred: Optional[float] = None
        self._reorth_ref: Optional[float] = None
        self._floor_idx = 0
        self._hold_idx = 0
        self._hold_left = 0
        self._restart = 0
        self._last_idx: Optional[int] = None
        #: every decision taken, in order (the bench trace)
        self.decisions: List[PrecisionDecision] = []
        self.upshifts = 0
        self.downshifts = 0
        if self.config.floor is not None:
            self.raise_floor(self.config.floor)

    # -- escalation composition ---------------------------------------

    def raise_floor(self, storage: str) -> None:
        """Forbid every ladder rung below ``storage`` from now on.

        This is the composition contract with :mod:`repro.robust`:
        when the fault-escalation chain has moved past a format, the
        controller must never downshift back below it, no matter what
        the error-bound rule would admit.  Unknown (off-ladder) names
        raise ``ValueError``; raising to a level at or below the
        current floor is a no-op.
        """
        if storage not in self.config.ladder:
            raise ValueError(
                f"floor {storage!r} is not on the ladder {self.config.ladder}"
            )
        self._floor_idx = max(self._floor_idx, self.config.ladder.index(storage))

    @property
    def floor(self) -> str:
        """The lowest format the controller may currently choose."""
        return self.config.ladder[self._floor_idx]

    # -- feedback ------------------------------------------------------

    def observe_cycle(self, fb: CycleFeedback) -> None:
        """Fold one finished cycle into the controller state.

        Updates the convergence-rate estimate from the cycle's observed
        reduction factor (only when the cycle was *not* storage-capped:
        a capped cycle's gain says more about the format than the
        matrix) and arms a held upshift when the cycle showed storage
        distress — a capped reduction, heavy re-orthogonalization, an
        outright loss of orthogonality, a stall, or fault recoveries.
        """
        cfg = self.config
        try:
            idx = cfg.ladder.index(fb.storage)
        except ValueError:
            idx = len(cfg.ladder) - 1
        u = storage_unit_roundoff(fb.storage)
        g_obs: Optional[float] = None
        if fb.start_rrn > 0 and fb.end_rrn >= 0:
            ratio = fb.end_rrn / fb.start_rrn
            if ratio == ratio and ratio != float("inf"):  # finite
                g_obs = ratio
        capped = g_obs is None or g_obs <= cfg.cap_margin * u
        stalled = g_obs is None or g_obs >= cfg.stall_gain
        frac = (
            fb.reorthogonalizations / fb.iterations if fb.iterations > 0 else None
        )
        heavy_reorth = (
            frac is not None
            and self._reorth_ref is not None
            and frac >= cfg.reorth_fraction
            and frac >= self._reorth_ref + cfg.reorth_jump
        )
        if frac is not None:
            self._reorth_ref = (
                frac if self._reorth_ref is None else min(self._reorth_ref, frac)
            )
        if g_obs is not None and not capped:
            self._gain_pred = g_obs
        distress = (
            capped
            or stalled
            or heavy_reorth
            or fb.loss_of_orthogonality
            or fb.recoveries > 0
        )
        if distress and idx + 1 < len(cfg.ladder):
            self._hold_idx = max(self._hold_idx, idx + 1)
            self._hold_left = cfg.hold_restarts
            if self.tracer.enabled:
                self.tracer.count("precision.distress")

    # -- decisions -----------------------------------------------------

    def decide(self, rrn: float, target_rrn: float) -> PrecisionDecision:
        """Pick the storage format for the restart cycle starting now.

        Parameters
        ----------
        rrn : float
            Explicit relative residual at the restart.
        target_rrn : float
            The solve's convergence target.

        Returns
        -------
        PrecisionDecision
            The chosen format plus the budgeted per-cycle reduction and
            the reason it won.  The decision is appended to
            :attr:`decisions` and mirrored into ``precision.*``
            tracer counters.
        """
        cfg = self.config
        g_pred = self._gain_pred if self._gain_pred is not None else cfg.prior_gain
        finish = target_rrn / rrn if rrn > 0 else 1.0
        needed = max(g_pred, min(finish, 1.0))
        idx = len(cfg.ladder) - 1
        for i, fmt in enumerate(cfg.ladder):
            if storage_unit_roundoff(fmt) * cfg.safety <= needed:
                idx = i
                break
        reason = "error-bound"
        if self._hold_left > 0:
            # a held upshift yields when the finish line alone admits
            # the cheaper pick: the remaining distance fits inside one
            # cycle at that format, so distress cannot cost iterations
            closes_out = (
                storage_unit_roundoff(cfg.ladder[idx]) * cfg.safety <= finish
            )
            if self._hold_idx > idx and not closes_out:
                idx = self._hold_idx
                reason = "feedback-hold"
            self._hold_left -= 1
        if self._floor_idx > idx:
            idx = self._floor_idx
            reason = "floor"
            if self.tracer.enabled:
                self.tracer.count("precision.floor_clamps")
        storage = cfg.ladder[idx]
        decision = PrecisionDecision(
            restart=self._restart,
            storage=storage,
            rrn=float(rrn),
            needed_gain=float(needed),
            reason=reason,
        )
        self.decisions.append(decision)
        if self._last_idx is not None:
            if idx > self._last_idx:
                self.upshifts += 1
                if self.tracer.enabled:
                    self.tracer.count("precision.upshifts")
            elif idx < self._last_idx:
                self.downshifts += 1
                if self.tracer.enabled:
                    self.tracer.count("precision.downshifts")
        if self.tracer.enabled:
            self.tracer.count(f"precision.restarts.{storage}")
        self._last_idx = idx
        self._restart += 1
        return decision

    @property
    def storage_trace(self) -> List[str]:
        """The storage format chosen at each restart, in order."""
        return [d.storage for d in self.decisions]
