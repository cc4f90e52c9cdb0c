"""Adaptive precision controller: unit rules, solver threading, and
composition with the robust fault-escalation chain.

The controller's contract (docs/PRECISION.md):

* per restart it picks the cheapest ladder format at or above its floor
  whose unit roundoff (x safety) fits inside the reduction the cycle
  must deliver;
* a cycle in distress (no progress, orthogonality loss, recoveries)
  raises the floor to the rung above its own for the rest of the solve,
  so no later cycle runs at or below a rung that failed;
* ``escalation`` (``repro.robust``, the campaign and the serve retry)
  runs the controller once, then fixed float64.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessor import make_accessor
from repro.jit import dispatch as jit_dispatch
from repro.observe import Tracer
from repro.robust import (
    FaultInjector,
    FaultySpmvMatrix,
    RobustCbGmres,
    run_campaign,
)
from repro.solvers import (
    ADAPTIVE_STORAGE,
    LADDER,
    CbGmres,
    CycleRecord,
    FlexibleGmres,
    KrylovBasis,
    PrecisionController,
    escalation,
    make_problem,
    storage_unit_roundoff,
)
from repro.solvers.block import STALL_FACTOR
from repro.sparse.suite import suite_names


@pytest.fixture(scope="module")
def lung2():
    return make_problem("lung2", "smoke")


@pytest.fixture(scope="module")
def atmosmodd():
    return make_problem("atmosmodd", "smoke")


class TestUnitRoundoff:
    def test_frsz2_widths(self):
        assert storage_unit_roundoff("frsz2_16") == 2.0 ** -15
        assert storage_unit_roundoff("frsz2_32") == 2.0 ** -31
        assert storage_unit_roundoff("frsz2_21") == 2.0 ** -20

    def test_ieee_formats(self):
        assert storage_unit_roundoff("float64") == 2.0 ** -53
        assert storage_unit_roundoff("float32") == 2.0 ** -24

    def test_unknown_format(self):
        with pytest.raises(KeyError):
            storage_unit_roundoff("sz3_08")


class TestLadder:
    def test_ladder_is_ordered_cheapest_first(self):
        us = [storage_unit_roundoff(f) for f in LADDER]
        assert us == sorted(us, reverse=True) and len(set(us)) == len(us)
        assert LADDER[-1] == "float64"


class TestControllerRules:
    def test_first_decision_uses_prior_gain(self):
        c = PrecisionController()
        d = c.decide(1.0, 1e-12)
        # prior gain 1e-8 admits frsz2_32 (u*4 ~ 1.9e-9) but not
        # frsz2_16 (u*4 ~ 1.2e-4)
        assert d.storage == "frsz2_32"
        assert d.reason == "error-bound"

    def test_near_convergence_admits_cheapest(self):
        c = PrecisionController()
        c.decide(1.0, 1e-6)
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 1e-4, 50))
        d = c.decide(1e-4, 1e-6)
        # finish line 1e-2 fits inside one frsz2_16 cycle
        assert d.storage == "frsz2_16"

    def test_capped_cycle_does_not_poison_gain_estimate(self):
        c = PrecisionController()
        c.decide(1.0, 1e-30)
        # a frsz2_16 cycle landing at ~2.5 u16 is storage-capped: the
        # controller must not adopt 7.5e-5 as the matrix's rate
        c.observe_cycle(CycleRecord("frsz2_16", 1.0, 7.5e-5, 50))
        assert c._gain_pred is None

    def test_distress_arms_held_upshift(self):
        """A stalled cycle arms an upshift held for the rest of the solve:
        the floor rises to the rung above it and stays there."""
        c = PrecisionController()
        first = c.decide(1.0, 1e-30)
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 0.9999, 50))  # stall
        later = [c.decide(rrn, 1e-30) for rrn in (0.9999, 1e-3, 1e-20)]
        assert first.storage == "frsz2_32"
        assert [d.storage for d in later] == ["float64"] * 3

    def test_floor_does_not_yield_to_closeout(self):
        """RM07R's stall: a frsz2_16 cycle admitted by the finish line
        raises the residual.  Its gain is no rate to plan with, and the
        finish line, which still admits frsz2_16, does not lower the
        floor that cycle raised."""
        c = PrecisionController()
        c.decide(1.0, 1e-6)
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 2.06e-6, 50))
        d = c.decide(2.06e-6, 1e-6)
        assert (d.storage, d.reason) == ("frsz2_16", "error-bound")
        c.observe_cycle(CycleRecord("frsz2_16", 2.06e-6, 3.18e-6, 50))
        assert c._gain_pred == 2.06e-6
        d = c.decide(3.18e-6, 1e-6)
        assert (d.storage, d.reason) == ("frsz2_32", "floor")

    def test_capped_cycle_is_a_success(self):
        """A cycle that hit its format's wall made progress: no distress,
        so a cheaper rung stays open once the finish line admits it."""
        c = PrecisionController()
        c.decide(1.0, 1e-3)
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 1e-9, 50))
        assert c.floor == LADDER[0]
        d = c.decide(1e-2, 1e-3)
        assert (d.storage, d.reason) == ("frsz2_16", "error-bound")

    def test_reorthogonalization_is_no_distress(self):
        """Some matrices re-orthogonalize every step even in float64: a
        cycle that did so and made progress moves no floor."""
        c = PrecisionController()
        c.decide(1.0, 1e-30)
        c.observe_cycle(CycleRecord("frsz2_16", 1.0, 1e-2, 50,
                                    reorthogonalizations=50))
        assert c.floor == LADDER[0]
        assert c.decide(1e-2, 1e-30).reason == "error-bound"

    def test_floor_clamps_and_is_monotone(self):
        c = PrecisionController()
        floors = []
        for record in (
            CycleRecord("frsz2_16", 1.0, 1.0, 50),  # stall: floor frsz2_32
            CycleRecord("frsz2_32", 1.0, 1e-4, 50),  # progress: floor held
            CycleRecord("frsz2_32", 1.0, 0.5, 50, recoveries=1),
            CycleRecord("frsz2_16", 1.0, 1e-4, 50, loss_of_orthogonality=True),
        ):
            c.observe_cycle(record)
            floors.append(c.floor)
            # the finish line admits frsz2_16 at every decision
            d = c.decide(1e-4, 1e-5)
            assert (d.storage, d.reason) == (c.floor, "floor")
        assert floors == ["frsz2_32", "frsz2_32", "float64", "float64"]

    def test_floor_rejects_off_ladder(self):
        """A record at a storage off the ladder counts as its top: the
        floor never leaves the ladder."""
        c = PrecisionController()
        c.observe_cycle(CycleRecord("float32", 1.0, math.nan, 50))
        assert c.floor == "float64"
        assert c.decide(1.0, 1e-6).storage == "float64"

    def test_floor_applies_at_construction(self):
        """A new controller's floor is the ladder's bottom: its first
        pick is the error-bound rule's alone."""
        c = PrecisionController()
        assert c.floor == LADDER[0]
        assert c.decide(1.0, 1e-6).reason == "error-bound"

    def test_decide_opens_the_cycle_record(self):
        c = PrecisionController()
        for rrn in (1.0, 1e-3):
            d = c.decide(rrn, 1e-6)
            assert (d.start_rrn, d.iterations, d.basis_writes) == (rrn, 0, 0)
            assert d.needed_gain > 0 and d.reason == "error-bound"


class TestAdaptiveSolve:
    def test_converges_with_trace(self, lung2):
        res = CbGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )
        assert res.converged
        assert res.storage == ADAPTIVE_STORAGE
        assert res.stats.cycles
        for cycle in res.stats.cycles:
            assert cycle.storage in LADDER and cycle.reason is not None

    def test_traffic_buckets_account_all_basis_io(self, lung2):
        """Every vector the basis walked or wrote is in a cycle record."""
        tracer = Tracer()
        res = CbGmres(lung2.a, "adaptive", m=30, max_iter=500,
                      tracer=tracer).solve(lung2.b, lung2.target_rrn)
        cycles = res.stats.cycles
        assert tracer.counters["basis.vector_reads"] == sum(
            c.step_vectors + c.update_vectors for c in cycles)
        assert tracer.counters["accessor.writes"] == sum(
            c.basis_writes for c in cycles)

    def test_cached_streaming_bit_identity(self, atmosmodd):
        runs = {}
        for mode in ("cached", "streaming"):
            runs[mode] = CbGmres(
                atmosmodd.a, "adaptive", m=20, max_iter=800, basis_mode=mode
            ).solve(atmosmodd.b, atmosmodd.target_rrn)
        a, b = runs["cached"], runs["streaming"]
        assert a.iterations == b.iterations
        assert a.stats.cycles == b.stats.cycles
        np.testing.assert_array_equal(a.x, b.x)

    def test_fgmres_adaptive_z_basis(self, lung2):
        res = FlexibleGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )
        assert res.converged
        assert res.stats.cycles and res.stats.cycles[0].reason is not None
        # the steps walk the float64 V; the Z writes are the cycle's
        for cycle in res.stats.cycles:
            assert cycle.step_storage == "float64" and cycle.basis_writes > 0

    def test_timing_model_prices_buckets(self, lung2):
        from repro.gpu import solve_phases

        res = CbGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )

        def basis_seconds(stats):
            phases = solve_phases(stats)
            return phases["basis_read"] + phases["basis_write"]

        mixed = basis_seconds(res.stats)
        assert mixed > 0
        # the same records priced at float64 must cost at least as much
        # as each cycle at its own width
        flat = dataclasses.replace(res.stats, cycles=[
            dataclasses.replace(c, storage="float64") for c in res.stats.cycles])
        assert basis_seconds(flat) >= mixed


class _FireOn(FaultInjector):
    """An injector that fires on the listed trials only."""

    def __init__(self, *trials):
        super().__init__(0.0, 0)
        self.hits = set(trials)

    def fire(self):
        self.trials += 1
        return self.trials in self.hits


def _traced_solve(solver_cls, a, storage, p, m, **kw):
    tracer = Tracer()
    solver = solver_cls(a, storage, m=m, max_iter=800, tracer=tracer, **kw)
    return solver.solve(p.b, p.target_rrn), tracer


def _assert_records_add_up(res, tracer):
    """One record per opened cycle, and the records sum to the solve's
    totals, each cycle ending where the next one starts."""
    stats, cycles = res.stats, res.stats.cycles
    opened = sum(1 for s in tracer.spans if s.name == "arnoldi" and s.attrs["j"] == 1)
    assert len(cycles) == opened > 1
    assert sum(c.iterations for c in cycles) == res.iterations == stats.iterations
    # the walks the records bill are the walks the bases counted
    assert sum(c.step_walks + (c.update_vectors > 0) for c in cycles) == \
        tracer.counters["basis.fused.walks"]
    assert sum(c.step_vectors + c.update_vectors for c in cycles) * stats.n == \
        tracer.counters["basis.fused.values"]
    assert sum(c.reorthogonalizations for c in cycles) == stats.reorthogonalizations
    assert sum(c.recoveries for c in cycles) <= stats.recoveries
    for before, after in zip(cycles, cycles[1:]):
        assert before.end_rrn == after.start_rrn
    assert cycles[0].start_rrn == 1.0
    assert all(c.basis_writes > 0 and c.bits_per_value > 0 for c in cycles)
    # the shift counters the solve emits are the records' storage steps
    steps = [LADDER.index(b.storage) - LADDER.index(a.storage)
             for a, b in zip(cycles, cycles[1:]) if a.reason is not None]
    assert tracer.counters.get("precision.upshifts", 0) == sum(s > 0 for s in steps)
    assert tracer.counters.get("precision.downshifts", 0) == sum(s < 0 for s in steps)


class TestCycleRecords:
    """``SolveStats.cycles``: the one per-cycle record of every solve."""

    @pytest.mark.parametrize("solver_cls", [CbGmres, FlexibleGmres])
    @pytest.mark.parametrize("storage", ["frsz2_32", "float64", ADAPTIVE_STORAGE])
    def test_records_add_up(self, atmosmodd, solver_cls, storage):
        res, tracer = _traced_solve(solver_cls, atmosmodd.a, storage, atmosmodd, 20)
        assert res.converged
        _assert_records_add_up(res, tracer)
        adaptive = storage == ADAPTIVE_STORAGE
        for cycle in res.stats.cycles:
            assert (cycle.reason is not None) == adaptive
            assert cycle.storage in LADDER if adaptive else cycle.storage == storage
        # the last cycle ends on the solve's own final residual
        assert res.stats.cycles[-1].end_rrn == res.final_rrn
        # a flexible solve's steps walk its float64 V
        flexible = solver_cls is FlexibleGmres
        assert {c.step_storage for c in res.stats.cycles} == {
            "float64" if flexible else None}

    def test_records_of_a_fault_injected_adaptive_solve(self, atmosmodd):
        """The restart residual after the first cycle (SpMV trial 22 at
        m = 20) comes back NaN: its recovery is charged to the cycle
        before it, which the controller then reads as distress — every
        later cycle runs above that cycle's rung."""
        a = FaultySpmvMatrix(atmosmodd.a, _FireOn(22), "spmv_nan")
        res, tracer = _traced_solve(CbGmres, a, ADAPTIVE_STORAGE, atmosmodd, 20)
        assert res.converged
        assert [e.kind for e in res.breakdown_events] == ["nonfinite_residual"]
        _assert_records_add_up(res, tracer)
        cycles = res.stats.cycles
        assert [c.recoveries for c in cycles] == [1] + [0] * (len(cycles) - 1)
        assert cycles[0].iterations == 20 == res.breakdown_events[0].iteration
        assert cycles[0].storage == "frsz2_32"
        assert (cycles[1].storage, cycles[1].reason) == ("float64", "floor")
        assert {c.storage for c in cycles[1:]} == {"float64"}

    def test_records_of_a_seeded_fault_injected_solve(self, atmosmodd):
        a = FaultySpmvMatrix(atmosmodd.a, FaultInjector(0.05, 3), "spmv_nan")
        res, tracer = _traced_solve(CbGmres, a, ADAPTIVE_STORAGE, atmosmodd, 20)
        assert res.recoveries > 1
        _assert_records_add_up(res, tracer)


def _mixing(formats, backend="numpy"):
    """A storage factory that gives slot ``i`` ``formats[i]`` (cycled)."""
    slots = itertools.count()

    def factory(fmt, n):
        return make_accessor(formats[next(slots) % len(formats)], n, backend=backend)

    return factory


class TestMixedStorageBasis:
    """A mixed-format basis comes from a storage factory: it reads its
    slots tile by tile, each at its own format, with the bits of every
    mode and backend."""

    def test_mixed_slots_from_a_storage_factory(self):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((256, 4))
        for mode in ("cached", "streaming"):
            basis = KrylovBasis(256, 3, "frsz2_32", basis_mode=mode,
                                storage_factory=_mixing(
                                    ["frsz2_32", "frsz2_16", "frsz2_32", "float64"]))
            for j in range(4):
                basis.write_vector(j, vecs[:, j])
            # float64 slot is exact; lossy slots are within their bound
            np.testing.assert_array_equal(basis.read_vector(3), vecs[:, 3])
            err16 = np.max(np.abs(basis.read_vector(1) - vecs[:, 1]))
            err32 = np.max(np.abs(basis.read_vector(2) - vecs[:, 2]))
            assert err32 < err16 < 1e-3

    def test_mixed_slots_bit_identical_across_modes(self):
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((300, 3))
        w = rng.standard_normal(300)
        outs = []
        for mode in ("cached", "streaming"):
            basis = KrylovBasis(300, 3, "frsz2_32", basis_mode=mode,
                                storage_factory=_mixing(["frsz2_16", "frsz2_32", "frsz2_32"]))
            for j in range(3):
                basis.write_vector(j, vecs[:, j])
            outs.append([*basis.step(3, w / np.linalg.norm(w), w, 0.7)[1:6], basis.combine(3, np.ones(3))])
        for c, s in zip(*outs):
            np.testing.assert_array_equal(c, s)

    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            pytest.param("jit", marks=pytest.mark.skipif(
                not jit_dispatch.jit_available(),
                reason="jit engine unavailable",
            )),
        ],
    )
    def test_mixed_slots_bit_identical_across_backends(self, backend):
        # set_storage rebuilds accessors through the basis' default
        # factory, which must keep the construction-time backend pinned
        # — a rebuilt slot silently dropping to numpy would go unnoticed
        # (bit-identical!) but forfeit the jit speedup, and a backend
        # mismatch in kernels would break these exact comparisons
        rng = np.random.default_rng(23)
        vecs = rng.standard_normal((320, 3))
        w = rng.standard_normal(320)
        outs = {}
        for b in ("numpy", backend):
            basis = KrylovBasis(320, 3, "frsz2_32", backend=b)
            basis.set_storage("frsz2_16")
            assert {acc.codec.backend for acc in basis.accessors} == {b}
            mixed = KrylovBasis(320, 3, "frsz2_32", backend=b, storage_factory=_mixing(
                ["frsz2_16", "frsz2_32", "float64"], b))
            outs[b] = []
            for each in (basis, mixed):
                for j in range(3):
                    each.write_vector(j, vecs[:, j])
                outs[b] += [*each.step(3, w / np.linalg.norm(w), w, 0.7)[1:6], each.combine(3, np.ones(3))]
        for c, s in zip(outs["numpy"], outs[backend]):
            np.testing.assert_array_equal(c, s)


def _assert_distress_raises_the_floor(cycles):
    """No cycle after a distressed one runs at or below its rung (at the
    ladder's top: below it)."""
    top = len(LADDER) - 1
    floor = 0
    for cycle in cycles:
        rung = LADDER.index(cycle.storage)
        assert rung >= floor
        ratio = cycle.end_rrn / cycle.start_rrn
        if not ratio < STALL_FACTOR or cycle.loss_of_orthogonality or cycle.recoveries:
            floor = max(floor, min(rung + 1, top))


class TestRobustComposition:
    def test_escalation_expands_adaptive_with_rising_floors(self):
        """The controller raises its own floor inside the solve, so the
        escalation runs it once, then the ladder's top."""
        plan = escalation(ADAPTIVE_STORAGE)
        assert plan == (ADAPTIVE_STORAGE, "float64")
        assert escalation("frsz2_16") == LADDER
        assert escalation("float32") == ("float32", "float64")

    def test_adaptive_chain_solves(self, lung2):
        solver = RobustCbGmres(lung2.a, ADAPTIVE_STORAGE, m=30, max_iter=500)
        rr = solver.solve(lung2.b, lung2.target_rrn)
        assert rr.converged and not rr.fell_back
        assert rr.storage_used == ADAPTIVE_STORAGE

    def test_floor_holds_in_a_solve(self):
        """RM07R: the frsz2_16 cycle raises the residual, and the solve
        closes on frsz2_32, held there by the floor."""
        p = make_problem("RM07R", "smoke")
        res = CbGmres(p.a, ADAPTIVE_STORAGE, m=50).solve(p.b, p.target_rrn)
        assert res.converged
        cycles = res.stats.cycles
        assert [c.storage for c in cycles[:2]] == ["frsz2_32", "frsz2_16"]
        assert cycles[1].end_rrn > cycles[1].start_rrn
        assert len(cycles) > 2 and all(
            c.storage == "frsz2_32" and c.reason == "floor" for c in cycles[2:])
        _assert_distress_raises_the_floor(cycles)

    def test_campaign_accepts_adaptive(self):
        camp = run_campaign(
            matrix="lung2", scale="smoke",
            faults=("payload_bitflip",), storages=("adaptive",),
            rates=(0.05,), m=30, max_iter=500,
        )
        assert camp.survival_rate == 1.0
        assert all(c.storage == "adaptive" for c in camp.cells)

    def test_campaign_still_rejects_unknown_storage(self):
        with pytest.raises(ValueError, match="unknown storage"):
            run_campaign(storages=("not_a_format",))


# ---------------------------------------------------------------------
# fuzz: seeded fault + adaptation schedules
# ---------------------------------------------------------------------

_rrn = st.floats(min_value=1e-16, max_value=1.0, allow_nan=False)
_feedback = st.builds(
    CycleRecord,
    storage=st.sampled_from(LADDER),
    start_rrn=_rrn,
    end_rrn=_rrn,
    iterations=st.integers(min_value=0, max_value=60),
    reorthogonalizations=st.integers(min_value=0, max_value=60),
    loss_of_orthogonality=st.booleans(),
    recoveries=st.integers(min_value=0, max_value=3),
)
_event = st.one_of(
    st.tuples(st.just("observe"), _feedback),
    st.tuples(st.just("decide"), _rrn),
)


class TestControllerFuzz:
    @given(events=st.lists(_event, max_size=40), target=_rrn)
    @settings(max_examples=200, deadline=None)
    def test_any_schedule_keeps_invariants(self, events, target):
        """Arbitrary interleavings of feedback and decisions never
        crash, never leave the ladder, never pick below the floor, and
        never lower it."""
        c = PrecisionController()
        floor = c.floor
        for kind, payload in events:
            if kind == "observe":
                c.observe_cycle(payload)
                assert LADDER.index(c.floor) >= LADDER.index(floor)
                floor = c.floor
            else:
                d = c.decide(payload, target)
                assert d.storage in LADDER
                assert LADDER.index(d.storage) >= LADDER.index(c.floor)
                assert d.start_rrn == payload and d.reason is not None

    @given(records=st.lists(_feedback, max_size=20), target=_rrn)
    @settings(max_examples=200, deadline=None)
    def test_no_cycle_after_distress_runs_at_or_below_its_rung(self, records, target):
        """Feed each decision back as the record of the cycle it ran,
        with an arbitrary outcome: a distressed cycle's rung (or, at the
        ladder's top, anything below it) is never picked again."""
        c = PrecisionController()
        ran = []
        rrn = 1.0
        for outcome in records:
            d = c.decide(rrn, target)
            cycle = dataclasses.replace(outcome, storage=d.storage, start_rrn=rrn)
            c.observe_cycle(cycle)
            ran.append(cycle)
            rrn = cycle.end_rrn
        _assert_distress_raises_the_floor(ran)

    @given(
        fault=st.sampled_from(("payload_bitflip", "readout_nan")),
        rate=st.sampled_from((0.02, 0.08)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=6, deadline=None)
    def test_faulted_adaptive_solves_terminate(self, fault, rate, seed):
        """Seeded faults against the adaptive chain: every solve is
        terminal, nothing silently diverges, and escalation always wins
        (the campaign marks non-surviving cells, so survival==1 means
        the float64 terminal caught whatever the controller could not)."""
        camp = run_campaign(
            matrix="lung2", scale="smoke",
            faults=(fault,), storages=("adaptive",), rates=(rate,),
            seed=seed, m=30, max_iter=500,
        )
        (cell,) = camp.cells
        assert cell.outcome in ("converged", "fell_back")
        assert np.isfinite(cell.final_rrn)
        assert cell.final_rrn <= 1.0


# ---------------------------------------------------------------------
# the 14 smoke matrices: the controller converges where a fixed rung does
# ---------------------------------------------------------------------

#: bit-identical to numpy, and ~10x faster on aniso_jump's 17 300 steps
_FAST = "jit" if jit_dispatch.jit_available() else "numpy"


class TestAdaptiveConvergesOnTheSuite:
    """Plain ``adaptive`` at m = 50 against fixed ``frsz2_32`` on the
    smoke matrices: a cheaper rung that fails costs one cycle, not the
    solve."""

    @pytest.mark.parametrize("matrix", ["RM07R", "StocF-1465", "PR02R"])
    def test_within_twice_fixed_frsz2_32(self, matrix):
        p = make_problem(matrix, "smoke")
        fixed, adaptive = (
            CbGmres(p.a, storage, m=50, backend=_FAST).solve(
                p.b, p.target_rrn, record_history=False)
            for storage in ("frsz2_32", ADAPTIVE_STORAGE)
        )
        assert fixed.converged and adaptive.converged
        assert adaptive.iterations <= 2 * fixed.iterations
        _assert_distress_raises_the_floor(adaptive.stats.cycles)

    def test_converges_on_aniso_jump(self):
        """Fixed frsz2_32 reaches 1.2e-7 in 20 000 iterations here."""
        p = make_problem("aniso_jump", "smoke")
        res = CbGmres(p.a, ADAPTIVE_STORAGE, m=50, backend=_FAST).solve(
            p.b, p.target_rrn, record_history=False)
        assert res.converged

    @pytest.mark.parametrize("matrix", suite_names())
    def test_robust_adaptive_takes_one_attempt(self, matrix):
        p = make_problem(matrix, "smoke")
        rr = RobustCbGmres(p.a, ADAPTIVE_STORAGE, m=50, backend=_FAST).solve(
            p.b, p.target_rrn)
        assert rr.converged and len(rr.attempts) == 1
