"""Adaptive precision controller: unit rules, solver threading, and
composition with the robust fault-escalation chain.

The controller's contract (docs/PRECISION.md):

* per restart it picks the cheapest ladder format whose unit roundoff
  (x safety) fits inside the reduction the cycle must deliver;
* storage-distress feedback (capped cycles, relative re-orth jumps,
  orthogonality loss, recoveries) arms a *held* upshift;
* a floor — the composition rule with an escalation
  (``escalation``: ``repro.robust`` and the serve retry) — always wins
  over anything the error-bound rule would admit.
"""

import dataclasses
import itertools

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
        c = PrecisionController()
        first = c.decide(1.0, 1e-30)
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 0.9999, 50))  # stall
        d = c.decide(0.9999, 1e-30)
        assert (first.storage, d.storage) == ("frsz2_32", "float64")
        assert d.reason == "feedback-hold"

    def test_hold_yields_to_closeout(self):
        c = PrecisionController()
        c.decide(1.0, 1e-3)
        # capped-but-excellent cycle arms a hold...
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 1e-9, 50))
        d = c.decide(1e-2, 1e-3)
        # ...but the remaining decade fits inside one frsz2_16 cycle,
        # so the hold must not force an expensive closing cycle
        assert d.storage == "frsz2_16"
        assert d.reason == "error-bound"

    def test_reorth_signal_is_relative(self):
        c = PrecisionController()
        c.decide(1.0, 1e-30)
        # 100% re-orthogonalization on the very first cycle sets the
        # reference; with no jump over it, no distress upshift fires
        # (some matrices re-orthogonalize every step even in float64)
        c.observe_cycle(CycleRecord("frsz2_32", 1.0, 1e-4, 50,
                                    reorthogonalizations=50))
        d = c.decide(1e-4, 1e-30)
        assert d.reason == "error-bound"

    def test_floor_clamps_and_is_monotone(self):
        c = PrecisionController(floor="float64")
        for rrn in (1.0, 1e-5):  # the floor holds at every decision
            d = c.decide(rrn, 1e-6)
            assert (d.storage, d.reason) == ("float64", "floor")
        assert c.floor == "float64"

    def test_floor_rejects_off_ladder(self):
        with pytest.raises(ValueError, match="ladder"):
            PrecisionController(floor="float32")

    def test_floor_applies_at_construction(self):
        assert PrecisionController().floor == LADDER[0]
        assert PrecisionController(floor="frsz2_32").floor == "frsz2_32"

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
        before it, which the controller then reads as distress."""
        a = FaultySpmvMatrix(atmosmodd.a, _FireOn(22), "spmv_nan")
        res, tracer = _traced_solve(CbGmres, a, ADAPTIVE_STORAGE, atmosmodd, 20)
        assert res.converged
        assert [e.kind for e in res.breakdown_events] == ["nonfinite_residual"]
        _assert_records_add_up(res, tracer)
        cycles = res.stats.cycles
        assert [c.recoveries for c in cycles] == [1] + [0] * (len(cycles) - 1)
        assert cycles[0].iterations == 20 == res.breakdown_events[0].iteration
        assert cycles[1].reason == "feedback-hold"

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
            outs.append([*basis.step(3, w, 0.7)[1:4], basis.combine(3, np.ones(3))])
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
                outs[b] += [*each.step(3, w, 0.7)[1:4], each.combine(3, np.ones(3))]
        for c, s in zip(outs["numpy"], outs[backend]):
            np.testing.assert_array_equal(c, s)


class TestRobustComposition:
    def test_escalation_expands_adaptive_with_rising_floors(self):
        plan = escalation(ADAPTIVE_STORAGE)
        assert plan == (
            (ADAPTIVE_STORAGE, None),
            (ADAPTIVE_STORAGE, "frsz2_32"),
            ("float64", None),
        )
        # a floor is a rung of the ladder, rising along the plan
        floors = [LADDER.index(f or LADDER[0]) for s, f in plan if s == ADAPTIVE_STORAGE]
        assert floors == sorted(floors)

    def test_adaptive_chain_solves(self, lung2):
        solver = RobustCbGmres(lung2.a, ADAPTIVE_STORAGE, m=30, max_iter=500)
        rr = solver.solve(lung2.b, lung2.target_rrn)
        assert rr.converged
        # every adaptive attempt honored its floor
        for (storage, floor), attempt in zip(escalation(ADAPTIVE_STORAGE), rr.attempts):
            if storage != ADAPTIVE_STORAGE or floor is None:
                continue
            for cycle in attempt.stats.cycles:
                assert LADDER.index(cycle.storage) >= LADDER.index(floor)

    def test_floor_holds_in_a_solve(self, atmosmodd):
        res = CbGmres(atmosmodd.a, ADAPTIVE_STORAGE, m=20, max_iter=800,
                      floor="frsz2_32").solve(atmosmodd.b, atmosmodd.target_rrn)
        assert res.converged
        assert "frsz2_16" not in {c.storage for c in res.stats.cycles}

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
    @given(events=st.lists(_event, max_size=40), target=_rrn,
           floor=st.sampled_from((None,) + LADDER))
    @settings(max_examples=200, deadline=None)
    def test_any_schedule_keeps_invariants(self, events, target, floor):
        """Arbitrary interleavings of feedback and decisions never
        crash, never leave the ladder, and never pick below the floor."""
        c = PrecisionController(floor=floor)
        for kind, payload in events:
            if kind == "observe":
                c.observe_cycle(payload)
            else:
                d = c.decide(payload, target)
                assert d.storage in LADDER
                assert LADDER.index(d.storage) >= LADDER.index(c.floor)
                assert d.start_rrn == payload and d.reason is not None

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
