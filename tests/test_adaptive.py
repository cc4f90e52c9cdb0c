"""Adaptive precision controller: unit rules, solver threading, and
composition with the robust fault-escalation chain.

The controller's contract (docs/PRECISION.md):

* per restart it picks the cheapest ladder format whose unit roundoff
  (x safety) fits inside the reduction the cycle must deliver;
* storage-distress feedback (capped cycles, relative re-orth jumps,
  orthogonality loss, recoveries) arms a *held* upshift;
* external floors — the composition rule with ``repro.robust`` — always
  win over anything the error-bound rule would admit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jit import dispatch as jit_dispatch
from repro.robust import (
    FallbackPolicy,
    RobustCbGmres,
    run_campaign,
)
from repro.solvers import (
    ADAPTIVE_STORAGE,
    CbGmres,
    ControllerConfig,
    CycleFeedback,
    DEFAULT_LADDER,
    FlexibleGmres,
    KrylovBasis,
    PrecisionController,
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


class TestControllerConfig:
    def test_default_ladder_matches_fallback_chain(self):
        from repro.robust.fallback import DEFAULT_CHAIN

        assert DEFAULT_LADDER == DEFAULT_CHAIN

    def test_rejects_misordered_ladder(self):
        with pytest.raises(ValueError, match="ordered"):
            ControllerConfig(ladder=("float64", "frsz2_16"))

    def test_rejects_off_ladder_floor(self):
        with pytest.raises(ValueError, match="floor"):
            ControllerConfig(floor="float32")

    def test_rejects_bad_safety(self):
        with pytest.raises(ValueError, match="safety"):
            ControllerConfig(safety=0.5)


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
        c.observe_cycle(CycleFeedback("frsz2_32", 1.0, 1e-4, 50))
        d = c.decide(1e-4, 1e-6)
        # finish line 1e-2 fits inside one frsz2_16 cycle
        assert d.storage == "frsz2_16"

    def test_capped_cycle_does_not_poison_gain_estimate(self):
        c = PrecisionController()
        c.decide(1.0, 1e-30)
        # a frsz2_16 cycle landing at ~2.5 u16 is storage-capped: the
        # controller must not adopt 7.5e-5 as the matrix's rate
        c.observe_cycle(CycleFeedback("frsz2_16", 1.0, 7.5e-5, 50))
        assert c._gain_pred is None

    def test_distress_arms_held_upshift(self):
        c = PrecisionController()
        c.decide(1.0, 1e-30)
        c.observe_cycle(CycleFeedback("frsz2_32", 1.0, 0.9999, 50))  # stall
        d = c.decide(0.9999, 1e-30)
        assert d.storage == "float64"
        assert d.reason == "feedback-hold"
        assert c.upshifts == 1

    def test_hold_yields_to_closeout(self):
        c = PrecisionController()
        c.decide(1.0, 1e-3)
        # capped-but-excellent cycle arms a hold...
        c.observe_cycle(CycleFeedback("frsz2_32", 1.0, 1e-9, 50))
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
        c.observe_cycle(CycleFeedback("frsz2_32", 1.0, 1e-4, 50,
                                      reorthogonalizations=50))
        d = c.decide(1e-4, 1e-30)
        assert d.reason == "error-bound"

    def test_floor_clamps_and_is_monotone(self):
        c = PrecisionController()
        c.raise_floor("float64")
        c.raise_floor("frsz2_32")  # lowering is a no-op
        assert c.floor == "float64"
        d = c.decide(1.0, 1e-6)
        assert d.storage == "float64"
        assert d.reason == "floor"

    def test_floor_rejects_off_ladder(self):
        with pytest.raises(ValueError, match="ladder"):
            PrecisionController().raise_floor("float32")

    def test_config_floor_applies_at_construction(self):
        c = PrecisionController(ControllerConfig(floor="frsz2_32"))
        assert c.floor == "frsz2_32"

    def test_storage_trace_mirrors_decisions(self):
        c = PrecisionController()
        c.decide(1.0, 1e-6)
        c.decide(1e-3, 1e-6)
        assert c.storage_trace == [d.storage for d in c.decisions]


class TestAdaptiveSolve:
    def test_converges_with_trace(self, lung2):
        res = CbGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )
        assert res.converged
        assert res.storage == ADAPTIVE_STORAGE
        assert res.stats.storage_trace
        assert len(res.precision_trace) == len(res.stats.storage_trace)
        for fmt in res.stats.storage_trace:
            assert fmt in DEFAULT_LADDER

    def test_traffic_buckets_account_all_basis_io(self, lung2):
        res = CbGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )
        assert sum(res.stats.reads_by_storage.values()) == res.stats.basis_reads
        assert sum(res.stats.writes_by_storage.values()) == res.stats.basis_writes

    def test_cached_streaming_bit_identity(self, atmosmodd):
        runs = {}
        for mode in ("cached", "streaming"):
            runs[mode] = CbGmres(
                atmosmodd.a, "adaptive", m=20, max_iter=800, basis_mode=mode
            ).solve(atmosmodd.b, atmosmodd.target_rrn)
        a, b = runs["cached"], runs["streaming"]
        assert a.iterations == b.iterations
        assert a.stats.storage_trace == b.stats.storage_trace
        np.testing.assert_array_equal(a.x, b.x)

    def test_fgmres_adaptive_z_basis(self, lung2):
        res = FlexibleGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )
        assert res.converged
        assert res.stats.storage_trace
        assert res.precision_trace
        assert sum(res.stats.writes_by_storage.values()) == res.stats.basis_writes

    def test_timing_model_prices_buckets(self, lung2):
        from repro.gpu import GmresTimingModel

        res = CbGmres(lung2.a, "adaptive", m=30, max_iter=500).solve(
            lung2.b, lung2.target_rrn
        )
        model = GmresTimingModel()
        moved = model.basis_bytes_moved(res.stats, res.storage)
        assert moved > 0
        # a pure-float64 pricing of the same log must cost at least as
        # much as the mixed-format buckets
        flat = dataclasses.replace(
            res.stats, reads_by_storage={}, writes_by_storage={}
        )
        assert model.basis_bytes_moved(flat, "float64") >= moved


class TestMixedStorageBasis:
    def test_set_storage_per_slot(self):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((256, 4))
        for mode in ("cached", "streaming"):
            basis = KrylovBasis(256, 3, "frsz2_32", basis_mode=mode)
            basis.set_storage("frsz2_16", slots=[1])
            basis.set_storage("float64", slots=[3])
            assert not basis.uniform_storage
            assert basis.slot_storages == [
                "frsz2_32", "frsz2_16", "frsz2_32", "float64"
            ]
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
            basis = KrylovBasis(300, 2, "frsz2_32", basis_mode=mode)
            basis.set_storage("frsz2_16", slots=[0])
            for j in range(3):
                basis.write_vector(j, vecs[:, j])
            outs.append((basis.dot_basis(3, w), basis.combine(3, np.ones(3))))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

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
            basis = KrylovBasis(320, 2, "frsz2_32", backend=b)
            basis.set_storage("frsz2_16", slots=[0])
            basis.set_storage("float64", slots=[2])
            assert basis.backend == b
            for j in range(3):
                basis.write_vector(j, vecs[:, j])
            outs[b] = (basis.dot_basis(3, w), basis.combine(3, np.ones(3)))
        np.testing.assert_array_equal(outs["numpy"][0], outs[backend][0])
        np.testing.assert_array_equal(outs["numpy"][1], outs[backend][1])

    def test_set_storage_rejects_slot_out_of_range(self):
        basis = KrylovBasis(64, 2, "frsz2_32")
        with pytest.raises(IndexError, match="slot"):
            basis.set_storage("float64", slots=[5])


class TestRobustComposition:
    def test_attempt_plan_expands_adaptive_with_rising_floors(self):
        solver = RobustCbGmres(
            make_problem("lung2", "smoke").a,
            FallbackPolicy(chain=("adaptive",) + ("float64",)),
        )
        plan = solver.attempt_plan()
        assert plan == [
            (ADAPTIVE_STORAGE, "frsz2_16"),
            (ADAPTIVE_STORAGE, "frsz2_32"),
            ("float64", None),
        ]
        # floors are monotone non-decreasing along the plan
        ladder = list(DEFAULT_LADDER)
        floors = [ladder.index(f) for _, f in plan if f is not None]
        assert floors == sorted(floors)

    def test_adaptive_chain_solves(self, lung2):
        solver = RobustCbGmres(
            lung2.a, FallbackPolicy(chain=("adaptive", "float64")),
            m=30, max_iter=500,
        )
        rr = solver.solve(lung2.b, lung2.target_rrn)
        assert rr.converged
        # every adaptive attempt honored its floor
        for (storage, floor), attempt in zip(solver.attempt_plan(), rr.attempts):
            if storage != ADAPTIVE_STORAGE or floor is None:
                continue
            floor_idx = list(DEFAULT_LADDER).index(floor)
            for fmt in attempt.stats.storage_trace:
                assert list(DEFAULT_LADDER).index(fmt) >= floor_idx

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
    CycleFeedback,
    storage=st.sampled_from(DEFAULT_LADDER),
    start_rrn=_rrn,
    end_rrn=_rrn,
    iterations=st.integers(min_value=0, max_value=60),
    reorthogonalizations=st.integers(min_value=0, max_value=60),
    loss_of_orthogonality=st.booleans(),
    recoveries=st.integers(min_value=0, max_value=3),
)
_event = st.one_of(
    st.tuples(st.just("observe"), _feedback),
    st.tuples(st.just("floor"), st.sampled_from(DEFAULT_LADDER)),
    st.tuples(st.just("decide"), _rrn),
)


class TestControllerFuzz:
    @given(events=st.lists(_event, max_size=40), target=_rrn)
    @settings(max_examples=200, deadline=None)
    def test_any_schedule_keeps_invariants(self, events, target):
        """Arbitrary interleavings of feedback, floor raises and
        decisions never crash, never leave the ladder, and never pick
        below the floor in force at decision time."""
        c = PrecisionController()
        ladder = list(DEFAULT_LADDER)
        for kind, payload in events:
            if kind == "observe":
                c.observe_cycle(payload)
            elif kind == "floor":
                floor_before = c.floor
                c.raise_floor(payload)
                # floors are monotone
                assert ladder.index(c.floor) >= ladder.index(floor_before)
            else:
                d = c.decide(payload, target)
                assert d.storage in ladder
                assert ladder.index(d.storage) >= ladder.index(c.floor)
        assert len(c.decisions) == sum(1 for k, _ in events if k == "decide")

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
