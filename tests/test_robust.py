"""Fault injection, breakdown recovery, precision fallback, corruption.

Covers the robustness acceptance surface: seeded injectors replay
exactly; v2 containers detect every single-bit corruption; injected
NaN/Inf never crash the hardened solver or escape into the returned
solution; the storage escalation guarantees convergence via float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FRSZ2
from repro.core.serialize import dump_bytes, load_bytes
from repro.robust import (
    FaultInjector,
    FaultyAccessor,
    FaultySpmvMatrix,
    RobustCbGmres,
    fault_hooks,
    flip_array_bit,
    flip_container_bit,
    flip_exponent_bit,
    flip_payload_bit,
    run_campaign,
    truncate_container,
)
from repro.accessor import make_accessor
from repro.solvers import CbGmres, GivensLeastSquares, escalation, make_problem


def small_container(n=40, bs=8, l=21, seed=3):
    codec = FRSZ2(l, bs)
    comp = codec.compress(np.random.default_rng(seed).standard_normal(n))
    return codec, comp, dump_bytes(comp)


# ----------------------------------------------------------------------
# injectors
# ----------------------------------------------------------------------

class TestInjectors:
    def test_deterministic_replay(self):
        a = FaultInjector(0.3, 42)
        b = FaultInjector(0.3, 42)
        assert [a.fire() for _ in range(200)] == [b.fire() for _ in range(200)]
        assert a.injected == b.injected > 0

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(1.5, 0)

    def test_flip_array_bit_flips_exactly_one_bit(self):
        arr = np.zeros(4, dtype=np.uint32)
        flip_array_bit(arr, 37)
        bits = np.unpackbits(arr.view(np.uint8))
        assert bits.sum() == 1

    def test_flip_payload_and_exponent_bits(self):
        codec, comp, _ = small_container()
        before = codec.decompress(comp).copy()
        flip_payload_bit(comp, 11)
        after_payload = codec.decompress(comp)
        assert not np.array_equal(before, after_payload)
        flip_exponent_bit(comp, 3)
        assert not np.array_equal(after_payload, codec.decompress(comp))

    def test_faulty_spmv_injects_nan(self):
        p = make_problem("lung2", "smoke")
        a = FaultySpmvMatrix(p.a, FaultInjector(1.0, 0), "spmv_nan")
        y = a.matvec(p.b)
        assert np.isnan(y).sum() == 1
        assert a.shape == p.a.shape and a.nnz == p.a.nnz

    def test_faulty_accessor_readout_nan(self):
        inj = FaultInjector(1.0, 0)
        acc = FaultyAccessor(make_accessor("frsz2_32", 64), inj, "readout_nan")
        acc.write(np.linspace(-1, 1, 64))
        out = acc.read()
        assert np.isnan(out).sum() == 1
        # the wrapped (uncorrupted) accessor is untouched
        assert np.isfinite(acc.inner.read()).all()

    def test_faulty_accessor_storage_bitflip(self):
        inj = FaultInjector(1.0, 1)
        acc = FaultyAccessor(make_accessor("frsz2_32", 64), inj, "payload_bitflip")
        v = np.linspace(-1, 1, 64)
        acc.write(v)
        assert not np.array_equal(acc.read(), FRSZ2(32, 32).roundtrip(v))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultyAccessor(make_accessor("float64", 8), FaultInjector(0.1, 0), "nope")
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError, match="fault kind"):
            FaultySpmvMatrix(p.a, FaultInjector(0.1, 0), "readout_nan")


# ----------------------------------------------------------------------
# container corruption (v2 CRC32 + hostile headers)
# ----------------------------------------------------------------------

class TestContainerCorruption:
    def test_v2_detects_single_bit_flip_anywhere(self):
        _, _, data = small_container()
        for bit in range(len(data) * 8):
            with pytest.raises(ValueError):
                load_bytes(flip_container_bit(data, bit))

    def test_v2_detects_every_byte_mutation(self):
        _, _, data = small_container()
        for pos in range(len(data)):
            mutated = bytearray(data)
            mutated[pos] ^= 0xFF
            with pytest.raises(ValueError):
                load_bytes(bytes(mutated))

    def test_truncation_at_every_length_raises(self):
        _, _, data = small_container()
        for length in range(len(data)):
            with pytest.raises(ValueError):
                load_bytes(truncate_container(data, length))

    def test_v1_mutations_never_crash_outside_valueerror(self):
        # the unchecksummed v1 layout (no trailer) is refused whole: no
        # mutation of it loads, so none can slip corruption through
        import struct
        _, _, data = small_container()
        v1 = bytearray(data[:-4])
        struct.pack_into("<H", v1, 4, 1)  # version field
        with pytest.raises(ValueError, match="version 1"):
            load_bytes(bytes(v1))
        for pos in range(len(v1)):
            mutated = bytearray(v1)
            mutated[pos] ^= 0x10
            with pytest.raises(ValueError):
                load_bytes(bytes(mutated))

    def test_hostile_header_zero_block_size(self):
        import struct
        _, _, data = small_container()
        buf = bytearray(data)
        struct.pack_into("<I", buf, 8, 0)  # bs field
        with pytest.raises(ValueError, match="block_size"):
            load_bytes(bytes(buf))

    def test_hostile_header_bad_bit_length(self):
        import struct
        _, _, data = small_container()
        for bad in (0, 1, 65, 40_000):
            buf = bytearray(data)
            struct.pack_into("<H", buf, 6, bad)  # l field
            with pytest.raises(ValueError, match="bit_length"):
                load_bytes(bytes(buf))

    def test_hostile_header_overflowing_count(self):
        import struct
        _, _, data = small_container()
        buf = bytearray(data)
        struct.pack_into("<Q", buf, 12, 2**63)  # n field
        with pytest.raises(ValueError, match="n=9223372036854775808"):
            load_bytes(bytes(buf))


# ----------------------------------------------------------------------
# breakdown recovery in the hardened solver
# ----------------------------------------------------------------------

class TestRecovery:
    def test_spmv_nan_recovered_and_logged(self):
        p = make_problem("atmosmodd", "smoke")
        a = FaultySpmvMatrix(p.a, FaultInjector(0.05, 123), "spmv_nan")
        res = CbGmres(a, "frsz2_32", m=50, max_iter=2000).solve(p.b, p.target_rrn)
        assert res.converged
        assert res.recoveries > 0
        assert res.stats.recoveries == res.recoveries
        assert len(res.breakdown_events) >= res.recoveries
        assert {e.kind for e in res.breakdown_events} <= {
            "nonfinite_spmv", "nonfinite_residual", "nonfinite_orthogonalization",
            "nonfinite_update", "basis_write_failed", "loss_of_orthogonality",
        }
        assert np.all(np.isfinite(res.x))

    def test_unhardened_crashes_or_diverges(self):
        p = make_problem("atmosmodd", "smoke")
        a = FaultySpmvMatrix(p.a, FaultInjector(0.05, 123), "spmv_nan")
        solver = CbGmres(a, "frsz2_32", m=50, max_iter=2000, recovery=False)
        try:
            res = solver.solve(p.b, p.target_rrn)
        except (FloatingPointError, ValueError, OverflowError):
            return  # crash: the failure mode recovery exists to remove
        assert not res.converged

    def test_persistent_faults_exhaust_budget_gracefully(self):
        p = make_problem("lung2", "smoke")
        a = FaultySpmvMatrix(p.a, FaultInjector(1.0, 0), "spmv_nan")
        res = CbGmres(a, "frsz2_32", m=20, max_iter=500, max_recoveries=3).solve(
            p.b, p.target_rrn
        )
        assert not res.converged
        assert res.recovery_exhausted
        assert res.recoveries >= 3
        assert np.all(np.isfinite(res.x))

    def test_clean_solve_records_nothing(self):
        p = make_problem("lung2", "smoke")
        res = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        assert res.converged
        assert res.recoveries == 0
        assert res.breakdown_events == []
        assert not res.recovery_exhausted

    def test_givens_rejects_nonfinite_column(self):
        lsq = GivensLeastSquares(4, 1.0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            lsq.append_column(np.array([np.nan]), 0.5)
        with pytest.raises(FloatingPointError, match="non-finite"):
            lsq.append_column(np.array([1.0]), np.inf)

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.02, 0.05, 0.15]),
           st.sampled_from(["spmv_nan", "spmv_inf"]))
    @settings(max_examples=15, deadline=None)
    def test_injected_nonfinite_never_escapes(self, seed, rate, kind):
        p = make_problem("lung2", "smoke")
        a = FaultySpmvMatrix(p.a, FaultInjector(rate, seed), kind)
        res = CbGmres(a, "frsz2_32", m=30, max_iter=400).solve(p.b, p.target_rrn)
        assert np.all(np.isfinite(res.x))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_basis_readout_nan_never_escapes(self, seed):
        p = make_problem("lung2", "smoke")
        inj = FaultInjector(0.1, seed)
        factory = lambda fmt, n: FaultyAccessor(make_accessor(fmt, n), inj, "readout_nan")
        res = CbGmres(p.a, "frsz2_32", m=30, max_iter=400,
                      storage_factory=factory).solve(p.b, p.target_rrn)
        assert np.all(np.isfinite(res.x))


# ----------------------------------------------------------------------
# escalation / RobustCbGmres
# ----------------------------------------------------------------------

class TestFallback:
    def test_escalation(self):
        assert escalation("frsz2_16") == ("frsz2_16", "frsz2_32", "float64")
        assert escalation("frsz2_32") == ("frsz2_32", "float64")
        assert escalation("float64") == ("float64",)
        assert escalation("float32") == ("float32", "float64")
        assert escalation("adaptive") == ("adaptive", "float64")

    def test_unknown_format_rejected_eagerly(self):
        p = make_problem("lung2", "smoke")
        with pytest.raises(KeyError):
            RobustCbGmres(p.a, "not_a_format")

    def test_clean_problem_no_fallback(self):
        p = make_problem("lung2", "smoke")
        rr = RobustCbGmres(p.a, "frsz2_32",
                           m=30, max_iter=500).solve(p.b, p.target_rrn)
        assert rr.outcome == "converged"
        assert not rr.fell_back
        assert len(rr.attempts) == 1
        assert rr.storage_used == "frsz2_32"

    def test_hopeless_format_falls_back_to_terminal(self):
        # PR02R at a tightened target defeats float16; float64 guarantees it
        p = make_problem("PR02R", "smoke")
        rr = RobustCbGmres(p.a, "float16",
                           m=50, max_iter=1500).solve(p.b, p.target_rrn * 1e-4)
        assert rr.converged
        assert rr.fell_back
        assert rr.outcome == "fell_back"
        assert rr.storage_used == "float64"
        assert rr.total_iterations == sum(a.iterations for a in rr.attempts)


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

class TestCampaign:
    KW = dict(
        matrix="atmosmodd",
        scale="smoke",
        faults=("payload_bitflip", "readout_nan", "spmv_nan"),
        storages=("frsz2_16", "frsz2_32", "float32"),
        rates=(0.05,),
        seed=11,
        m=40,
        max_iter=1500,
    )

    def test_hardened_campaign_survives_every_cell(self):
        camp = run_campaign(**self.KW)
        assert len(camp.cells) == 9  # 3 faults x 3 storages x 1 rate
        for cell in camp.cells:
            assert cell.outcome in ("converged", "fell_back"), cell
        assert camp.survival_rate == 1.0
        assert "survival rates" in camp.summary()
        assert "fault-injection campaign" in camp.table()

    def test_campaign_is_deterministic(self):
        a = run_campaign(**self.KW)
        b = run_campaign(**self.KW)
        assert a.cells == b.cells

    def test_unhardened_campaign_shows_the_gap(self):
        camp = run_campaign(**{**self.KW, "hardened": False, "fallback": False})
        outcomes = {c.outcome for c in camp.cells}
        # without recovery, NaN faults crash or diverge at least somewhere
        assert outcomes & {"crashed", "diverged", "stalled", "capped", "failed"}
        assert camp.survival_rate < 1.0


class TestFaultHooks:
    """One place turns a fault kind into ``SolveOptions.build`` keywords,
    for the campaign's cells and a serve job's chaos plan alike."""

    def test_accessor_faults_carry_the_resolved_backend(self):
        """A ``backend="jit"`` job under an accessor fault used to get
        numpy codecs behind its back (the chaos factory dropped the
        backend; the campaign's passed it)."""
        from repro.jit import resolve_backend
        from repro.solvers import SolveOptions

        jit = resolve_backend("jit", warn=False)
        p = make_problem("lung2", "smoke")
        hooks = fault_hooks("payload_bitflip", FaultInjector(0.0, 1))
        solver = SolveOptions(storage="frsz2_32", backend=jit).build(p.a, **hooks)
        acc = solver._storage_factory("frsz2_32", p.a.n)
        assert isinstance(acc, FaultyAccessor)
        assert acc.inner.codec.backend == solver.backend == jit

    @pytest.mark.parametrize("kind", ["payload_bitflip", "readout_nan"])
    def test_accessor_chaos_job_equals_the_campaign_cell(self, kind):
        """Same plan, rate 0, jit when there is an engine: the serve
        job, a hand-wrapped solve and the campaign's cell agree — ``x``
        to the byte where it is returned."""
        from repro.jit import resolve_backend
        from repro.serve import JobSpec, run_attempt

        jit = resolve_backend("jit", warn=False)
        kw = dict(m=30, max_iter=400, basis_mode="streaming", backend=jit)
        spec = JobSpec(matrix="lung2", storage="frsz2_32", **kw,
                       chaos={"kind": kind, "rate": 0.0})
        out = run_attempt([spec.to_dict()], ["j"], 1, spec.storage)["results"]["j"]
        p = make_problem("lung2", "smoke")
        injector = FaultInjector(0.0, 0)
        ref = CbGmres(
            p.a, "frsz2_32", **kw,
            storage_factory=lambda fmt, n: FaultyAccessor(
                make_accessor(fmt, n, backend=jit), injector, kind),
        ).solve(p.b, p.target_rrn)
        assert out["x"].tobytes() == ref.x.tobytes()
        (cell,) = run_campaign(
            matrix="lung2", scale="smoke", faults=(kind,),
            storages=("frsz2_32",), rates=(0.0,), **kw,
        ).cells
        assert (cell.iterations, cell.final_rrn) == (
            out["iterations"], out["final_rrn"])

    def test_unknown_kind_is_named(self):
        with pytest.raises(ValueError, match="fault kind 'meteor'"):
            fault_hooks("meteor", FaultInjector(0.0, 0))


class TestWrappedBasisTakesPerAccessorReads:
    """A fault-injecting wrapper intercepts reads, so the streaming
    reader must not decode its inner payload behind its back: it takes
    the per-accessor route, with cached-mode bits when no fault fires."""

    @pytest.mark.parametrize("backend", ["numpy", "jit"])
    def test_wrapped_slot_falls_back_and_matches_cached(self, backend):
        from repro.accessor import Frsz2Tiles
        from repro.jit import resolve_backend
        from repro.solvers.basis import KrylovBasis

        backend = resolve_backend(backend, warn=False)
        rng = np.random.default_rng(4)
        n = 300
        vectors = rng.standard_normal((n, 3))
        w = rng.standard_normal(n)
        out = []
        for mode in ("cached", "streaming"):
            injector = FaultInjector(0.0, 0)
            slots = iter(range(4))

            def factory(fmt, n, injector=injector, slots=slots):
                acc = make_accessor(fmt, n, backend=backend)
                # only slot 1 is wrapped: one ineligible accessor suffices
                if next(slots) == 1:
                    return FaultyAccessor(acc, injector, "payload_bitflip")
                return acc

            basis = KrylovBasis(n, 3, "frsz2_32", basis_mode=mode,
                                tile_elems=64, storage_factory=factory)
            for i in range(3):
                basis.write_vector(i, vectors[:, i])
            if mode == "streaming":
                assert Frsz2Tiles.open(basis.accessors[:3]) is None
            out.append((*basis.step(3, w / np.linalg.norm(w), w, 0.7)[1:6],
                        basis.combine(3, np.array([1.0, -0.5, 2.0]))))
        for c, s in zip(*out):
            np.testing.assert_array_equal(c, s)
