"""Tests for the GPU performance model (device, kernels, roofline, timing)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.gpu import (
    A100_SXM,
    H100_PCIE,
    PHASES,
    achieved_bandwidth,
    bandwidth_efficiency,
    cuszp2_bandwidth_range,
    format_cost,
    frsz2_vs_cuszp2_speedup,
    read_kernel_cost,
    roofline_series,
    solve_phases,
    speedup_table,
)
from repro.gpu.kernels import KernelCost
from repro.observe import Tracer
from repro.solvers import CbGmres, FlexibleGmres, SolveOptions, make_problem

from .backends import BACKENDS


class TestDeviceSpec:
    def test_h100_headline_numbers(self):
        assert H100_PCIE.mem_bandwidth == 2000e9
        assert H100_PCIE.fp64_flops == 25.6e12
        assert H100_PCIE.l2_bytes == 50 * 1024 * 1024

    def test_flops_per_double_read_is_about_100(self):
        """The Section I pen-and-paper calculation."""
        assert H100_PCIE.flops_per_double_read == pytest.approx(102.4)

    def test_spare_ops_budget_at_32_bits(self):
        """~46 operations available once values shrink to 32 bits."""
        budget = H100_PCIE.spare_ops_budget(stored_bits=32, used_flops=4)
        assert 40 <= budget <= 55


class TestFormatCost:
    def test_float64_is_free(self):
        f = format_cost("float64")
        assert f.stored_bits == 64 and f.decompress_ops == 0

    def test_frsz2_32_is_33_bits(self):
        assert format_cost("frsz2_32").stored_bits == pytest.approx(33.0)

    def test_frsz2_aliases(self):
        assert format_cost("Acc<frsz2_21>").stored_bits == format_cost("frsz2_21").stored_bits

    def test_unaligned_surcharge(self):
        aligned = format_cost("frsz2_32")
        straddling = format_cost("frsz2_21")
        assert not straddling.aligned
        assert straddling.decompress_ops > aligned.decompress_ops

    def test_instruction_counts_within_budget(self):
        f = format_cost("frsz2_32")
        assert f.decompress_ops <= 46
        assert f.compress_ops <= 46

    def test_unknown_format_raises(self):
        with pytest.raises(KeyError):
            format_cost("float128")


class TestKernelCost:
    def test_memory_bound_kernel(self):
        c = KernelCost(bytes_moved=1e9, fp64_flops=1e6, int_ops=0)
        t = c.time_on(H100_PCIE)
        assert t == pytest.approx(1e9 / (2000e9 * 0.92))

    def test_compute_bound_kernel(self):
        c = KernelCost(bytes_moved=8, fp64_flops=1e12, int_ops=0)
        assert c.time_on(H100_PCIE) == pytest.approx(1e12 / 25.6e12)

    def test_int_pipe_can_dominate(self):
        c = KernelCost(bytes_moved=8, fp64_flops=0, int_ops=1e13)
        assert c.time_on(H100_PCIE) == pytest.approx(1e13 / 51.2e12)

    def test_unaligned_slower(self):
        a = KernelCost(bytes_moved=1e9, fp64_flops=0, int_ops=0, aligned=True)
        u = KernelCost(bytes_moved=1e9, fp64_flops=0, int_ops=0, aligned=False)
        assert u.time_on(H100_PCIE) > a.time_on(H100_PCIE)


class TestRoofline:
    """The Fig. 4 observations, as assertions on the model."""

    def setup_method(self):
        self.series = roofline_series(intensities=(1.0, 4.0, 16.0, 128.0, 1024.0))

    def _gflops(self, fmt):
        return np.array([p.gflops for p in self.series[fmt]])

    def test_accessor_is_zero_cost(self):
        assert np.allclose(self._gflops("float64"), self._gflops("Acc<float64>"))
        assert np.allclose(self._gflops("float32"), self._gflops("Acc<float32>"))

    def test_frsz2_16_fastest_at_low_intensity(self):
        low = {f: self.series[f][0].gflops for f in self.series}
        assert max(low, key=low.get) == "Acc<frsz2_16>"

    def test_frsz2_16_not_twice_float32(self):
        """Fig. 4: 'it is not a factor of 2 faster than single-precision'."""
        r = self.series["Acc<frsz2_16>"][0].gflops / self.series["Acc<float32>"][0].gflops
        assert 1.0 < r < 2.0

    def test_frsz2_32_just_below_float32(self):
        f32 = self.series["Acc<float32>"][0].gflops
        frsz2 = self.series["Acc<frsz2_32>"][0].gflops
        assert frsz2 < f32
        assert frsz2 > f32 * 0.93  # 32/33 bits, minus the derate

    def test_frsz2_21_no_faster_than_frsz2_32(self):
        """Fig. 4: the 33% footprint saving does not translate to speed."""
        assert (
            self.series["Acc<frsz2_21>"][0].gflops
            <= self.series["Acc<frsz2_32>"][0].gflops * 1.02
        )

    def test_all_formats_merge_when_compute_bound(self):
        high = [self.series[f][-1].gflops for f in self.series]
        assert max(high) / min(high) < 1.01

    def test_gap_closes_with_intensity(self):
        gap = self._gflops("Acc<frsz2_16>") / self._gflops("float64")
        assert np.all(np.diff(gap) <= 1e-9)  # never widens
        assert gap[0] > 2.0 and gap[-1] == pytest.approx(1.0)

    def test_monotone_in_intensity(self):
        for fmt in self.series:
            g = self._gflops(fmt)
            assert np.all(np.diff(g) >= -1e-9)


class TestBandwidthClaims:
    def test_frsz2_32_reaches_99_6_percent(self):
        """Paper: 'Acc<frsz2_32> reaches 1991GB/s, ~99.6% of reachable'."""
        assert bandwidth_efficiency("Acc<frsz2_32>") == pytest.approx(0.996, abs=0.002)

    def test_achieved_bandwidth_below_peak(self):
        assert achieved_bandwidth("Acc<frsz2_32>") < H100_PCIE.mem_bandwidth

    def test_cuszp2_range_scales_with_device(self):
        lo_h, hi_h = cuszp2_bandwidth_range(H100_PCIE)
        lo_a, hi_a = cuszp2_bandwidth_range(A100_SXM)
        assert lo_h > lo_a and hi_h > hi_a
        assert hi_a == pytest.approx(1241e9)

    def test_frsz2_vs_cuszp2_matches_claim4(self):
        """Paper claim 4: 1.2~3.1x faster than cuSZp2 at the roofline."""
        lo, hi = frsz2_vs_cuszp2_speedup()
        assert 1.0 < lo < 1.5
        assert 2.5 < hi < 3.5


class TestTimingModel:
    def _solve(self, fmt, problem):
        return CbGmres(problem.a, fmt).solve(problem.b, problem.target_rrn)

    def test_timing_breakdown_positive(self):
        p = make_problem("lung2", "smoke")
        t = solve_phases(self._solve("frsz2_32", p).stats)
        assert tuple(t) == PHASES
        assert t["spmv"] > 0
        assert t["basis_read"] > 0
        assert t["basis_write"] > 0
        assert t["preconditioner"] == 0.0  # no cost_info: free

    def test_smaller_storage_means_less_basis_read_time(self):
        """Per stored vector the walks read, a float16 basis costs less
        than half a float64 one."""
        p = make_problem("lung2", "smoke")
        per_vector = {}
        for fmt in ("float64", "float16"):
            stats = self._solve(fmt, p).stats
            vectors = sum(c.step_vectors + c.update_vectors for c in stats.cycles)
            per_vector[fmt] = solve_phases(stats)["basis_read"] / vectors
        assert per_vector["float16"] < per_vector["float64"] / 2

    def test_speedup_table_baseline_is_one(self):
        p = make_problem("lung2", "smoke")
        results = [self._solve(f, p) for f in ("float64", "float32")]
        table = speedup_table(results)
        assert table["float64"] == pytest.approx(1.0)

    def test_speedup_table_requires_baseline(self):
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError):
            speedup_table([self._solve("float32", p)])

    def test_unconverged_formats_omitted(self):
        """Fig. 11: 'the entire bar is removed ... if a storage format
        does not reach the targeted relative residual norm'."""
        p = make_problem("PR02R", "default")
        r64 = self._solve("float64", p)
        r16 = CbGmres(p.a, "float16", max_iter=2000).solve(p.b, p.target_rrn)
        table = speedup_table([r64, r16])
        assert "float16" not in table

    def test_atmosmod_ordering_matches_fig11(self):
        """frsz2_32 beats float32 beats float64 on the atmosmod family."""
        p = make_problem("atmosmodd", "default")
        results = [self._solve(f, p) for f in ("float64", "frsz2_32", "float32")]
        table = speedup_table(results)
        assert table["frsz2_32"] > table["float32"] > 0.95
        assert table["frsz2_32"] > 1.0


class _WalkProbe:
    """What the row sources walked, counted beside the solver's billing:
    every outermost ``step`` call records ``(k, flags)``, every outermost
    ``fused_axpy(..., store=True)`` (the update's ``V y``) its ``j``.
    Calls nested in another (a Python step body's walks, a compiled
    table under :class:`Frsz2Tiles`, a tile of a loaded source) are the
    same walk and are not counted again."""

    def __init__(self, monkeypatch):
        from repro.accessor import Frsz2Tiles
        from repro.fused.kernels import _LoadedRows, _NumpyRows
        from repro.jit import cbackend, dispatch

        self.steps, self.combines, self.depth = [], [], 0
        sources = [_NumpyRows, _LoadedRows, Frsz2Tiles]
        if dispatch.jit_available():
            sources.append(cbackend._Rows)
        for cls in sources:
            monkeypatch.setattr(cls, "step", self._wrap(
                cls.step, lambda args, kw, flags: self.steps.append((args[0], flags))))
            monkeypatch.setattr(cls, "fused_axpy", self._wrap(
                cls.fused_axpy, self._combine))

    def _combine(self, args, kwargs, _):
        if (args[5] if len(args) > 5 else kwargs.get("store", False)):
            self.combines.append(args[0])

    def _wrap(self, walk, record):
        def wrapped(source, *args, **kwargs):
            self.depth += 1
            try:
                out = walk(source, *args, **kwargs)
            finally:
                self.depth -= 1
            if not self.depth:
                record(args, kwargs, out)
            return out
        return wrapped

    def step_vectors_per_cycle(self):
        """Per cycle (a step over ``k = 0`` stored vectors opens one), the
        vectors its steps walked: the dot and the axpy of width two,
        ``k`` vectors each."""
        cycles = []
        for k, _ in self.steps:
            if k == 0:
                cycles.append(0)
            cycles[-1] += 2 * k
        return cycles


def _assert_billed_walks_ran(result, probe):
    cycles = result.stats.cycles
    assert [c.step_vectors for c in cycles] == probe.step_vectors_per_cycle()
    # two walks per step over a stored vector, whatever its flags
    assert sum(c.step_walks for c in cycles) == 2 * sum(
        1 for k, _ in probe.steps if k)
    assert [c.update_vectors for c in cycles if c.update_vectors] == probe.combines
    # and the price is the sum of its parts
    phases = solve_phases(result.stats)
    total = sum(phases.values())
    assert all(0.0 <= s <= total for s in phases.values()) and phases["basis_read"] > 0


class TestBilledWalks:
    """The walks a cycle record bills are the walks the row sources ran,
    counted independently at the sources' ``step`` and combine."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["cached", "streaming"])
    @pytest.mark.parametrize("storage", ["float64", "frsz2_16", "frsz2_32"])
    @pytest.mark.parametrize("matrix", ["atmosmodd", "cfd2", "lung2"])
    def test_fixed_storage(self, monkeypatch, matrix, storage, mode, backend):
        p = make_problem(matrix, "smoke")
        probe = _WalkProbe(monkeypatch)
        r = CbGmres(p.a, storage, m=30, basis_mode=mode, backend=backend).solve(
            p.b, p.target_rrn)
        assert r.converged and probe.steps
        _assert_billed_walks_ran(r, probe)
        assert {c.step_storage for c in r.stats.cycles} == {None}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adaptive(self, monkeypatch, backend):
        p = make_problem("atmosmodd", "smoke")
        probe = _WalkProbe(monkeypatch)
        r = CbGmres(p.a, "adaptive", m=20, backend=backend).solve(p.b, p.target_rrn)
        assert r.converged and len({c.storage for c in r.stats.cycles}) > 1
        _assert_billed_walks_ran(r, probe)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_flexible(self, monkeypatch, backend):
        """The steps walk and write the float64 V, priced at float64; the
        SpMV reads z_{j-1} back and the update walks the compressed Z.
        Every vector the bases read or wrote is in a record."""
        for matrix, storage in itertools.product(
                ("atmosmodd", "lung2"), ("frsz2_32", "adaptive")):
            p = make_problem(matrix, "smoke")
            probe = _WalkProbe(monkeypatch)
            tracer = Tracer()
            r = FlexibleGmres(p.a, storage, m=20, backend=backend,
                              tracer=tracer).solve(p.b, p.target_rrn)
            monkeypatch.undo()
            cycles = r.stats.cycles
            assert r.converged
            _assert_billed_walks_ran(r, probe)
            assert {c.step_storage for c in cycles} == {"float64"}
            assert tracer.counters["accessor.writes"] == sum(
                c.basis_writes + c.step_writes for c in cycles)
            assert tracer.counters["basis.vector_reads"] == sum(
                c.step_vectors + c.update_vectors + c.direction_reads for c in cycles)
            assert [c.direction_reads for c in cycles] == [c.iterations for c in cycles]
            at_z = dataclasses.replace(r.stats, cycles=[
                dataclasses.replace(c, step_storage=None) for c in cycles])
            assert solve_phases(at_z)["basis_read"] < solve_phases(r.stats)["basis_read"]
            unbilled = dataclasses.replace(r.stats, cycles=[
                dataclasses.replace(c, step_writes=0, direction_reads=0)
                for c in cycles])
            for phase in ("basis_read", "basis_write"):
                assert solve_phases(unbilled)[phase] < solve_phases(r.stats)[phase]


class TestOnePrice:
    def test_a_preconditioned_solve_prices_its_applies(self):
        p = make_problem("lung2", "smoke")
        solver = SolveOptions(storage="frsz2_32", preconditioner="ilu0").build(p.a)
        r = solver.solve(p.b, p.target_rrn)
        info = solver.preconditioner.cost_info()
        free, priced = solve_phases(r.stats), solve_phases(r.stats, prec_info=info)
        assert free["preconditioner"] == 0.0 < priced["preconditioner"]
        assert {k: v for k, v in free.items() if k != "preconditioner"} == {
            k: v for k, v in priced.items() if k != "preconditioner"}

    def test_formats_replace_a_storage_profile(self):
        """An ablation's cost profile replaces the catalog's for its
        storage name, and only there."""
        p = make_problem("lung2", "smoke")
        stats = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn).stats
        wide = dataclasses.replace(format_cost("frsz2_32"), stored_bits=64.0)
        priced = solve_phases(stats, formats={"frsz2_32": wide})
        assert priced["basis_read"] > solve_phases(stats)["basis_read"]
        assert solve_phases(stats, formats={"float16": wide}) == solve_phases(stats)
