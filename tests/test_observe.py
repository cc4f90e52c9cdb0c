"""Tests for the repro.observe tracing layer and the perf bench on top.

Covers the tracer substrate (nested spans, counters, aggregation), the
instrumented hot paths (solver, basis, accessors, codec, SpMV), the
zero-overhead/bit-identical guarantee of the default null tracer, and
the ``python -m repro bench`` document lifecycle (run, validate,
persist, compare, and the source fingerprint that ties a committed
document to the checkout).
"""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.bench import perf
from repro.bench.perf import (
    BENCH_PHASES,
    BENCH_SCHEMA_VERSION,
    check_bench,
    compare_bench,
    load_bench,
    run_bench,
    run_bench_entry,
    source_fingerprint,
    validate_bench,
    write_bench,
)
from repro.core import FRSZ2
from repro.jit import jit_unavailable_reason
from repro.observe import NULL_TRACER, NullTracer, Tracer
from repro.solvers import CbGmres, make_problem
from repro.sparse import SpmvEngine
from repro.sparse.generators import stencil_2d


class TestTracerSubstrate:
    def test_nested_spans_record_paths_and_depths(self):
        clock = iter(range(100)).__next__
        t = Tracer(clock=lambda: float(clock()))
        with t.span("restart"):
            with t.span("arnoldi", j=1):
                with t.span("spmv"):
                    pass
        names = [(s.name, s.path, s.depth) for s in t.spans]
        assert names == [
            ("spmv", "restart/arnoldi/spmv", 2),
            ("arnoldi", "restart/arnoldi", 1),
            ("restart", "restart", 0),
        ]
        assert t.spans[1].attrs == {"j": 1}

    def test_exclusive_time_subtracts_direct_children(self):
        ticks = iter([0.0, 1.0, 2.0, 10.0])  # open A, open B, close B, close A
        t = Tracer(clock=ticks.__next__)
        with t.span("outer"):
            with t.span("inner"):
                pass
        agg = t.by_name()
        assert agg["inner"].seconds == pytest.approx(1.0)
        assert agg["outer"].seconds == pytest.approx(10.0)
        assert agg["outer"].exclusive_seconds == pytest.approx(9.0)

    def test_total_seconds_under_isolates_ancestry(self):
        ticks = iter([float(i) for i in range(20)])
        t = Tracer(clock=ticks.__next__)
        with t.span("orthogonalize"):
            with t.span("basis_read"):
                pass
        with t.span("update"):
            with t.span("basis_read"):
                pass
        assert t.total_seconds("basis_read") == pytest.approx(2.0)
        assert t.total_seconds("basis_read", under="orthogonalize") == pytest.approx(1.0)
        assert t.total_seconds("basis_read", under="update") == pytest.approx(1.0)
        assert t.total_seconds("basis_read", under="spmv") == 0.0

    def test_counters_accumulate(self):
        t = Tracer()
        t.count("a")
        t.count("a", 4)
        t.count("b", 2.5)
        assert t.counters == {"a": 5, "b": 2.5}

    def test_reset_clears_state(self):
        t = Tracer()
        with t.span("x"):
            t.count("c")
        t.reset()
        assert t.spans == [] and t.counters == {}

    def test_exception_still_closes_span(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in t.spans] == ["boom"]
        assert t.spans[0].end >= t.spans[0].start

    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        assert nt.enabled is False
        with nt.span("anything", attr=1):
            nt.count("ignored", 7)
        assert nt.spans == [] and nt.counters == {}
        assert nt.total_seconds("anything") == 0.0
        assert nt.by_name() == {}
        assert NULL_TRACER.enabled is False


def _small_problem():
    a = stencil_2d(12, 12, 4.0, -1.0)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.shape[0])
    return a, b


class TestInstrumentedSolve:
    def test_solver_emits_expected_span_names(self):
        a, b = _small_problem()
        t = Tracer()
        a = SpmvEngine(a, "csr")
        a.tracer = t
        res = CbGmres(a, "frsz2_32", m=20, max_iter=200, tracer=t).solve(b, 1e-8)
        assert res.converged
        agg = t.by_name()
        for name in (
            "restart", "arnoldi", "spmv", "orthogonalize",
            "basis_read", "basis_write", "update", "csr.matvec",
        ):
            assert name in agg, f"missing span {name}"
        # one spmv per matvec: restarts + iterations + final verification
        assert agg["spmv"].count == res.stats.spmv_calls
        assert agg["arnoldi"].count == res.iterations
        assert agg["basis_write"].count == sum(
            c.basis_writes for c in res.stats.cycles)

    def test_counters_cover_every_layer(self):
        a, b = _small_problem()
        t = Tracer()
        a = SpmvEngine(a, "csr")
        a.tracer = t
        res = CbGmres(a, "frsz2_32", m=20, max_iter=200, tracer=t).solve(b, 1e-8)
        c = t.counters
        cycles = res.stats.cycles
        writes = sum(cycle.basis_writes for cycle in cycles)
        assert c["spmv.calls"] == res.stats.spmv_calls
        assert c["frsz2.compress.calls"] == writes
        assert c["accessor.writes"] == writes
        assert c["frsz2.compress.values"] == writes * a.shape[0]
        # the walks the records bill are the walks the basis counted
        assert c["basis.vector_reads"] == sum(
            cycle.step_vectors + cycle.update_vectors for cycle in cycles)
        assert c["basis.fused.walks"] == sum(
            cycle.step_walks + (cycle.update_vectors > 0) for cycle in cycles)
        assert c["basis.bytes_read"] > 0

    def test_null_tracer_results_bit_identical(self):
        a1, b = _small_problem()
        a2, _ = _small_problem()
        plain = CbGmres(a1, "frsz2_32", m=20, max_iter=200).solve(b, 1e-10)
        t = Tracer()
        a2 = SpmvEngine(a2, "csr")
        a2.tracer = t
        traced = CbGmres(a2, "frsz2_32", m=20, max_iter=200, tracer=t).solve(b, 1e-10)
        assert np.array_equal(
            plain.x.view(np.uint64), traced.x.view(np.uint64)
        )
        assert plain.iterations == traced.iterations
        assert plain.final_rrn == traced.final_rrn

    def test_basis_read_nested_under_orthogonalize_and_update(self):
        a, b = _small_problem()
        t = Tracer()
        CbGmres(a, "float64", m=20, max_iter=200, tracer=t).solve(b, 1e-8)
        assert t.total_seconds("basis_read", under="orthogonalize") > 0.0
        assert t.total_seconds("basis_read", under="update") > 0.0
        paths = {s.path for s in t.spans if s.name == "basis_read"}
        assert all("orthogonalize" in p or "update" in p for p in paths)


class TestCodecCounters:
    def test_frsz2_get_counts_blocks_touched(self):
        codec = FRSZ2(bit_length=32, block_size=32)
        t = Tracer()
        codec.tracer = t
        comp = codec.compress(np.linspace(-1, 1, 128))  # 4 blocks
        codec.get(comp, np.array([0, 1, 33, 97]))  # blocks 0, 1, 3
        assert t.counters["frsz2.compress.calls"] == 1
        assert t.counters["frsz2.compress.blocks"] == 4
        assert t.counters["frsz2.get.calls"] == 1
        assert t.counters["frsz2.get.values"] == 4
        assert t.counters["frsz2.get.blocks"] == 3

    def test_decompress_counts_bytes(self):
        codec = FRSZ2(bit_length=21)
        t = Tracer()
        codec.tracer = t
        comp = codec.compress(np.ones(100))
        codec.decompress(comp)
        assert t.counters["frsz2.decompress.bytes"] == comp.nbytes
        assert t.counters["frsz2.decompress.values"] == 100


BENCH_KW = dict(
    matrices=["lung2"],
    storages=["float64", "float32", "frsz2_32"],
    scale="smoke",
    m=30,
    max_iter=500,
)


@pytest.fixture(scope="module")
def bench_doc():
    return run_bench(**BENCH_KW)


class TestBenchDocument:
    def test_schema_valid_and_versioned(self, bench_doc):
        validate_bench(bench_doc)  # raises on violation
        assert bench_doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert len(bench_doc["entries"]) == 3

    def test_per_phase_attribution_present_for_required_storages(self, bench_doc):
        seen = {e["storage"] for e in bench_doc["entries"]}
        assert {"float64", "float32", "frsz2_32"} <= seen
        for entry in bench_doc["entries"]:
            assert set(entry["phases"]) == set(BENCH_PHASES)
            modeled = sum(
                p["modeled_seconds"] for p in entry["phases"].values()
            )
            assert modeled == pytest.approx(entry["modeled_seconds"])
            assert entry["phases"]["spmv"]["modeled_seconds"] > 0
            assert entry["phases"]["basis_read"]["modeled_seconds"] > 0

    def test_document_reads_no_clock(self, bench_doc):
        keys = re.findall(r'"([^"]+)":', json.dumps(bench_doc))
        assert [k for k in keys if re.search("wall|speedup|created", k)] == []
        assert bench_doc["source_sha256"] == source_fingerprint()

    def test_frsz2_entry_carries_codec_counters(self, bench_doc):
        entry = next(
            e for e in bench_doc["entries"] if e["storage"] == "frsz2_32"
        )
        assert entry["counters"]["frsz2.compress.calls"] > 0
        assert entry["bits_per_value"] == pytest.approx(33.0, abs=1.5)

    def test_write_load_roundtrip(self, bench_doc, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(bench_doc, str(path))
        assert load_bench(str(path)) == json.loads(path.read_text()) == bench_doc

    def test_validator_rejects_mutations(self, bench_doc):
        bad = copy.deepcopy(bench_doc)
        bad["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        del bad["entries"][0]["phases"]["spmv"]
        with pytest.raises(ValueError, match="phases"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        bad["entries"][0]["final_rrn"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        del bad["entries"][0]["iterations"]
        with pytest.raises(ValueError, match="iterations"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        bad["entries"][0]["basis"]["bit_identical_modes"] = False
        with pytest.raises(ValueError, match="bit_identical_modes"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        bad["entries"][0]["backend"]["bit_identical_numpy"] = False
        with pytest.raises(ValueError, match="bit_identical_numpy"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        bad["entries"][0]["phases"]["spmv"]["wall_seconds"] = 0.1
        with pytest.raises(ValueError, match="phases.spmv"):
            validate_bench(bad)
        bad = copy.deepcopy(bench_doc)
        bad["source_sha256"] = "not-a-digest"
        with pytest.raises(ValueError, match="source_sha256"):
            validate_bench(bad)

    def test_deterministic_metrics_reproducible(self, bench_doc):
        assert run_bench(**BENCH_KW) == bench_doc

    def test_diverging_numpy_reference_refuses_to_emit(self, monkeypatch):
        """The jit ≡ numpy gate: a jit entry whose numpy reference solve
        lands one ulp elsewhere must raise, not record the entry."""
        reason = jit_unavailable_reason()
        if reason is not None:
            pytest.skip(f"no jit engine to gate: {reason}")

        class OffByOneUlpOnNumpy(CbGmres):
            def solve(self, b, target_rrn):
                result = super().solve(b, target_rrn)
                if self.backend == "numpy":
                    result.x[0] = np.nextafter(result.x[0], np.inf)
                return result

        kwargs = dict(scale="smoke", m=20, max_iter=300, backend="jit")
        entry = run_bench_entry("lung2", "frsz2_32", **kwargs)
        assert entry["backend"]["resolved"] == "jit"
        assert entry["backend"]["bit_identical_numpy"] is True
        monkeypatch.setattr(perf, "CbGmres", OffByOneUlpOnNumpy)
        with pytest.raises(ValueError, match="refusing to emit"):
            run_bench_entry("lung2", "frsz2_32", **kwargs)


COMMITTED = str(Path(__file__).resolve().parents[1] / "BENCH_gmres.json")


class TestCommittedTrajectory:
    """Artifact gates on the committed ``BENCH_gmres.json``: it is this
    checkout's (``check_bench`` refuses a stale fingerprint), it
    regenerates, and it *shows* what the trajectory point must, beyond
    the key sets and identity flags ``validate_bench`` enforces on
    every document."""

    @pytest.fixture(scope="class")
    def doc(self):
        return check_bench(COMMITTED)

    def test_cheapest_cell_regenerates_field_for_field(self, doc):
        (committed,) = [
            dict(e) for e in doc["entries"]
            if (e["matrix"], e["storage"]) == ("lung2", "float64")
        ]
        entry = run_bench_entry(
            "lung2", "float64", scale=doc["scale"], m=doc["restart"],
            max_iter=doc["max_iter"], spmv_format=doc["spmv_format"],
            basis_mode=doc["basis_mode"], backend=doc["backend"]["requested"],
        )
        # the one field downstream of a BLAS dot/nrm2, whose kernel
        # OpenBLAS picks per CPU; everything else is exact
        assert entry.pop("final_rrn") == pytest.approx(
            committed.pop("final_rrn"), rel=1e-9
        )
        assert entry == committed

    def test_planted_stale_fingerprint_is_refused(self, doc, tmp_path, capsys):
        stale = copy.deepcopy(doc)
        digest = doc["source_sha256"]
        stale["source_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        assert main(["bench", "--check", str(path)]) == 2
        err = capsys.readouterr().err
        assert stale["source_sha256"] in err and digest in err
        # comparing across commits is --compare's purpose
        assert main(["bench", "--compare", COMMITTED, str(path)]) == 0

    @pytest.fixture(scope="class")
    def tier(self, doc):
        """``(matrix, preconditioner) -> (entry, preconditioner block)``."""
        return {
            (e["matrix"], e["preconditioner"]["name"]): (e, e["preconditioner"])
            for e in doc["entries"] if "preconditioner" in e
        }

    def test_every_entry_records_fused_basis_counters(self, doc):
        for e in doc["entries"]:
            assert {"basis.fused.walks", "basis.fused.tiles",
                    "basis.fused.values"} <= set(e["counters"]), \
                (e["matrix"], e["storage"])

    def test_no_phase_is_priced_above_the_whole(self, doc):
        """One price per entry: its phases sum to ``modeled_seconds``, so
        none (the basis walks included) exceeds it."""
        for e in doc["entries"]:
            total = e["modeled_seconds"]
            phases = [cell["modeled_seconds"] for cell in e["phases"].values()]
            assert sum(phases) == pytest.approx(total, rel=1e-12)
            assert all(0.0 <= s <= total for s in phases), (e["matrix"], e["storage"])
            assert e["phases"]["basis_read"]["modeled_seconds"] > 0

    def test_grid_includes_adaptive_entries(self, doc):
        assert any(e["storage"] == "adaptive" for e in doc["entries"])

    @pytest.mark.parametrize("matrix", ["aniso_jump", "conv_dom", "bem_dense"])
    def test_ilu0_beats_unpreconditioned_baseline(self, tier, matrix):
        entry, block = tier[(matrix, "ilu0")]
        assert entry["converged"]
        assert block["iteration_ratio"] < 1.0

    def test_at_least_two_baselines_hit_the_iteration_cap(self, tier):
        capped = [
            matrix for (matrix, _), (entry, block) in tier.items()
            if entry["converged"] and not block["baseline_converged"]
        ]
        assert len(capped) >= 2, capped

    def test_compressed_block_jacobi_halves_factor_bytes(self, tier):
        entry, block = tier[("lung2", "block_jacobi")]
        assert block["storage"].startswith("frsz2_")
        assert entry["converged"]
        assert block["bytes_saved_fraction"] > 0.5


class TestBenchCompare:
    def test_identical_documents_clean(self, bench_doc):
        assert compare_bench(bench_doc, bench_doc) == []

    def test_injected_iteration_regression_flagged(self, bench_doc):
        worse = copy.deepcopy(bench_doc)
        worse["entries"][0]["iterations"] *= 2
        regs = compare_bench(bench_doc, worse, tolerance=0.05)
        assert any(r.metric == "iterations" for r in regs)

    def test_injected_modeled_time_regression_flagged(self, bench_doc):
        worse = copy.deepcopy(bench_doc)
        worse["entries"][-1]["modeled_seconds"] *= 1.5
        regs = compare_bench(bench_doc, worse)
        assert [r.metric for r in regs] == ["modeled_seconds"]

    def test_lost_convergence_flagged(self, bench_doc):
        worse = copy.deepcopy(bench_doc)
        worse["entries"][0]["converged"] = False
        regs = compare_bench(bench_doc, worse)
        assert any(r.metric == "converged" for r in regs)

    def test_missing_entry_flagged(self, bench_doc):
        worse = copy.deepcopy(bench_doc)
        worse["entries"] = worse["entries"][1:]
        regs = compare_bench(bench_doc, worse)
        assert any("coverage" in r.metric for r in regs)

    def test_improvement_is_not_a_regression(self, bench_doc):
        better = copy.deepcopy(bench_doc)
        for e in better["entries"]:
            e["iterations"] = max(e["iterations"] - 5, 1)
            e["modeled_seconds"] *= 0.5
        assert compare_bench(bench_doc, better) == []

    def test_tolerance_absorbs_small_drift(self, bench_doc):
        drift = copy.deepcopy(bench_doc)
        for e in drift["entries"]:
            e["modeled_seconds"] *= 1.03
        assert compare_bench(bench_doc, drift, tolerance=0.05) == []
        assert compare_bench(bench_doc, drift, tolerance=0.01) != []


class TestBenchEntry:
    def test_single_entry_smoke(self):
        entry = run_bench_entry("lung2", "frsz2_32", "smoke", m=20, max_iter=300)
        assert entry["matrix"] == "lung2"
        assert entry["converged"]
        assert entry["counters"]["spmv.calls"] > 0
