"""``SolveOptions``: one description of a solve, built one way.

Three contracts.  (1) The config round trip over *every* registered
name of every option: ``SolveOptions(**d).to_dict() == d``,
``from_dict(to_dict())`` is equal, and ``build`` returns a solver that
converges.  (2) Every CLI ``choices=`` list *is* its owner's tuple, so
there is no literal left to drift.  (3) The former build sites — a
serve job, a campaign cell, a bench entry, the ``solve`` command — all
report the answer of one hand-built ``CbGmres``.

Warnings are errors here: a second unavailable-jit warning, or any
numerical warning on these paths, fails the module.
"""

import argparse
import dataclasses
import re

import numpy as np
import pytest

from repro.__main__ import SHARED_BY_COMMAND, build_parser, main
from repro.accessor import list_storage_formats
from repro.bench.perf import run_bench_entry
from repro.jit.dispatch import BACKENDS, resolve_backend
from repro.observe import Tracer
from repro.robust import run_campaign
from repro.serve import JobSpec
from repro.serve.worker import run_attempt
from repro.solvers import (
    ADAPTIVE_STORAGE,
    PREC_STORAGES,
    PRECONDITIONERS,
    CbGmres,
    FlexibleGmres,
    SolveOptions,
    make_preconditioner,
    make_problem,
)
from repro.solvers.basis import BASIS_MODES
from repro.sparse import SpmvEngine, generators
from repro.sparse.engine import SPMV_FORMATS
from repro.sparse.suite import SCALES

pytestmark = pytest.mark.filterwarnings("error")

#: what this host resolves ``jit`` to, asked without the warning
JIT = resolve_backend("jit", warn=False)

BASE = dict(
    storage="frsz2_32", m=20, max_iter=600, spmv_format="csr",
    basis_mode="cached", backend="numpy", preconditioner="none",
    prec_storage="float64",
)

#: every registered name of every option, one case each
CASES = (
    [{"storage": s} for s in list_storage_formats() + [ADAPTIVE_STORAGE]]
    + [{"spmv_format": f} for f in SPMV_FORMATS]
    + [{"basis_mode": mode} for mode in BASIS_MODES]
    + [{"backend": b} for b in BACKENDS]
    + [
        {"preconditioner": p, "prec_storage": s}
        for p in PRECONDITIONERS for s in PREC_STORAGES
    ]
)


@pytest.fixture(scope="module")
def stencil():
    """A 64-row convection-diffusion system with the paper's RHS."""
    a = generators.convection_diffusion_3d(4, 4, 4)
    x = np.sin(np.arange(64.0))
    return a, a.matvec(x / np.linalg.norm(x))


class TestRoundTrip:
    def test_exactly_the_eight_fields(self):
        assert [f.name for f in dataclasses.fields(SolveOptions)] == list(BASE)

    @pytest.mark.parametrize(
        "change", CASES, ids=lambda c: "/".join(map(str, c.values()))
    )
    def test_every_registered_name(self, change, stencil):
        d = {**BASE, **change}
        opts = SolveOptions(**d)
        assert opts.to_dict() == d
        assert SolveOptions.from_dict(opts.to_dict()) == opts
        if d["backend"] != resolve_backend(d["backend"], warn=False):
            pytest.skip("no jit engine on this host to build with")
        a, b = stencil
        result = opts.build(a).solve(b, 1e-6)
        assert result.converged and result.final_rrn <= 1e-6

    @pytest.mark.parametrize("field, value", [
        ("storage", "nope"), ("spmv_format", "coo"), ("basis_mode", "nope"),
        ("backend", "cuda"), ("preconditioner", "lu9"),
        ("prec_storage", "int8"), ("m", 0), ("max_iter", 0), ("m", 2.5),
    ])
    def test_a_refused_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field) as exc:
            SolveOptions(**{**BASE, field: value})
        assert repr(value) in str(exc.value)

    def test_sell_is_refused_everywhere(self, capsys):
        """The sliced layout is gone: each way in names the accepted set."""
        accepted = re.escape(repr(SPMV_FORMATS))
        with pytest.raises(ValueError, match=f"'sell'.*{accepted}"):
            SolveOptions(**{**BASE, "spmv_format": "sell"})
        with pytest.raises(ValueError, match=f"'sell'.*{accepted}"):
            JobSpec.from_dict({"matrix": "lung2", "storage": "float64",
                               "spmv_format": "sell"})
        with pytest.raises(SystemExit) as exc:
            main(["solve", "lung2", "--spmv-format", "sell"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'sell'" in err and "Traceback" not in err

    def test_from_dict_names_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="restart"):
            SolveOptions.from_dict({**BASE, "restart": 30})
        with pytest.raises(ValueError, match="matrix"):
            JobSpec.from_dict({"storage": "float64"})
        with pytest.raises(ValueError, match="expects a dict"):
            SolveOptions.from_dict([("m", 3)])


class TestBuildOrder:
    def test_wrapper_goes_around_the_engine_and_factors_see_raw_a(self, stencil):
        a, _ = stencil
        seen = []

        def wrap(op):
            seen.append(op)
            return op

        opts = SolveOptions(**{**BASE, "spmv_format": "ell",
                               "preconditioner": "ilu0"})
        solver = opts.build(a, wrap_operator=wrap)
        (engine,) = seen
        assert isinstance(engine, SpmvEngine) and engine.csr is a
        assert solver.a is engine and solver.preconditioner.n == a.n

    def test_storage_factory_receives_the_resolved_backend(self, stencil):
        a, _ = stencil
        got = []

        def factory(storage, n, backend):
            got.append(backend)
            from repro.accessor import make_accessor

            return make_accessor(storage, n, backend=backend)

        solver = SolveOptions(**{**BASE, "backend": JIT}).build(
            a, storage_factory=factory
        )
        solver._storage_factory("frsz2_32", 64)
        assert got == [JIT] and solver.backend == JIT

    def test_other_keywords_reach_the_solver_unchanged(self, stencil):
        a, _ = stencil
        solver = SolveOptions(**BASE).build(a, recovery=False, eta=0.5)
        assert solver.recovery is False and solver.eta == 0.5

    def test_flexible_gmres_takes_what_cb_gmres_takes(self, stencil):
        """``FlexibleGmres`` is built like ``CbGmres``: a tracer passed to
        ``build`` reaches the solver and its preconditioner, and so do
        the recovery and SpMV-format arguments."""
        a, b = stencil
        tracer = Tracer()
        opts = SolveOptions(**{**BASE, "storage": ADAPTIVE_STORAGE,
                               "preconditioner": "ilu0"})
        solver = opts.build(a, solver=FlexibleGmres, tracer=tracer,
                            recovery=False, max_recoveries=3)
        assert solver.tracer is tracer is solver.preconditioner.tracer
        assert (solver.recovery, solver.max_recoveries) == (False, 3)
        assert solver.solve(b, 1e-8).converged
        assert tracer.counters["prec.applies"] > 0


class TestUnavailableJitWarnsOnce:
    """The backend is resolved once per build, and once per grid in the
    parent — not again by the factors, the engine, the solver, a
    companion solve or a campaign cell."""

    @pytest.fixture(autouse=True)
    def no_engine(self, monkeypatch):
        from repro.jit import dispatch

        monkeypatch.setenv("REPRO_JIT_DISABLE", "1")
        dispatch._reset_engine_cache()
        yield
        monkeypatch.delenv("REPRO_JIT_DISABLE")
        dispatch._reset_engine_cache()

    def _once(self, call):
        from repro.jit.dispatch import JitUnavailableWarning

        with pytest.warns(JitUnavailableWarning) as caught:
            out = call()
        assert len(caught) == 1, [str(w.message) for w in caught]
        return out

    def test_build(self, stencil):
        a, b = stencil
        opts = SolveOptions(**{**BASE, "backend": "jit", "spmv_format": "auto",
                               "preconditioner": "ilu0"})
        solver = self._once(lambda: opts.build(a))
        assert solver.backend == "numpy" and solver.solve(b, 1e-6).converged

    def test_campaign_grid(self):
        camp = self._once(lambda: run_campaign(
            matrix="lung2", scale="smoke", faults=("spmv_nan", "readout_nan"),
            storages=("frsz2_32",), rates=(0.0,), m=30, max_iter=400,
            backend="jit", spmv_format="auto",
        ))
        assert camp.survival_rate == 1.0 and len(camp.cells) == 2

    def test_bench_entry_and_its_companions(self):
        entry = self._once(lambda: run_bench_entry(
            "lung2", "frsz2_32", scale="smoke", m=30, max_iter=400,
            backend="jit", preconditioner="jacobi",
        ))
        assert entry["backend"] == {
            "requested": "jit", "resolved": "numpy", "engine": None,
            "bit_identical_numpy": True,
        }


class TestCliChoicesAreTheOwners:
    OWNERS = {
        "spmv_format": SPMV_FORMATS, "basis_mode": BASIS_MODES,
        "backend": BACKENDS, "preconditioner": PRECONDITIONERS,
        "prec_storage": PREC_STORAGES,
    }

    def test_every_choices_list_is_its_owners_tuple(self):
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        checked = 0
        for command in SHARED_BY_COMMAND:
            for action in sub.choices[command]._actions:
                if action.dest in self.OWNERS:
                    assert action.choices is self.OWNERS[action.dest], (
                        command, action.dest)
                    checked += 1
                elif action.dest == "scale":
                    assert tuple(action.choices) in (SCALES, (None,) + SCALES)
                    checked += 1
        # solve / faults / bench / serve take all five, six take --scale
        assert checked == 4 * 5 + 6


# -- the four former build sites against one hand-built solver ----------

EQ = dict(
    storage="frsz2_32", m=30, max_iter=400, spmv_format="auto",
    basis_mode="streaming", backend=JIT, preconditioner="ilu0",
    prec_storage="frsz2_32",
)


@pytest.fixture(scope="module")
def reference():
    """cfd2 at smoke scale, every piece constructed by hand."""
    p = make_problem("cfd2", "smoke")
    prec = make_preconditioner("ilu0", p.a, storage="frsz2_32", backend=JIT)
    engine = SpmvEngine(p.a, format="auto", backend=JIT)
    return CbGmres(
        engine, "frsz2_32", m=30, max_iter=400, basis_mode="streaming",
        backend=JIT, preconditioner=prec,
    ).solve(p.b, p.target_rrn)


class TestOneAnswerFromEveryEntryPoint:
    def test_serve_job(self, reference):
        spec = JobSpec(matrix="cfd2", scale="smoke", **EQ)
        assert spec.options == SolveOptions(**EQ)
        out = run_attempt([spec.to_dict()], ["j"], 1, spec.storage)["results"]["j"]
        assert out["x"].tobytes() == reference.x.tobytes()
        assert out["iterations"] == reference.iterations
        assert out["final_rrn"] == reference.final_rrn

    @pytest.mark.parametrize("fault", ["spmv_nan", "payload_bitflip"])
    def test_campaign_cell_at_rate_zero(self, reference, fault):
        kw = {k: v for k, v in EQ.items() if k != "storage"}
        (cell,) = run_campaign(
            matrix="cfd2", scale="smoke", faults=(fault,),
            storages=(EQ["storage"],), rates=(0.0,), **kw,
        ).cells
        assert (cell.outcome, cell.attempts) == ("converged", 1)
        assert cell.iterations == reference.iterations
        assert cell.final_rrn == reference.final_rrn

    def test_bench_entry(self, reference):
        entry = run_bench_entry("cfd2", scale="smoke", **EQ)
        assert entry["iterations"] == reference.iterations
        assert entry["final_rrn"] == reference.final_rrn
        assert entry["spmv"]["requested"] == "auto"
        assert entry["basis"]["mode"] == "streaming"

    def test_solve_command(self, reference, capsys):
        rc = main([
            "solve", "cfd2", "--scale", "smoke", "--storage", "frsz2_32",
            "--restart", "30", "--max-iter", "400", "--spmv-format", "auto",
            "--basis-mode", "streaming", "--backend", JIT,
            "--preconditioner", "ilu0", "--prec-storage", "frsz2_32",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        (iterations,) = re.findall(r"converged after (\d+) iterations", out)
        assert int(iterations) == reference.iterations
        assert f"final RRN {reference.final_rrn:.3e}" in out
