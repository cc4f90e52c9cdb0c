"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Show the matrix suite, storage formats and compressor registry.
solve MATRIX
    Run CB-GMRES on a Table I analog with chosen basis storage.
compress
    Compress a ``.npy`` float64 array (or random data) with any
    registered compressor and report quality/size.
experiment ID
    Regenerate a paper table/figure (table1, table2, fig2, fig4, fig7,
    fig8, fig10, fig11) on the terminal.
calibrate
    Run the Section V-C target-accuracy calibration over the suite.
predict MATRIX
    Recommend a basis storage format (the §VIII future-work predictor).
faults
    Run the seeded fault-injection campaign (fault kind × storage
    format × rate) and print the survival-rate table.  ``--jobs N``
    fans the grid over worker processes with identical results.
bench
    Run the traced matrix × storage model grid and emit a
    schema-versioned ``BENCH_gmres.json`` — iterations, modeled H100
    seconds, counters and the identity gates, no host time, so the file
    is reproducible byte for byte (``--compare OLD NEW`` diffs two
    bench files and exits nonzero on regressions; ``--check FILE``
    validates a file against the schema and refuses one that this
    checkout's sources did not produce).  ``--jobs N`` fans the grid
    over worker processes; the document is identical for any job count.
serve
    Submit solve jobs to the hardened job engine (supervised workers,
    deadlines, retries, backpressure) and stream per-restart progress
    events while they run; drains and prints the health block.
soak
    Run the serve soak: hundreds of mixed jobs + seeded chaos
    (crashes, hangs, solve errors, bit flips), invariants asserted,
    serve health written to ``soak-report.json`` (a run output, not a
    committed file).  ``--check FILE`` validates an existing report.

Durations are measured by ``benchmarks/perf`` (``BENCHMARK.json``), not
by any command here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict

import numpy as np

# every ``choices=`` below is its owner's tuple, not a copy of it
from .jit.dispatch import BACKENDS
from .solvers.basis import BASIS_MODES
from .solvers.preconditioner import PRECONDITIONERS, PREC_STORAGES
from .sparse.engine import SPMV_FORMATS
from .sparse.suite import SCALES

#: single source of truth for options shared across subcommands.
#: ``build_parser`` registers each subcommand's flags from this table
#: *and* generates the subcommand epilog from the same rows, so the
#: help text can no longer drift from the accepted flags (asserted by
#: the CLI test suite).
SHARED_OPTIONS: "Dict[str, Dict[str, Any]]" = {
    "storage": dict(
        default="frsz2_32",
        help="Krylov-basis storage format (see `list`), or 'adaptive' "
             "for the per-restart precision controller",
    ),
    "storages": dict(
        nargs="*", default=None, metavar="FMT",
        help="storage formats for the grid",
    ),
    "scale": dict(
        default=None, choices=(None,) + SCALES,
        help="problem scale (default: suite default / $REPRO_SCALE)",
    ),
    "restart": dict(type=int, default=50, help="GMRES restart length m"),
    "max-iter": dict(type=int, default=2000, help="global iteration cap"),
    "jobs": dict(
        type=int, default=1,
        help="worker processes for the grid (default 1 = serial; "
             "0 = all cores; results are identical for any value)",
    ),
    "spmv-format": dict(
        default="csr", choices=SPMV_FORMATS,
        help="SpMV storage format (auto = structure-driven selection)",
    ),
    "basis-mode": dict(
        default="cached", choices=BASIS_MODES,
        help="Krylov-basis working-set mode: cached keeps a dense "
             "float64 mirror; streaming decodes compressed tiles "
             "on the fly (O(tile) instead of O(n*m) float64)",
    ),
    "backend": dict(
        default="numpy", choices=BACKENDS,
        help="kernel backend: numpy reference or jit-compiled kernels "
             "(bit-identical results; jit falls back to numpy with a "
             "warning when the C engine is unavailable — it needs the "
             "[jit] extra and a C compiler)",
    ),
    "preconditioner": dict(
        default="none", choices=PRECONDITIONERS,
        help="right preconditioner built from the operator: jacobi "
             "(diagonal), block_jacobi (inverted diagonal blocks), "
             "ilu0 (incomplete LU on the sparsity pattern)",
    ),
    "prec-storage": dict(
        default="float64", choices=PREC_STORAGES,
        help="storage rung for the preconditioner's factor values "
             "(frsz2_* store compressed and decode per apply, "
             "like the Krylov basis)",
    ),
}

#: which shared options each subcommand takes, with the per-command
#: default/help overrides (the only differences allowed).  Commands
#: not listed here take no shared options.
SHARED_BY_COMMAND: "Dict[str, Dict[str, Dict[str, Any]]]" = {
    "solve": {
        "storage": {},
        "scale": {},
        "restart": dict(default=100),
        "max-iter": dict(default=20_000),
        "spmv-format": dict(default="auto"),
        "basis-mode": {},
        "backend": {},
        "preconditioner": {},
        "prec-storage": {},
    },
    "experiment": {"scale": {}},
    "calibrate": {"scale": {}, "max-iter": {}},
    "predict": {"scale": {}},
    "faults": {
        "scale": {},
        "storages": dict(
            help="basis storage formats to stress (default: frsz2_16 "
                 "frsz2_32 float32; 'adaptive' runs the precision "
                 "controller under fault injection)",
        ),
        "restart": {},
        "max-iter": {},
        "jobs": {},
        "spmv-format": dict(
            help="SpMV storage format under fault injection "
                 "(default csr, the historical campaign baseline)",
        ),
        "basis-mode": {},
        "backend": {},
        "preconditioner": dict(
            help="right preconditioner for every campaign cell "
                 "(factored from the raw operator; faults never "
                 "corrupt the factorization)",
        ),
        "prec-storage": {},
    },
    "bench": {
        "storages": dict(
            help="storage formats (default: float64 float32 frsz2_32 "
                 "adaptive)",
        ),
        "scale": dict(
            default="default", choices=SCALES,
            help="problem scale (default: 'default', the scale of the "
                 "committed BENCH_gmres.json)",
        ),
        "restart": {},
        "max-iter": {},
        "jobs": {},
        "spmv-format": dict(
            default="auto",
            help="SpMV engine format for every grid cell "
                 "(auto = structure-driven selection per matrix)",
        ),
        "basis-mode": dict(
            help="basis mode of the primary traced solve (the "
                 "per-entry basis block always compares both modes)",
        ),
        "backend": {},
        "preconditioner": dict(
            help="right preconditioner for every grid cell (the "
                 "default 'none' with the default matrix grid also "
                 "appends the preconditioned tier entries)",
        ),
        "prec-storage": {},
    },
    "serve": {
        "storage": {},
        "scale": dict(default="smoke", choices=SCALES),
        "restart": dict(default=30),
        "max-iter": dict(default=400),
        "spmv-format": {},
        "basis-mode": {},
        "backend": {},
        "preconditioner": dict(
            help="right preconditioner applied worker-side to every "
                 "job (part of the batch-coalescing key)",
        ),
        "prec-storage": {},
    },
}


def shared_option_kwargs(command: str, name: str) -> "Dict[str, Any]":
    """Resolved ``add_argument`` kwargs for one shared option.

    Parameters
    ----------
    command : str
        Subcommand name (a key of :data:`SHARED_BY_COMMAND`).
    name : str
        Shared option name (a key of :data:`SHARED_OPTIONS`).

    Returns
    -------
    dict
        The registry kwargs with the command's overrides applied.
    """
    return {**SHARED_OPTIONS[name], **SHARED_BY_COMMAND[command][name]}


def shared_epilog(command: str) -> str:
    """Generated help epilog listing a subcommand's shared options.

    One row per shared option with its resolved default — rendered
    from :data:`SHARED_BY_COMMAND`, the same table the flags are
    registered from, so flags and epilog cannot disagree.
    """
    rows = []
    for name in SHARED_BY_COMMAND.get(command, {}):
        kwargs = shared_option_kwargs(command, name)
        default = kwargs.get("default")
        shown = "suite default" if default is None else default
        rows.append(f"  --{name:<13} default: {shown}")
    if not rows:
        return ""
    return "shared options (registry-generated):\n" + "\n".join(rows)


def _add_shared(p: argparse.ArgumentParser, command: str) -> None:
    for name in SHARED_BY_COMMAND.get(command, {}):
        p.add_argument(f"--{name}", **shared_option_kwargs(command, name))


def _solve_kwargs(args) -> "Dict[str, Any]":
    """The shared solve flags of a parsed command line, under the names
    ``SolveOptions`` / ``JobSpec`` / ``run_bench`` / ``run_campaign`` take."""
    return dict(
        m=args.restart,
        max_iter=args.max_iter,
        spmv_format=args.spmv_format,
        basis_mode=args.basis_mode,
        backend=args.backend,
        preconditioner=args.preconditioner,
        prec_storage=args.prec_storage,
    )


def _cmd_list(args) -> int:
    from .accessor import list_storage_formats
    from .bench import format_table
    from .compressors import list_compressors
    from .sparse import SUITE, suite_names

    rows = [
        (n, SUITE[n].paper_size, SUITE[n].paper_nnz, SUITE[n].description)
        for n in suite_names()
    ]
    print(format_table("matrix suite (Table I analogs)", ["name", "paper size", "paper nnz", "description"], rows))
    print()
    print("Krylov-basis storage formats:", ", ".join(list_storage_formats()))
    print("compressor registry:", ", ".join(list_compressors()))
    return 0


def _cmd_solve(args) -> int:
    from .gpu import GmresTimingModel
    from .solvers import CbGmres, FlexibleGmres, SolveOptions, make_problem

    options = SolveOptions(storage=args.storage, **_solve_kwargs(args))
    p = make_problem(args.matrix, args.scale)
    target = args.target if args.target is not None else p.target_rrn
    # a PreconditionerError (an ILU(0) pivot that is zero, or that the
    # storage rounds to zero) is a ValueError: main() reports it, exit 2
    solver = options.build(
        p.a, solver=FlexibleGmres if args.solver == "fgmres" else CbGmres
    )
    if args.preconditioner != "none":
        info = solver.preconditioner.cost_info()
        print(f"preconditioner: {args.preconditioner} ({args.prec_storage} factors, "
              f"{info['stored_bytes']} bytes stored"
              + (f", {1 - info['stored_bytes'] / info['float64_bytes']:.0%} "
                 f"below float64" if info["stored_bytes"] < info["float64_bytes"]
                 else "")
              + ")")
    print(f"SpMV engine: {args.spmv_format} -> {solver.a.resolved_format} "
          f"(padding {solver.a.padding_ratio:.2f}x)")
    res = solver.solve(p.b, target)
    status = "converged" if res.converged else ("stalled" if res.stalled else "hit cap")
    print(f"{args.matrix} (n={p.a.n}, nnz={p.a.nnz}) with {args.storage} basis:")
    print(f"  {status} after {res.iterations} iterations "
          f"({res.stats.restarts} restarts)")
    print(f"  final RRN {res.final_rrn:.3e} (target {target:.1e})")
    print(f"  basis footprint {res.stats.bits_per_value:.1f} bits/value")
    print(f"  basis mode {res.stats.basis_mode} "
          f"(peak float64 working set {res.stats.basis_peak_float64_bytes} bytes, "
          f"tile {res.stats.basis_tile_elems} elems)")
    t = GmresTimingModel().time_result(res)
    print(f"  modeled H100 time {t.total_seconds * 1e3:.2f} ms "
          f"(spmv {t.spmv_seconds*1e3:.2f}, basis reads {t.basis_read_seconds*1e3:.2f}, "
          f"writes {t.basis_write_seconds*1e3:.2f})")
    return 0 if res.converged else 1


def _cmd_compress(args) -> int:
    from .compressors import evaluate, make_compressor

    if args.input:
        x = np.load(args.input).astype(np.float64).ravel()
    else:
        rng = np.random.default_rng(args.seed)
        x = rng.standard_normal(args.n)
        x /= np.linalg.norm(x)
    r = evaluate(make_compressor(args.format), x)
    print(f"{r.compressor} on {r.n} values:")
    print(f"  {r.bits_per_value:.2f} bits/value (ratio {r.compression_ratio:.2f}x)")
    print(f"  max abs error {r.max_abs_error:.3e}")
    print(f"  max pointwise-relative error {r.max_pw_rel_error:.3e}")
    print(f"  PSNR {r.psnr_db:.1f} dB")
    print(f"  declared bound satisfied: {r.bound_satisfied}")
    return 0


def _cmd_experiment(args) -> int:
    from .bench import (
        FIG7_FORMATS,
        figure7_rows,
        figure8_rows,
        figure11_rows,
        format_histogram,
        format_series,
        format_table,
        krylov_histograms,
        matrix_exponent_histogram,
        table1_rows,
        table2_rows,
    )

    ident = args.id.lower()
    if ident == "table1":
        print(format_table(
            "Table I", ["matrix", "size", "nnz", "paper size", "paper nnz", "target", "paper target"],
            table1_rows(args.scale)))
    elif ident == "table2":
        print(format_table("Table II", ["name", "bound type", "bound"], table2_rows()))
    elif ident == "fig2":
        for j, (hist, edges, ev, ec) in sorted(krylov_histograms(scale=args.scale).items()):
            print(format_histogram(f"values, iteration {j}",
                                   [f"{c:+.2e}" for c in (edges[:-1] + edges[1:]) / 2], hist))
            print(format_histogram(f"exponents, iteration {j}", ev.tolist(), ec))
    elif ident == "fig4":
        from .gpu import roofline_series

        series = roofline_series()
        print(format_series(
            "Fig. 4 (modeled H100 GFLOP/s)", "flops/value",
            {k: [(p.arithmetic_intensity, p.gflops) for p in v] for k, v in series.items()},
            max_points=14))
    elif ident == "fig7":
        print(format_table("Fig. 7", ["matrix", "target"] + list(FIG7_FORMATS),
                           figure7_rows(args.scale)))
    elif ident == "fig8":
        print(format_table("Fig. 8", ["matrix", "f64 iters"] + [f"{f}/f64" for f in FIG7_FORMATS],
                           figure8_rows(args.scale)))
    elif ident == "fig10":
        edges, hist = matrix_exponent_histogram(scale=args.scale)
        print(format_histogram("Fig. 10 (PR02R exponents)", [int(e) for e in edges], hist))
    elif ident == "fig11":
        s = figure11_rows(args.scale)
        print(format_table("Fig. 11", ["matrix"] + list(FIG7_FORMATS), s.per_matrix))
        print(format_table("Fig. 11 averages", ["format", "mean", "mean w/o PR02R"],
                           [(f, s.mean_speedup[f], s.mean_speedup_without_pr02r[f])
                            for f in FIG7_FORMATS]))
    else:
        print(f"unknown experiment {args.id!r}; see python -m repro experiment --help",
              file=sys.stderr)
        return 2
    return 0


def _cmd_calibrate(args) -> int:
    from .bench import format_table
    from .solvers import calibrate_suite

    results = calibrate_suite(scale=args.scale, max_iter=args.max_iter)
    rows = [
        (name, c.iterations, c.achieved_rrn, c.target_rrn)
        for name, c in results.items()
    ]
    print(format_table(
        "Section V-C calibration (float64 reference solves)",
        ["matrix", "iterations", "achieved RRN", "suggested target"],
        rows,
    ))
    return 0


def _cmd_predict(args) -> int:
    from .solvers import make_problem, predict_format

    p = make_problem(args.matrix, args.scale)
    rec = predict_format(p.a, p.b)
    print(f"recommended storage for {args.matrix}: {rec.storage}")
    print(f"  features: frsz2 block-kill fraction {rec.features.frsz2_kill_fraction:.1%}, "
          f"float16 range loss {rec.features.float16_loss_fraction:.1%}, "
          f"{rec.features.exponent_concentration} exponents cover 90% of values")
    for fmt, reason in rec.rejected.items():
        print(f"  screened out {fmt}: {reason}")
    for fmt, score in sorted(rec.probe_scores.items(), key=lambda kv: -kv[1]):
        print(f"  probe score {fmt}: {score:.3g} (residual decades per modeled second)")
    return 0


def _cmd_faults(args) -> int:
    from .robust import DEFAULT_FAULTS, DEFAULT_RATES, DEFAULT_STORAGES, run_campaign

    camp = run_campaign(
        matrix=args.matrix,
        scale=args.scale,
        faults=args.kinds or DEFAULT_FAULTS,
        storages=args.storages or DEFAULT_STORAGES,
        rates=args.rates or DEFAULT_RATES,
        seed=args.seed,
        hardened=not args.unhardened,
        fallback=not args.no_fallback,
        jobs=args.jobs,
        **_solve_kwargs(args),
    )
    print(camp.table())
    print()
    print(camp.summary())
    return 0 if camp.survival_rate == 1.0 else 1


def _cmd_bench(args) -> int:
    from .bench import format_table
    from .bench.perf import (
        BENCH_PHASES,
        check_bench,
        compare_bench,
        load_bench,
        run_bench,
        write_bench,
    )

    if args.compare:
        base_path, new_path = args.compare
        base, new = load_bench(base_path), load_bench(new_path)
        regressions = compare_bench(base, new, tolerance=args.tolerance)
        if regressions:
            print(f"{len(regressions)} regression(s) beyond "
                  f"tolerance {args.tolerance:.0%}:")
            for reg in regressions:
                print(f"  {reg}")
            return 1
        print(f"no regressions beyond tolerance {args.tolerance:.0%} "
              f"({len(base['entries'])} entries compared)")
        return 0

    if args.check:
        check_bench(args.check)
        print(f"{args.check}: valid bench document of this checkout")
        return 0

    doc = run_bench(
        matrices=args.matrices,
        storages=args.storages,
        scale=args.scale,
        jobs=args.jobs,
        **_solve_kwargs(args),
    )
    write_bench(doc, args.out)
    rows = []
    for e in doc["entries"]:
        total = e["modeled_seconds"] or 1.0
        prec = e.get("preconditioner")
        rows.append(
            (
                e["matrix"],
                e["storage"],
                prec["name"] if prec else "-",
                "yes" if e["converged"] else "no",
                e["iterations"],
                e["spmv"]["format"],
                f"{e['modeled_seconds'] * 1e3:.3f}",
            )
            + tuple(
                f"{e['phases'][p]['modeled_seconds'] / total:.0%}"
                for p in BENCH_PHASES
            )
        )
    print(format_table(
        f"bench grid ({doc['scale']} scale, modeled on {doc['device']})",
        ["matrix", "storage", "prec", "conv", "iters", "spmv", "model ms"]
        + [f"{p}%" for p in BENCH_PHASES],
        rows,
    ))
    bk = doc["backend"]
    line = f"\nbackend: {bk['resolved']}"
    if bk["engine"]:
        line += f" ({bk['engine']})"
    print(line)
    print(f"wrote {args.out} ({len(doc['entries'])} entries)")
    return 0


def _cmd_serve(args) -> int:
    import json

    from .bench import format_table
    from .robust.chaos import ChaosSpec
    from .serve import (
        JobSpec,
        JobState,
        RejectedError,
        ServeConfig,
        SolveEngine,
        build_serve_health,
    )

    chaos = None
    if args.chaos:
        chaos = ChaosSpec(args.chaos, at_iteration=args.chaos_at).to_dict()
    specs = []
    for matrix in args.matrices:
        for i in range(args.count):
            specs.append(JobSpec(
                matrix=matrix,
                storage=args.storage,
                scale=args.scale,
                rhs_seed=None if args.rhs_seed is None else args.rhs_seed + i,
                deadline_s=args.deadline,
                progress_every=args.progress_every,
                chaos=chaos,
                **_solve_kwargs(args),
            ))

    config = ServeConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        max_retries=args.max_retries,
        heartbeat_timeout_s=args.heartbeat_timeout,
        default_deadline_s=args.deadline,
    )

    def show(event) -> None:
        if event.kind == "progress":
            payload = event.payload
            print(f"  {event.job_id}: iter {payload['iteration']:4d} "
                  f"rrn {payload['implicit_rrn']:.3e}")
        elif event.kind in ("state", "attempt") and not args.quiet:
            print(f"  {event.job_id}: {event.kind} {event.payload}")

    records = []
    with SolveEngine(config) as engine:
        if args.follow:
            engine.subscribe(show)
        for spec in specs:
            try:
                records.append(engine.submit(spec))
            except RejectedError as exc:
                print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
        drained = engine.drain(timeout=args.drain_timeout)
        health = build_serve_health(engine)
        if not drained:
            print("drain timed out; forcing shutdown", file=sys.stderr)
            engine.close(force=True)

    rows = []
    for record in records:
        snap = record.snapshot()
        result = snap["result"] or {}
        rows.append((
            record.job_id, record.spec.matrix, snap["storage_used"],
            record.state, snap["attempts"], snap["retries"],
            result.get("iterations", "-"),
            f"{result['final_rrn']:.2e}" if result else "-",
            f"{snap['queue_wait_s'] * 1e3:.1f}" if snap["queue_wait_s"] is not None else "-",
        ))
    print(format_table(
        f"serve run ({config.workers} workers, queue bound {config.max_queue})",
        ["job", "matrix", "storage", "state", "att", "retry", "iters",
         "rrn", "wait ms"],
        rows,
    ))
    print()
    print(json.dumps(health, indent=2, sort_keys=True))
    bad = sum(1 for r in records if r.state != JobState.DONE)
    return 0 if (drained and bad == 0) else 1


def _cmd_soak(args) -> int:
    import json

    from .serve import SoakError, run_soak, validate_serve_health

    if args.check:
        with open(args.check) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("serve report must be a JSON object")
        validate_serve_health(doc["serve"])
        print(f"{args.check}: valid serve report")
        return 0

    try:
        report = run_soak(
            jobs=args.jobs,
            workers=args.workers,
            seed=args.seed,
            max_queue=args.max_queue,
            verify_every=args.verify_every,
            heartbeat_timeout_s=args.heartbeat_timeout,
            out=args.out,
            check=True,
            log=print,
        )
    except SoakError as exc:
        print(f"SOAK FAILED:\n{exc}", file=sys.stderr)
        return 1
    summary = report["soak"]
    jobs = report["serve"]["jobs"]
    print(f"soak passed: {summary['jobs']} jobs in "
          f"{summary['wall_seconds']:.1f}s — "
          f"{jobs['done']} done, {jobs['cancelled']} cancelled, "
          f"{jobs['retried']} retried, {jobs['degraded']} degraded, "
          f"{summary['backpressure_rejections']} backpressure rejections, "
          f"bit-identity on {summary['bit_identity_checked']} jobs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser.

    Per-subcommand flags that exist on more than one subcommand come
    from the :data:`SHARED_OPTIONS` registry (with
    :data:`SHARED_BY_COMMAND` overrides); each subcommand's epilog is
    generated from the same rows by :func:`shared_epilog`.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FRSZ2 / CB-GMRES reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name,
            help=help,
            epilog=shared_epilog(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    add_command("list", "show matrices, storage formats, compressors")

    p = add_command("solve", "run CB-GMRES on a suite matrix")
    p.add_argument("matrix")
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--solver", default="cb", choices=["cb", "fgmres"],
                   help="cb = CB-GMRES (compress V); fgmres = ref [17] (compress Z)")
    _add_shared(p, "solve")

    p = add_command("compress", "evaluate a compressor on data")
    p.add_argument("--format", default="frsz2_32")
    p.add_argument("--input", default=None, help=".npy file of float64 values")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add_command("experiment", "regenerate a paper table/figure")
    p.add_argument("id", help="table1|table2|fig2|fig4|fig7|fig8|fig10|fig11")
    _add_shared(p, "experiment")

    p = add_command("calibrate", "run the Section V-C calibration")
    _add_shared(p, "calibrate")

    p = add_command("predict", "recommend a basis storage format")
    p.add_argument("matrix")
    _add_shared(p, "predict")

    p = add_command("faults", "run the fault-injection survival campaign")
    p.add_argument("--matrix", default="atmosmodd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", nargs="*", default=None,
                   help="fault kinds (default: payload/exponent bit flips, readout NaN, SpMV NaN)")
    p.add_argument("--rates", nargs="*", type=float, default=None,
                   help="per-operation fault probabilities (default: 0.02 0.05)")
    p.add_argument("--unhardened", action="store_true",
                   help="disable recovery+fallback (the crash/diverge baseline)")
    p.add_argument("--no-fallback", action="store_true",
                   help="recovery only, no storage-format escalation")
    _add_shared(p, "faults")

    p = add_command(
        "bench",
        "run the traced model grid / compare or validate bench files",
    )
    p.add_argument("--out", default="BENCH_gmres.json",
                   help="output path for the bench document")
    p.add_argument("--matrices", nargs="*", default=None,
                   help="suite matrices (default: atmosmodd cfd2 lung2)")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), default=None,
                   help="diff two bench files; exit 1 on regressions")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative regression tolerance for --compare")
    p.add_argument("--check", default=None, metavar="FILE",
                   help="validate an existing bench file against the schema "
                        "and this checkout's source fingerprint")
    _add_shared(p, "bench")

    p = add_command("serve", "run solve jobs through the hardened job engine")
    p.add_argument("matrices", nargs="+", help="suite matrices to solve")
    p.add_argument("--count", type=int, default=1,
                   help="jobs per matrix (RHS seed advances per copy)")
    p.add_argument("--rhs-seed", type=int, default=None,
                   help="base seed for random RHS (default: paper RHS)")
    p.add_argument("--workers", type=int, default=2,
                   help="supervised worker processes")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission bound (beyond it: reject queue_full)")
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-job wall deadline in seconds")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="kill a worker silent for this many seconds")
    p.add_argument("--progress-every", type=int, default=25)
    p.add_argument("--drain-timeout", type=float, default=600.0)
    p.add_argument("--follow", action="store_true",
                   help="stream progress events to stdout")
    p.add_argument("--quiet", action="store_true",
                   help="with --follow, print only progress events")
    p.add_argument("--chaos", default=None,
                   help="arm a chaos kind on every job (testing), e.g. "
                        "worker_crash, worker_hang, solve_error")
    p.add_argument("--chaos-at", type=int, default=5,
                   help="solver iteration at which the chaos fires")
    _add_shared(p, "serve")

    p = add_command(
        "soak",
        "run the serve soak with seeded chaos; write soak-report.json",
    )
    p.add_argument("--jobs", type=int, default=200,
                   help="solve jobs to queue (mixed configs)")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-queue", type=int, default=32)
    p.add_argument("--verify-every", type=int, default=10,
                   help="bit-identity-check every n-th clean job")
    p.add_argument("--heartbeat-timeout", type=float, default=2.0)
    p.add_argument("--out", default="soak-report.json",
                   help="serve health report path")
    p.add_argument("--check", default=None, metavar="FILE",
                   help="validate an existing serve report")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "solve": _cmd_solve,
    "compress": _cmd_compress,
    "experiment": _cmd_experiment,
    "calibrate": _cmd_calibrate,
    "predict": _cmd_predict,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
}


def main(argv=None) -> int:
    """Run one command; a refused argument is ``error: ...`` and exit 2.

    The one handler for what argparse cannot check: a value
    ``SolveOptions`` refuses or a preconditioner that cannot be factored
    (``ValueError``), an unknown matrix or storage (``KeyError``), an
    unreadable input file (``OSError``), a grid worker that died.
    """
    from .parallel import WorkerCrashError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, OSError, WorkerCrashError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
