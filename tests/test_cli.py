"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main

from .backends import BACKENDS


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "atmosmodd"])
        assert args.storage == "frsz2_32"
        assert args.max_iter == 20_000

    def test_unknown_command(self):
        # the deleted batch-vs-loop clock must stay an invalid choice
        for command in ("frobnicate", "throughput"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command])
            assert exc.value.code == 2


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "atmosmodd" in out
        assert "frsz2_32" in out
        assert "sz3_08" in out

    def test_solve_converges(self, capsys):
        assert main(["solve", "lung2", "--storage", "frsz2_32"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "modeled H100 time" in out

    def test_solve_exit_code_on_failure(self, capsys):
        # absurdly tight target cannot be met within 20 iterations
        rc = main(["solve", "lung2", "--target", "1e-300", "--max-iter", "20"])
        assert rc == 1

    def test_solve_with_jacobi(self, capsys):
        assert main(["solve", "lung2", "--preconditioner", "jacobi"]) == 0
        out = capsys.readouterr().out
        assert "preconditioner: jacobi" in out

    def test_solve_with_ilu0(self, capsys):
        assert main(["solve", "lung2", "--preconditioner", "ilu0"]) == 0
        out = capsys.readouterr().out
        assert "preconditioner: ilu0" in out
        assert "converged" in out

    def test_solve_with_compressed_block_jacobi(self, capsys):
        rc = main([
            "solve", "lung2",
            "--preconditioner", "block_jacobi",
            "--prec-storage", "frsz2_16",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frsz2_16" in out

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_storage_rounded_zero_pivot_is_a_named_error(self, capsys, backend):
        # frsz2_16 rounds 16 ILU(0) pivots of this matrix to zero: a
        # named error at set-up and exit 2 on either backend — not a
        # ZeroDivisionError traceback (numpy) or a division by zero in C
        # reported as "hit cap after 0 iterations" (jit)
        rc = main([
            "solve", "aniso_jump", "--scale", "smoke",
            "--preconditioner", "ilu0", "--prec-storage", "frsz2_16",
            "--backend", backend,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: ILU(0) zero pivot at row 384" in err
        assert "frsz2_16" in err

    def test_preconditioner_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "lung2", "--preconditioner", "amg"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "lung2", "--prec-storage", "int8"])

    def test_preconditioner_defaults(self):
        args = build_parser().parse_args(["solve", "atmosmodd"])
        assert args.preconditioner == "none"
        assert args.prec_storage == "float64"

    def test_compress_random(self, capsys):
        assert main(["compress", "--format", "frsz2_16", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "bits/value" in out

    def test_compress_npy_input(self, tmp_path, capsys):
        path = tmp_path / "x.npy"
        np.save(path, np.linspace(-1, 1, 500))
        assert main(["compress", "--input", str(path), "--format", "zfp_fr_32"]) == 0

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0

    def test_experiment_fig10(self, capsys):
        assert main(["experiment", "fig10"]) == 0
        assert "PR02R" in capsys.readouterr().out

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "frsz2_32" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_predict(self, capsys):
        assert main(["predict", "PR02R"]) == 0
        out = capsys.readouterr().out
        assert "recommended storage" in out
        assert "screened out" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--max-iter", "60"]) == 0
        out = capsys.readouterr().out
        assert "calibration" in out
        assert "atmosmodd" in out


class TestHostileArguments:
    """A refused argument is one ``error: ...`` line and exit 2 —
    argparse's for a flag with ``choices``, ``main()``'s for the rest —
    never a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["solve", "cfd2", "--storage", "nope"], "storage 'nope'"),
        (["solve", "cfd2", "--restart", "0"], "m must be an integer >= 1"),
        (["solve", "nope"], "unknown matrix 'nope'"),
        (["solve", "cfd2", "--prec-storage", "int8"], "--prec-storage"),
        (["solve", "cfd2", "--basis-mode", "nope"], "--basis-mode"),
        (["serve", "nope"], "unknown matrix 'nope'"),
        (["serve", "cfd2", "--storage", "nope"], "storage 'nope'"),
        (["serve", "cfd2", "--chaos", "meteor"], "chaos kind 'meteor'"),
        (["faults", "--storages", "nope"], "storage 'nope'"),
        (["faults", "--kinds", "meteor"], "fault kind 'meteor'"),
        (["bench", "--storages", "nope"], "storage 'nope'"),
        (["bench", "--max-iter", "0"], "max_iter must be an integer >= 1"),
        (["bench", "--check", "/no/such/file.json"], "No such file"),
        (["compress", "--input", "/no/such/file.npy"], "No such file"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_error_line_and_exit_2(self, argv, named, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own refusal
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: " in captured.err and named in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestBenchCommand:
    def _run_bench(self, tmp_path, name="base.json"):
        out = tmp_path / name
        rc = main([
            "bench", "--matrices", "lung2", "--storages", "frsz2_32",
            "--restart", "30", "--max-iter", "500", "--out", str(out),
        ])
        return rc, out

    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.out == "BENCH_gmres.json"
        # the scale of the committed artifact, so the plain command
        # regenerates it
        assert args.scale == "default"
        assert args.tolerance == 0.05

    def test_bench_writes_valid_json(self, tmp_path, capsys):
        rc, out = self._run_bench(tmp_path)
        assert rc == 0
        assert out.exists()
        assert "lung2" in capsys.readouterr().out
        assert main(["bench", "--check", str(out)]) == 0

    def test_bench_check_rejects_corrupt_file(self, tmp_path, capsys):
        rc, out = self._run_bench(tmp_path)
        assert rc == 0
        import json

        doc = json.loads(out.read_text())
        doc["schema_version"] = 999
        out.write_text(json.dumps(doc))
        assert main(["bench", "--check", str(out)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_bench_compare_identical_clean(self, tmp_path, capsys):
        rc, out = self._run_bench(tmp_path)
        assert rc == 0
        assert main(["bench", "--compare", str(out), str(out)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_flags_injected_regression(self, tmp_path, capsys):
        rc, out = self._run_bench(tmp_path)
        assert rc == 0
        import json

        doc = json.loads(out.read_text())
        doc["entries"][0]["iterations"] *= 3
        doc["entries"][0]["modeled_seconds"] *= 3.0
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(doc))
        rc = main(["bench", "--compare", str(out), str(worse)])
        assert rc == 1
        out_text = capsys.readouterr().out
        assert "iterations" in out_text
        assert "modeled_seconds" in out_text

    def test_bench_compare_missing_file(self, tmp_path, capsys):
        rc, out = self._run_bench(tmp_path)
        assert rc == 0
        missing = tmp_path / "nope.json"
        assert main(["bench", "--compare", str(out), str(missing)]) == 2

    def test_bench_unknown_matrix(self, capsys):
        assert main(["bench", "--matrices", "not_a_matrix"]) == 2
        assert "unknown matrices" in capsys.readouterr().err


class TestSoakCheck:
    def test_accepts_a_report_run_soak_wrote(self, tmp_path, capsys):
        from repro.serve import run_soak

        out = tmp_path / "soak-report.json"
        run_soak(jobs=6, workers=2, out=str(out), check=False)
        assert main(["soak", "--check", str(out)]) == 0
        assert "valid serve report" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["[1, 2]", '{"serve": 3}', None])
    def test_rejects_hostile_documents(self, text, tmp_path, capsys):
        path = tmp_path / "report.json"
        if text is not None:
            path.write_text(text)
        assert main(["soak", "--check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parser_default_is_a_run_output(self):
        assert build_parser().parse_args(["soak"]).out == "soak-report.json"


class TestSharedOptionRegistry:
    """The shared-option registry is the single source of truth: every
    declared flag must be registered on its subcommand, and every
    epilog row must come from the same table (no drift possible)."""

    def _subparsers(self):
        import argparse

        parser = build_parser()
        (action,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    def test_every_declared_flag_is_registered(self):
        from repro.__main__ import SHARED_BY_COMMAND

        subs = self._subparsers()
        for command, options in SHARED_BY_COMMAND.items():
            flags = subs[command].format_help()
            for name in options:
                assert f"--{name}" in flags, (command, name)

    def test_epilog_lists_exactly_the_shared_flags(self):
        from repro.__main__ import SHARED_BY_COMMAND, shared_epilog

        for command, options in SHARED_BY_COMMAND.items():
            epilog = shared_epilog(command)
            for name in options:
                assert f"--{name}" in epilog, (command, name)

    def test_no_subcommand_drifts_on_core_grid_flags(self):
        """The drift this registry exists to prevent: every solver-grid
        subcommand must take --spmv-format AND --basis-mode (the faults
        subcommand historically lacked --basis-mode)."""
        subs = self._subparsers()
        for command in ("solve", "faults", "bench", "serve"):
            helptext = subs[command].format_help()
            assert "--spmv-format" in helptext, command
            assert "--basis-mode" in helptext, command

    def test_overrides_only_touch_default_and_help(self):
        from repro.__main__ import SHARED_BY_COMMAND

        for command, options in SHARED_BY_COMMAND.items():
            for name, overrides in options.items():
                assert set(overrides) <= {"default", "help", "choices"}, (
                    command, name,
                )

    def test_defaults_survive_refactor(self):
        p = build_parser()
        args = p.parse_args(["faults"])
        assert args.basis_mode == "cached"
        assert args.spmv_format == "csr"
        assert args.restart == 50
        args = p.parse_args(["serve", "lung2"])
        assert args.storage == "frsz2_32"
        assert args.scale == "smoke"

    def test_adaptive_storage_accepted(self):
        p = build_parser()
        assert p.parse_args(["solve", "lung2", "--storage", "adaptive"]).storage == "adaptive"
        assert p.parse_args(["bench", "--storages", "adaptive"]).storages == ["adaptive"]
        assert p.parse_args(["faults", "--storages", "adaptive"]).storages == ["adaptive"]
        assert p.parse_args(["serve", "lung2", "--storage", "adaptive"]).storage == "adaptive"
