import csv
import json
import warnings

import numpy as np
import pytest

import boxipm.cli
import boxipm.oracle
from boxipm import solve, solve_standard
from boxipm.cli import run
from boxipm.oracle import OracleSolution
from boxipm.probfile import parse_problem
from boxipm.solver import TRACE_FIELDS

BOX_TEXT = """\
format_version: 1
kind: box
n: 1
m: 1
Q: [ 2.0 ]
c: [ -3.0 ]
A: [ 0.0 ]
b: [ 0.0 ]
tol: 1e-2
"""

STD_TEXT = """\
format_version: 1
kind: standard
n: 2
m: 1
Q: [ 0.0 0.0 0.0 0.0 ]
c: [ -1.0 0.0 ]
A: [ 1.0 1.0 ]
b: [ 1.0 ]
tol: 1e-2
pi: 2.0
"""

ILL_TEXT = """\
format_version: 1
kind: box
n: 2
m: 1
Q: [ 1.0 0.0 0.0 1.0 ]
c: [ 0.0 0.0 ]
A: [ 1e8 1e8 ]
b: [ 1e8 ]
tol: 1e-2
"""


@pytest.fixture
def box_file(tmp_path):
    path = tmp_path / "prob.qp"
    path.write_text(BOX_TEXT)
    return str(path)


@pytest.fixture
def std_file(tmp_path):
    path = tmp_path / "std.qp"
    path.write_text(STD_TEXT)
    return str(path)


class TestSolveCommand:
    def test_rejected_step_prints_its_context(self, box_file, capsys, monkeypatch):
        import boxipm.solver
        from boxipm.neighborhoods import check_step

        def failing(kind, mp, tau, eq_norm, comp_norm):
            if kind == "path":
                comp_norm += 2.0 * mp.theta * tau  # above the width: every path step fails
            check_step(kind, mp, tau, eq_norm, comp_norm)

        monkeypatch.setattr(boxipm.solver, "check_step", failing)
        assert run(["solve", box_file]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: StepRejected: path step failed its post-check: comp")
        fields = dict(kv.split("=") for kv in err[1].split())
        assert list(fields) == ["kind", "cycle", "tau", "block", "value", "limit"]
        assert (fields["kind"], fields["cycle"], fields["block"]) == ("path", "1", "comp")
        assert float(fields["value"]) > float(fields["limit"])

    @pytest.mark.parametrize("override, error, fields", [
        ({"M": 1}, "IterationBudgetExceeded", ["tau", "tau_E", "M"]),
        ({"K": 0}, "PrimalInitFailed", ["bound", "value", "limit", "K"]),
    ])
    def test_solver_error_prints_its_context(self, box_file, capsys, monkeypatch,
                                             override, error, fields):
        import dataclasses

        import boxipm.solver

        practical = boxipm.solver.compute_params_practical
        monkeypatch.setattr(boxipm.solver, "compute_params_practical",
                            lambda p: dataclasses.replace(practical(p), **override))
        assert run(["solve", box_file]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"error: {error}: ")
        context = dict(kv.split("=") for kv in err[1].split())
        assert list(context) == fields
        if "M" in override:
            assert context["M"] == "1"
        else:
            assert (context["bound"], context["K"]) == ("gradient", "0")  # x_K is the origin

    def test_solve_writes_json(self, box_file, capsys):
        assert run(["solve", box_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["x"][0]) < 1.0
        assert out["objective"] <= -2.0 + 1e-2
        assert out["mode"] == "stable"
        assert set(out["iterations"]) == {"primal", "path_following"}
        assert isinstance(out["params_digest"], str)

    def test_solve_json_counts_repairs(self, box_file, capsys):
        assert run(["solve", box_file]) == 0
        out = json.loads(capsys.readouterr().out)
        report = solve(parse_problem(BOX_TEXT).to_boxqp())
        assert out["repairs"] == {"x_clipped": report.x_clipped}

    def test_solve_json_counts_linear_algebra(self, box_file, capsys):
        assert run(["solve", box_file]) == 0
        out = json.loads(capsys.readouterr().out)
        report = solve(parse_problem(BOX_TEXT).to_boxqp())
        assert out["linear_algebra"] == {
            "solves": report.linear_solves, "factorizations": report.factorizations,
        }
        # a stable solve: the K Hessians, the initial reset, and one factor
        # per three cycles
        K, cycles = report.params.K, report.iterations_pd
        assert report.factorizations == K + 1 + cycles // 3
        assert out["iterations"] == {
            "primal": report.params.K, "path_following": report.iterations_pd,
        }

    def test_deterministic_stdout(self, box_file, capsys):
        assert run(["solve", box_file]) == 0
        first = capsys.readouterr().out
        assert run(["solve", box_file]) == 0
        assert capsys.readouterr().out == first

    def test_check_oracle_pass(self, box_file, capsys):
        assert run(["solve", box_file, "--check-oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["within_tol"] is True
        assert out["oracle"]["objective_gap"] <= 1e-2

    def test_check_oracle_fail(self, box_file, capsys, monkeypatch):
        def better(p):  # an oracle that claims a far lower objective
            return OracleSolution(x=np.zeros(p.n), objective=-1e9, active_pattern=("free",))

        monkeypatch.setattr(boxipm.cli, "oracle_solve_boxqp", better)
        assert run(["solve", box_file, "--check-oracle"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["within_tol"] is False

    def test_check_oracle_fails_a_solver_objective_below_the_oracles(
        self, box_file, capsys, monkeypatch
    ):
        # within tol judges both ways: an oracle whose objective sits more
        # than tol above the solver's is as far off as one below it
        def worse(p):
            return OracleSolution(x=np.zeros(p.n), objective=1e9, active_pattern=("free",))

        monkeypatch.setattr(boxipm.cli, "oracle_solve_boxqp", worse)
        assert run(["solve", box_file, "--check-oracle"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["objective_gap"] < -1e-2
        assert out["oracle"]["within_tol"] is False

    def test_tol_override(self, box_file, capsys):
        assert run(["solve", box_file, "--tol", "1e-3", "--check-oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["objective_gap"] <= 1e-3

    def test_fast_mode(self, box_file, capsys):
        assert run(["solve", box_file, "--mode", "fast"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "fast"

    def test_trace_csv(self, box_file, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.csv")
        assert run(["solve", box_file, "--trace", trace_path]) == 0
        capsys.readouterr()
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_FIELDS
        kinds = {row[2] for row in rows[1:]}
        assert {"primal", "lift", "path", "centrality", "error_reset"} <= kinds
        kind_col = TRACE_FIELDS.index("step_kind")
        for row in rows[1:]:
            for i, cell in enumerate(row):
                if i != kind_col:
                    float(cell)  # not np.float64(...)


class TestSolveStandardCommand:
    def test_solve_standard(self, std_file, capsys):
        assert run(["solve-standard", std_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pi"] == 2.0
        assert abs(out["x"][0] - 1.0) <= 0.05
        assert out["feas_residual"] <= 1e-2

    def test_json_counts_repairs(self, std_file, capsys):
        assert run(["solve-standard", std_file]) == 0
        out = json.loads(capsys.readouterr().out)
        box = solve_standard(parse_problem(STD_TEXT).to_standardqp(), tol=1e-2, pi=2.0).box_report
        assert out["repairs"] == {"x_clipped": box.x_clipped}
        assert out["tau_final"] == box.tau_final

    def test_deterministic_stdout(self, std_file, capsys):
        assert run(["solve-standard", std_file]) == 0
        first = capsys.readouterr().out
        assert run(["solve-standard", std_file]) == 0
        assert capsys.readouterr().out == first

    def test_pi_flag_overrides(self, std_file, capsys):
        assert run(["solve-standard", std_file, "--pi", "4.0"]) == 0
        assert json.loads(capsys.readouterr().out)["pi"] == 4.0

    def test_requires_standard_kind(self, box_file, capsys):
        assert run(["solve-standard", box_file]) == 2


class TestParamsCommand:
    def test_dump_format(self, box_file, capsys):
        assert run(["params", box_file]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        pairs = dict(l.split(" = ", 1) for l in lines if " = " in l)
        for name in ("theta", "sigma", "omega", "tau_A", "tau_E", "rho", "K", "M"):
            assert name in pairs
        assert float(pairs["theta"]) == 0.3

    def test_strict_overflow_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ill.qp"
        path.write_text(ILL_TEXT)
        assert run(["params", str(path), "--params", "strict"]) == 1
        assert run(["params", str(path)]) == 0

    def test_practical_solves_ill_scaled(self, tmp_path, capsys):
        path = tmp_path / "ill.qp"
        path.write_text(ILL_TEXT)
        assert run(["solve", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["objective"] <= 0.25 + 1e-2


class TestOracleAndFactor:
    def test_oracle_command(self, box_file, capsys):
        assert run(["oracle", box_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x"] == [1.0]
        assert out["active_pattern"] == ["upper"]

    @pytest.mark.parametrize("argv", [["oracle"], ["solve", "--check-oracle"]])
    def test_two_enumerations_per_call(self, argv, box_file, capsys, monkeypatch):
        # stage 1 gives chi with the least-squares point, stage 2 the
        # reference objective; chi is not enumerated a second time
        calls = []
        enumerate_ = boxipm.oracle._enumerate
        monkeypatch.setattr(boxipm.oracle, "_enumerate",
                            lambda *args: calls.append(args) or enumerate_(*args))
        assert run([argv[0], box_file, *argv[1:]]) == 0
        assert len(calls) == 2

    def test_factor_command(self, box_file, capsys):
        assert run(["factor", box_file]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val > 0.0

    @pytest.mark.parametrize("command", ["oracle", "factor"])
    def test_params_flag_is_a_usage_error(self, command, box_file, capsys):
        # neither reads the parameter cascade, so neither accepts --params
        assert run([command, box_file, "--params", "strict"]) == 2
        assert "unrecognized arguments: --params" in capsys.readouterr().err


class TestStandardFiles:
    """Standard-form files: the box subcommands need the file's pi, and
    solve-standard takes --pi and --trace."""

    @pytest.mark.parametrize("command", ["solve", "params", "oracle", "factor"])
    def test_box_subcommands_need_pi(self, command, std_file, tmp_path, capsys):
        assert run([command, std_file]) == 0
        no_pi = tmp_path / "no_pi.qp"
        no_pi.write_text(STD_TEXT.replace("pi: 2.0\n", ""))
        capsys.readouterr()
        assert run([command, str(no_pi)]) == 2
        assert "requires 'pi'" in capsys.readouterr().err

    def test_pi_flag_auto_and_invalid(self, std_file, capsys):
        assert run(["solve-standard", std_file, "--pi", "auto"]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] >= 1
        assert run(["solve-standard", std_file, "--pi", "abc"]) == 2
        assert "--pi must be a number or 'auto'" in capsys.readouterr().err

    def test_pi_that_overflows_the_scaled_data(self, std_file, capsys):
        # (pi/2)^2 overflows, and inf * 0 in Qt would be NaN: exit 2 naming
        # pi, with no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["solve-standard", std_file, "--pi", "1e200"]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert "pi = 1e+200 is too large" in err
        assert "Warning" not in err

    def test_trace_has_one_row_per_solve_and_the_lift(self, std_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        assert run(["solve-standard", std_file, "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        box = solve_standard(parse_problem(STD_TEXT).to_standardqp(), tol=1e-2, pi=2.0).box_report
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_FIELDS
        assert len(rows) - 1 == box.linear_solves + 1


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run(["solve", "/nonexistent/prob.qp"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.qp"
        path.write_text("format_version: 1\nkind: box\n")
        assert run(["solve", str(path)]) == 2

    def test_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["solve", "solve-standard", "params", "oracle", "factor"])
    def test_bad_tol_flag(self, command, tol, box_file, std_file, capsys):
        # BoxQP checks tol wherever it is used, the file's or the flag's
        path = std_file if command == "solve-standard" else box_file
        assert run([command, path, "--tol", tol]) == 2
        assert "tol must be a positive finite real" in capsys.readouterr().err
