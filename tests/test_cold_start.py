"""A fresh interpreter loads ``scipy.linalg`` at its first factorization,
not at ``import boxipm``: parsing, validation, the parameter cascade, the
oracle, the problem factor and the residual F run on numpy alone."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxipm import (
    BoxQP,
    Iterate,
    ProblemFile,
    compute_params_practical,
    parse_problem,
    serialize_problem,
    solve,
)
from boxipm.kkt import eval_F

from support import random_boxqp
from test_cli import BOX_TEXT, STD_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the scipy.linalg modules loaded after the given statements run.
_LOADED = """
import json, sys
sys.path.insert(0, {src!r})
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"])))
"""


def _fresh(body: str) -> tuple[list[str], list[str]]:
    """Run ``body`` in a fresh interpreter; the lines it printed, and the
    scipy.linalg modules loaded at its end."""
    code = _LOADED.format(src=str(SRC), body=body)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    ).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def test_import_parse_and_validate_load_no_lapack(tmp_path):
    box, std = tmp_path / "box.qp", tmp_path / "std.qp"
    box.write_text(BOX_TEXT)
    std.write_text(STD_TEXT)
    body = f"""
import boxipm
boxipm.parse_problem(open({str(box)!r}).read()).to_boxqp()
boxipm.parse_problem(open({str(std)!r}).read()).to_standardqp()
"""
    assert _fresh(body)[1] == []


@pytest.mark.parametrize("command", ["params", "oracle", "factor"])
def test_cli_commands_that_do_not_solve_load_no_lapack(tmp_path, command):
    path = tmp_path / "prob.qp"
    path.write_text(BOX_TEXT)
    body = f"""
import boxipm.cli
assert boxipm.cli.run([{command!r}, {str(path)!r}]) == 0
"""
    assert _fresh(body)[1] == []


def test_a_step_workspace_binds_lapack_at_its_first_step_not_when_built():
    # eval_F builds a step workspace and evaluates F in it without stepping
    data = dict(Q=[[2.0, 0.5], [0.5, 1.0]], c=[1.0, -1.0], A=[[1.0, 1.0]], b=[0.5], tol=1e-2)
    point = dict(x=[0.1, -0.2], lam=[0.3], mu_l=[1.0, 2.0], mu_r=[0.5, 1.5])
    body = f"""
import boxipm
from boxipm.kkt import eval_F
p = boxipm.BoxQP(**{data!r})
z = boxipm.Iterate(**{point!r})
print(eval_F(p, boxipm.compute_params_practical(p), z, 0.5).as_array().tobytes().hex())
"""
    printed, loaded = _fresh(body)
    assert loaded == []
    p = BoxQP(**data)
    here = eval_F(p, compute_params_practical(p), Iterate(**point), 0.5).as_array()
    assert printed == [here.tobytes().hex()]


def test_first_solve_loads_lapack_and_gives_the_same_bytes(tmp_path):
    p = random_boxqp(np.random.default_rng(21), 4, 2, feasible=True, tol=1e-2)
    path = tmp_path / "prob.qp"
    path.write_text(serialize_problem(ProblemFile(
        format_version=1, kind="box", n=p.n, m=p.m, Q=p.Q, c=p.c, A=p.A, b=p.b, tol=p.tol,
    )))
    body = f"""
import boxipm, boxipm.linalg
p = boxipm.parse_problem(open({str(path)!r}).read()).to_boxqp()
assert "scipy.linalg" not in sys.modules
print(boxipm.solve(p).x.tobytes().hex())
assert boxipm.linalg.lapack is sys.modules["scipy.linalg.lapack"]
"""
    printed, loaded = _fresh(body)
    assert "scipy.linalg.lapack" in loaded
    here = solve(parse_problem(path.read_text()).to_boxqp()).x
    assert printed == [here.tobytes().hex()]
