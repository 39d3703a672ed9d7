"""A fresh interpreter loads LAPACK at its first factorization, not at
``import boxipm``: parsing, validation, the parameter cascade, the oracle
and the problem factor run on numpy alone, and building a step workspace
loads nothing.  LAPACK and BLAS come through the compiled step
(``boxipm._cstep``, with ``_cffi_backend``), which the first residual,
step or factorization loads; no solve imports ``scipy.linalg``.  A first
solve with an empty cache builds the compiled step in a subprocess, so
the solving interpreter never imports setuptools or cffi's builder;
without gcc the build raises ImportError."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boxipm._cstep

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

# Prints the scipy.linalg modules, _cffi_backend and the compiled step
# loaded after the given statements run.
_LOADED = """
import json, sys
sys.path.insert(0, {src!r})
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]
                  or m == "_cffi_backend" or m.startswith("_boxipm_cstep"))
{body}
print(json.dumps(loaded()))
"""


def _fresh(body: str) -> tuple[list[str], list[str]]:
    """Run ``body`` in a fresh interpreter; the lines it printed, and the
    scipy.linalg modules, _cffi_backend and the compiled step loaded at
    its end."""
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
    # building and loading a step workspace loads nothing; eval_F builds
    # one and evaluates F in it, which binds BLAS, without stepping, and
    # gives the bits it gives in this process
    data = dict(Q=[[2.0, 0.5], [0.5, 1.0]], c=[1.0, -1.0], A=[[1.0, 1.0]], b=[0.5], tol=1e-2)
    point = dict(x=[0.1, -0.2], lam=[0.3], mu_l=[1.0, 2.0], mu_r=[0.5, 1.5])
    body = f"""
import boxipm
from boxipm.kkt import _Workspace, eval_F
p = boxipm.BoxQP(**{data!r})
z = boxipm.Iterate(**{point!r})
mp = boxipm.compute_params_practical(p)
_Workspace(p, mp).load(z)
print(json.dumps(loaded()))
print(eval_F(p, mp, z, 0.5).as_array().tobytes().hex())
"""
    (built, printed), loaded = _fresh(body)
    assert json.loads(built) == []
    assert "_cffi_backend" in loaded
    assert not [m for m in loaded if m.startswith("scipy")]
    p = BoxQP(**data)
    here = eval_F(p, compute_params_practical(p), Iterate(**point), 0.5).as_array()
    assert printed == here.tobytes().hex()


def test_first_solve_loads_lapack_and_gives_the_same_bytes(tmp_path):
    p = random_boxqp(np.random.default_rng(21), 4, 2, feasible=True, tol=1e-2)
    path = tmp_path / "prob.qp"
    path.write_text(serialize_problem(ProblemFile(
        format_version=1, kind="box", n=p.n, m=p.m, Q=p.Q, c=p.c, A=p.A, b=p.b, tol=p.tol,
    )))
    body = f"""
import boxipm, boxipm.linalg
p = boxipm.parse_problem(open({str(path)!r}).read()).to_boxqp()
print(boxipm.solve(p).x.tobytes().hex())
"""
    printed, loaded = _fresh(body)
    assert "_cffi_backend" in loaded
    assert not [m for m in loaded if m.startswith("scipy")]
    here = solve(parse_problem(path.read_text()).to_boxqp()).x
    assert printed == [here.tobytes().hex()]


def test_first_solve_with_an_empty_cache_builds_in_a_subprocess(tmp_path):
    # the build imports cffi's builder and setuptools, if anything does, in
    # its own interpreter; the solving one loads the result, whose x has
    # the bytes of this process's solve
    p = random_boxqp(np.random.default_rng(22), 3, 1, feasible=True, tol=1e-2)
    data = dict(Q=p.Q.tolist(), c=p.c.tolist(), A=p.A.tolist(), b=p.b.tolist(), tol=p.tol)
    cache = tmp_path / "cache"
    body = f"""
import boxipm, boxipm._cstep
boxipm._cstep.CACHE_DIR = {str(cache)!r}
print(boxipm.solve(boxipm.BoxQP(**{data!r})).x.tobytes().hex())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("setuptools", "cffi"))))
"""
    (x, builders), loaded = _fresh(body)
    assert json.loads(builders) == []
    assert "_cffi_backend" in loaded
    assert [c.name.split(".")[0] for c in cache.iterdir()] == [
        m for m in loaded if m.startswith("_boxipm_cstep") and "." not in m
    ]
    assert x == solve(BoxQP(**data)).x.tobytes().hex()


def test_a_missing_compiler_raises_an_import_error_that_names_gcc(monkeypatch, tmp_path):
    monkeypatch.setattr(boxipm._cstep, "_loaded", None)
    monkeypatch.setattr(boxipm._cstep, "CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(boxipm._cstep, "CC", "boxipm-no-such-compiler")
    with pytest.raises(ImportError, match="gcc"):
        boxipm._cstep.load()
    assert list(tmp_path.iterdir()) == []
