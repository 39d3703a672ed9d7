"""Reference answers and the correctness check applied to every solve.

References are computed once per instance, outside any timed region, by
code that shares nothing with the solver's path-following:

- ``oracle``: the package's 3^n enumeration oracle (n <= 10 only);
- ``slsqp``: ``scipy.optimize.lsq_linear(method="bvls")`` for the minimal
  residual chi, then SLSQP for the objective on {x in box : Bx = B x_bvls},
  where B is an orthonormal row basis of A.  The minimal-residual set is
  exactly that set, because A x is unique at any least-squares minimizer;
  the row-basis form keeps SLSQP's equality Jacobian full rank when A is not;
- ``u_star``: the known optimum of a standard-form instance.

A solve passes when, as the solver documents:
``||x||_inf < 1``, the objective is at most the reference plus tol, the
residual ``||Ax - b||`` is at most the reference minimum plus tol, and
``linear_solves == K + 1 + cycles * (3 if stable else 1)``; a traced solve
also needs one trace row per linear solve plus the lift row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import boxipm
from boxipm.solver import MODE_STABLE


@dataclass(frozen=True)
class Reference:
    objective: float  # objective of the reference point
    residual: float  # smallest attainable ||Ax - b|| (box) or 0 (standard)


def reference(kind: str, problem) -> Reference:
    """Reference optimum of ``problem`` (a BoxQP, or a (StandardQP, u*) pair)."""
    if kind == "oracle":
        return Reference(boxipm.oracle_solve_boxqp(problem).objective, boxipm.oracle_min_residual(problem))
    if kind == "slsqp":
        return _slsqp_reference(problem)
    if kind == "u_star":
        sp, u_star = problem
        return Reference(sp.objective(u_star), 0.0)
    raise ValueError(f"unknown reference kind {kind!r}")


def _slsqp_reference(p) -> Reference:
    from scipy.optimize import lsq_linear, minimize

    x_ls = lsq_linear(p.A, p.b, bounds=(-1.0, 1.0), method="bvls", tol=1e-12).x
    chi = float(np.linalg.norm(p.A @ x_ls - p.b))
    _, s, vt = np.linalg.svd(p.A, full_matrices=False)
    B = vt[s > s[0] * max(p.A.shape) * np.finfo(np.float64).eps]
    target = B @ x_ls
    res = minimize(
        lambda x: 0.5 * x @ (p.Q @ x) + p.c @ x,
        x_ls,
        jac=lambda x: p.Q @ x + p.c,
        method="SLSQP",
        bounds=[(-1.0, 1.0)] * p.n,
        constraints=[{"type": "eq", "fun": lambda x: B @ x - target, "jac": lambda x: B}],
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP reference failed: {res.message}")
    return Reference(boxipm.eval_q(p, res.x), chi)


def check_box(report, p, ref: Reference, mode: str, collect_trace: bool) -> list[str]:
    """Problems found with a box solve; empty when it passes."""
    errors = _box_invariants(report, mode, collect_trace)
    # Recomputed from x, so a report whose fields disagree with x fails.
    x = np.asarray(report.x)
    objective = boxipm.eval_q(p, x)
    residual = float(np.linalg.norm(p.A @ x - p.b))
    if not objective <= ref.objective + p.tol:
        errors.append(f"objective {objective!r} > reference {ref.objective!r} + tol")
    if not residual <= ref.residual + p.tol:
        errors.append(f"residual {residual!r} > minimal residual {ref.residual!r} + tol")
    return errors


def _box_invariants(report, mode: str, collect_trace: bool) -> list[str]:
    errors = []
    x = np.asarray(report.x)
    if not float(np.abs(x).max(initial=0.0)) < 1.0:
        errors.append(f"||x||_inf = {np.abs(x).max()!r} is not < 1")
    per_cycle = 3 if mode == MODE_STABLE else 1
    expect = report.params.K + 1 + report.iterations_pd * per_cycle
    if report.linear_solves != expect:
        errors.append(f"linear_solves {report.linear_solves} != K + 1 + cycles * {per_cycle} = {expect}")
    if collect_trace and len(report.trace) != report.linear_solves + 1:
        errors.append(f"trace has {len(report.trace)} rows, expected linear_solves + 1 = {report.linear_solves + 1}")
    return errors


def check_standard(report, sp, tol: float, ref: Reference, mode: str) -> list[str]:
    """Problems found with a standard-form solve; empty when it passes.

    The accepted trial's box solve is checked as a box solve would be; the
    answer u is checked in the original coordinates against u*.
    """
    box = report.box_report
    errors = [f"accepted trial: {e}" for e in _box_invariants(box, mode, False)]
    u = np.asarray(report.x)
    if not float(u.min(initial=0.0)) >= 0.0:
        errors.append(f"u has a negative entry {u.min()!r}")
    objective = sp.objective(u)
    residual = float(np.linalg.norm(sp.At @ u - sp.bt))
    if not objective <= ref.objective + tol:
        errors.append(f"objective {objective!r} > objective at u* {ref.objective!r} + tol")
    if not residual <= ref.residual + tol:
        errors.append(f"residual {residual!r} > tol")
    return errors
