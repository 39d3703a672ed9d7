"""Brute-force reference solver for desk-scale verification.

Minimizes a convex quadratic over the closed unit box by enumerating all
3^n lower/free/upper activity patterns, solving the reduced system on the
free coordinates, and keeping the best feasible KKT point.  Intended for
n <= 10 only (59049 tiny solves at worst); used by the test suite and the
``--check-oracle`` CLI path, never by the solver itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailed, TooLarge
from .linalg import as_matrix, as_vector, norm2_upper
from .problem import BoxQP, eval_q

LOWER, FREE, UPPER = "lower", "free", "upper"

MAX_ENUM_DIM = 10
KKT_RTOL = 1e-9
BOX_RTOL = 1e-9


@dataclass(frozen=True)
class OracleSolution:
    """Minimizer from active-set enumeration with its activity pattern."""

    x: np.ndarray
    objective: float
    active_pattern: tuple[str, ...]


def _pattern_point(H, g, pattern, scale):
    """Solve one activity pattern; return (x, objective) or None if infeasible.

    The reduced system on the free coordinates is solved in the least-squares
    sense so PSD-singular blocks are handled; inconsistent (degenerate)
    patterns are skipped via the consistency check.
    """
    n = g.shape[0]
    x = np.zeros(n)
    lower = [j for j, t in enumerate(pattern) if t == LOWER]
    upper = [j for j, t in enumerate(pattern) if t == UPPER]
    free = [j for j, t in enumerate(pattern) if t == FREE]
    x[lower] = -1.0
    x[upper] = 1.0
    if free:
        Hff = H[np.ix_(free, free)]
        rhs = -(g[free] + H[np.ix_(free, lower + upper)] @ x[lower + upper])
        xf, *_ = np.linalg.lstsq(Hff, rhs, rcond=None)
        if not np.all(np.isfinite(xf)):
            return None
        if np.linalg.norm(Hff @ xf - rhs) > KKT_RTOL * scale:
            return None  # inconsistent singular reduced system
        if np.abs(xf).max() > 1.0 + BOX_RTOL:
            return None
        x[free] = np.clip(xf, -1.0, 1.0)
    grad = H @ x + g
    # Multiplier signs: at the lower face the bound multiplier equals grad_j
    # and must be >= 0; at the upper face it equals -grad_j.
    if any(grad[j] < -KKT_RTOL * scale for j in lower):
        return None
    if any(grad[j] > KKT_RTOL * scale for j in upper):
        return None
    return x, float(0.5 * x @ (H @ x) + g @ x)


def oracle_min_box(H, g) -> OracleSolution:
    """Minimize 0.5 x'Hx + g'x over ||x||_inf <= 1 by pattern enumeration.

    Parameters
    ----------
    H : ndarray (n, n)
        Symmetric positive semi-definite; when it is positive definite, the
        returned point is the unique global minimizer.
    g : ndarray (n,)

    Ties between equal-objective patterns resolve to the lexicographically
    first pattern (lower < free < upper per coordinate), so results are
    deterministic.
    """
    g = as_vector(g, name="g")
    n = g.shape[0]
    H = as_matrix(H, rows=n, cols=n, name="H")
    if n > MAX_ENUM_DIM:
        raise TooLarge(f"enumeration oracle supports n <= {MAX_ENUM_DIM}, got {n}")
    scale = 1.0 + float(np.linalg.norm(g)) + norm2_upper(H)
    best = None
    for pattern in itertools.product((LOWER, FREE, UPPER), repeat=n):
        res = _pattern_point(H, g, pattern, scale)
        if res is None:
            continue
        x, obj = res
        if best is None or obj < best[1]:
            best = (x, obj, pattern)
    if best is None:
        raise BracketFailed("no activity pattern satisfied the optimality conditions")
    x, obj, pattern = best
    return OracleSolution(x=x, objective=obj, active_pattern=tuple(pattern))


def oracle_min_residual(p: BoxQP) -> float:
    """Smallest equality residual over the closed box.

    min ||Ax - b||_2 over ||x||_inf <= 1, via enumeration on the normal
    quadratic (H = A'A, g = -A'b); zero exactly when the constraints are
    box-feasible.
    """
    sol = oracle_min_box(p.A.T @ p.A, -(p.A.T @ p.b))
    return float(np.linalg.norm(p.A @ sol.x - p.b))


def _penalty_data(p: BoxQP, omega_bar: float):
    H = p.Q + omega_bar * np.eye(p.n) + (p.A.T @ p.A) / omega_bar
    g = p.c - (p.A.T @ p.b) / omega_bar
    return H, g


def oracle_solve_boxqp(p: BoxQP) -> OracleSolution:
    """Reference minimizer of q over the box intersected with the minimal-
    residual set, to within tol/10 in objective and residual.

    Minimizes the penalized q(x) + (w/2)||x||^2 + ||Ax - b||^2 / (2w) over
    the box at two weights, 10 w and the certified weight
    w = min{tol'/(2n), tol'^2 / (16 (4 C_q + n)), 1} with tol' = tol/5, at
    which both certified gaps are <= tol/20, and returns the minimizer at w.
    BracketFailed is raised unless the objectives q of the two minimizers
    agree to within tol/5 and the residual at w lies within tol/10 above
    the box-minimal one.
    """
    if p.n > MAX_ENUM_DIM:
        raise TooLarge(f"enumeration oracle supports n <= {MAX_ENUM_DIM}, got {p.n}")
    chi = oracle_min_residual(p)
    c_q = norm2_upper(p.Q) * p.n + float(np.linalg.norm(p.c)) * math.sqrt(p.n)
    tol_o = p.tol / 5.0
    w_target = min(tol_o / (2.0 * p.n), tol_o * tol_o / (16.0 * (4.0 * c_q + p.n)), 1.0)

    sol_prev = oracle_min_box(*_penalty_data(p, w_target * 10.0))
    sol_last = oracle_min_box(*_penalty_data(p, w_target))
    q_prev = eval_q(p, sol_prev.x)
    q_last = eval_q(p, sol_last.x)
    res_last = float(np.linalg.norm(p.A @ sol_last.x - p.b))
    if abs(q_last - q_prev) > p.tol / 5.0:
        raise BracketFailed(
            f"penalty continuation did not stabilize: |{q_last!r} - {q_prev!r}| > tol/5"
        )
    if res_last > chi + p.tol / 10.0 + 1e-9 * (1.0 + chi):
        raise BracketFailed(
            f"penalty solution residual {res_last!r} exceeds the certified band above {chi!r}"
        )
    return OracleSolution(x=sol_last.x, objective=q_last, active_pattern=sol_last.active_pattern)
