"""Brute-force reference solver for desk-scale verification.

Minimizes a convex quadratic over the closed unit box, optionally subject to
linear equalities, by enumerating all 3^n lower/free/upper activity
patterns, solving the pattern's KKT system on the free coordinates, and
keeping the best point that passes the optimality tests.  Intended for
n <= 10 only (59049 tiny solves at worst); used by the test suite and the
``--check-oracle`` CLI path, never by the solver itself.
"""

from __future__ import annotations

import itertools
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
    """Minimizer from active-set enumeration with its activity pattern, and
    the smallest ||Ax - b|| over the box (0.0 where there are no equality
    rows)."""

    x: np.ndarray
    objective: float
    active_pattern: tuple[str, ...]
    min_residual: float = 0.0


def _pattern_point(M, v, pattern, scale):
    """Solve one activity pattern of min 0.5 x'Hx + g'x over the box subject
    to Ex = d; return (x, objective) or None if the pattern fails.

    M = [[H, E'], [E, 0]] and v = (g, -d) give the KKT system
    M (x, y) + v = (bound multipliers, 0).  The pattern fixes x on its faces
    and solves the rows and columns of the free coordinates and of y in the
    least-squares sense, so singular H and dependent rows of E are handled;
    inconsistent (degenerate) patterns are skipped via the consistency check.
    """
    n = len(pattern)
    z = np.zeros(v.shape[0])
    lower = [j for j, t in enumerate(pattern) if t == LOWER]
    upper = [j for j, t in enumerate(pattern) if t == UPPER]
    free = [j for j, t in enumerate(pattern) if t == FREE]
    z[lower] = -1.0
    z[upper] = 1.0
    idx = free + list(range(n, v.shape[0]))
    K = M[np.ix_(idx, idx)]
    rhs = -(M @ z + v)[idx]  # z is zero on idx here
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    if np.linalg.norm(K @ sol - rhs) > KKT_RTOL * scale:
        return None  # inconsistent singular KKT system
    if np.abs(sol[: len(free)]).max(initial=0.0) > 1.0 + BOX_RTOL:
        return None
    z[idx] = sol
    z[:n] = x = np.clip(z[:n], -1.0, 1.0)
    # Multiplier signs: at the lower face the bound multiplier (Hx + g + E'y)_j
    # must be >= 0; at the upper face its negative must be.
    grad = M[:n] @ z + v[:n]
    if (grad[lower] < -KKT_RTOL * scale).any() or (grad[upper] > KKT_RTOL * scale).any():
        return None
    return x, float(0.5 * x @ (M[:n, :n] @ x) + v[:n] @ x)


def _enumerate(H, g, E, d):
    """(x, objective, pattern) minimizing 0.5 x'Hx + g'x over the box
    subject to Ex = d, over all 3^n patterns in lexicographic order."""
    n, k = g.shape[0], d.shape[0]
    if n > MAX_ENUM_DIM:
        raise TooLarge(f"enumeration oracle supports n <= {MAX_ENUM_DIM}, got {n}")
    M = np.block([[H, E.T], [E, np.zeros((k, k))]])
    v = np.concatenate([g, -d])
    scale = (1.0 + float(np.linalg.norm(g)) + norm2_upper(H)
             + norm2_upper(E) + float(np.linalg.norm(d)))
    best = None
    for pattern in itertools.product((LOWER, FREE, UPPER), repeat=n):
        res = _pattern_point(M, v, pattern, scale)
        if res is not None and (best is None or res[1] < best[1]):
            best = (*res, tuple(pattern))
    if best is None:
        raise BracketFailed("no activity pattern satisfied the optimality conditions")
    return best


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
    return OracleSolution(*_enumerate(H, g, np.zeros((0, n)), np.zeros(0)))


def _stage_1(p: BoxQP) -> tuple[np.ndarray, float]:
    """(A x_ls, ||A x_ls - b||) at a minimizer x_ls of ||Ax - b|| over the
    box, by enumeration on the normal quadratic (H = A'A, g = -A'b)."""
    d = p.A @ oracle_min_box(p.A.T @ p.A, -(p.A.T @ p.b)).x
    return d, float(np.linalg.norm(d - p.b))


def oracle_min_residual(p: BoxQP) -> float:
    """Smallest equality residual min ||Ax - b||_2 over ||x||_inf <= 1;
    zero exactly when the constraints are box-feasible."""
    return _stage_1(p)[1]


def oracle_solve_boxqp(p: BoxQP) -> OracleSolution:
    """Reference minimizer of q over the box intersected with the minimal-
    residual set, by two enumerations.

    Stage 1 finds a box least-squares point x_ls, as
    :func:`oracle_min_residual` does; its residual is ``min_residual``.  Ax
    takes the same value at every box least-squares minimizer, so stage 2
    minimizes q over the box subject to Ax = A x_ls, which is exactly the
    minimal-residual set.  Ties resolve as in :func:`oracle_min_box`.
    """
    d, chi = _stage_1(p)
    x, _, pattern = _enumerate(p.Q, p.c, p.A, d)
    return OracleSolution(x=x, objective=eval_q(p, x), active_pattern=pattern, min_residual=chi)
