"""Shared random-instance generators for the test suite."""

import numpy as np

from boxipm import BoxQP, StandardQP, StepRejected
from boxipm.kkt import cond_DF
from boxipm.neighborhoods import STEP_CENTRALITY, STEP_ERROR_RESET
from boxipm.solver import _step


def random_boxqp(rng, n, m, feasible=True, tol=1e-2, rank=None, scale=1.0):
    """Random PSD instance; b is reachable from the box iff ``feasible``."""
    r = n if rank is None else rank
    B = rng.normal(size=(r, n))
    Q = scale * (B.T @ B) / n
    c = scale * rng.normal(size=n)
    A = scale * rng.normal(size=(m, n))
    x0 = rng.uniform(-0.8, 0.8, size=n)
    b = A @ x0
    if not feasible:
        u = rng.normal(size=m)
        u /= np.linalg.norm(u)
        # ||A(x - x0)|| <= 2 sqrt(n) ||A||, so this offset keeps b unreachable.
        b = b + 3.0 * np.sqrt(n) * np.linalg.norm(A) * u
    return BoxQP(Q=Q, c=c, A=A, b=b, tol=tol)


def random_boxqp_interior_infeasible(rng, n, m, tol=1e-2):
    """Infeasible instance whose least-squares point is interior to the box.

    A is given rank m-1, so the residual offset lies in null(A'); the
    box-constrained least-squares solution then sits strictly inside the box
    and the bound multipliers stay O(1) instead of O(1/omega).  Keeps traced
    runs inside the regime where binary64 can represent the path margins.
    """
    assert m >= 2
    V = rng.normal(size=(m, m - 1))
    W = rng.normal(size=(m - 1, n))
    A = V @ W
    B = rng.normal(size=(n, n))
    Q = (B.T @ B) / n
    c = rng.normal(size=n)
    x0 = rng.uniform(-0.5, 0.5, size=n)
    # offset in null(A'): unreachable by any x, residual direction fixed
    u = rng.normal(size=m)
    u -= A @ np.linalg.lstsq(A, u, rcond=None)[0]
    u /= np.linalg.norm(u)
    b = A @ x0 + 0.5 * u
    return BoxQP(Q=Q, c=c, A=A, b=b, tol=tol)


def random_standard_with_optimum(rng, n, m):
    """Feasible standard-form instance with a known interior optimum.

    The optimum u* is drawn in (0.1, 0.9)^n; ct is chosen so the objective
    gradient at u* lies in the row space of At, making u* stationary on the
    affine set and hence (being interior to u >= 0) the global optimum.
    """
    B = rng.normal(size=(n, n))
    Qt = B.T @ B / n + 0.5 * np.eye(n)
    At = rng.normal(size=(m, n))
    u_star = rng.uniform(0.1, 0.9, size=n)
    y = rng.normal(size=m)
    ct = At.T @ y - Qt @ u_star
    bt = At @ u_star
    sp = StandardQP(Qt=Qt, ct=ct, At=At, bt=bt)
    return sp, u_star


def iterate_from_array(v, n, m):
    """The Iterate whose ``as_array()`` is v, of length 3n + m."""
    from boxipm import Iterate

    assert len(v) == 3 * n + m
    return Iterate(x=v[:n], lam=v[n : n + m], mu_l=v[n + m : 2 * n + m], mu_r=v[2 * n + m :])


def mu_e_row(z):
    """The iterate z as a batch of one (mu_l, mu_r, 1 + x, 1 - x) row, as
    :func:`boxipm.neighborhoods.complementarity_gap` takes it."""
    return np.concatenate([z.mu_l, z.mu_r, 1.0 + z.x, 1.0 - z.x])[None]


def random_iterate(rng, n, m):
    """Strictly interior primal-dual point (not on any central path)."""
    from boxipm import Iterate

    return Iterate(
        x=rng.uniform(-0.9, 0.9, size=n),
        lam=rng.normal(size=m),
        mu_l=rng.uniform(0.1, 2.0, size=n),
        mu_r=rng.uniform(0.1, 2.0, size=n),
    )


def newton_step(ws, tau, reset_only):
    """The Newton step dz that ``boxipm.solver._step`` takes from the
    workspace's state, whose F must hold F_tau: an error reset with
    ``reset_only``, otherwise a centrality step, whose right-hand side -F a
    path step shares.  The state moves on; a failed post-check or interior
    test, which the step makes after it writes dz, H and the factor and
    which says nothing of them, is ignored, and any other rejection
    raises."""
    try:
        _step(STEP_ERROR_RESET if reset_only else STEP_CENTRALITY, ws, tau)
    except StepRejected as exc:
        if exc.block is None:
            raise
    return ws.dz


def step_factors(ws, tau, points):
    """The factoring steps of ``newton_step`` from each of ``points`` in
    the workspace ``ws``, as a trace recorder keeps them: a stack of their
    factors' ``ldu``, each Fortran-ordered, their pivots, and the (mu, e)
    of each point, one row each."""
    d = ws.n + ws.m
    factors = np.empty((len(points), d, d)).transpose(0, 2, 1)
    ipivs, mu_e = [], np.empty((len(points), 4 * ws.n))
    for slot, row, z in zip(factors, mu_e, points):
        ws.load(z)
        ws.eval_F(tau)
        row[:] = ws.mu_e
        newton_step(ws, tau, reset_only=False)
        ldu, ipiv = ws.factor
        slot[:] = ldu
        ipivs.append(ipiv)
    return factors, ipivs, mu_e


def batched_cond_DF(ws, tau, points):
    """kappa_1 of the DF that the factoring step from each of ``points``
    solves, as one batch of :func:`boxipm.kkt.cond_DF`, a list of floats."""
    return cond_DF(ws, *step_factors(ws, tau, points)).tolist()
