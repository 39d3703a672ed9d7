"""Shared random-instance generators for the test suite, and the reference
functions that only the tests call: the barrier value f, its regularized
objective, the one dsysv call that a Newton step makes, and the Newton step
and residual as Python made them before the compiled step
(:class:`ReferenceWorkspace`), which the compiled ones must match bit for
bit."""

import math

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from boxipm import BoxQP, InvalidProblem, StandardQP, StepRejected, eval_q
from boxipm.kkt import _interior_x, _Workspace, cond_DF
from boxipm.linalg import _check_info, as_vector
from boxipm.neighborhoods import STEP_CENTRALITY, STEP_ERROR_RESET, STEP_PATH, check_step
from boxipm.solver import _OVERFLOW, HELD_STEPS, _step


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


def loaded_workspace(p, mp, z, tau, mode="stable"):
    """A step workspace of its own that holds the iterate z, with F_tau in
    ``F``: the state from which ``boxipm.solver._step`` steps, as
    ``solve()`` loads the lift point, with the held-factor limit of
    ``mode``.  A test steps as ``solve()`` does, with
    ``_step(kind, ws, tau)``, a path step at its own reduced tau."""
    ws = _Workspace(p, mp, HELD_STEPS[mode])
    ws.load(z)
    ws.eval_F(tau)
    return ws


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
        ipivs.append(ipiv.copy())  # the next factoring step reuses it
    return factors, ipivs, mu_e


def batched_cond_DF(ws, tau, points):
    """kappa_1 of the DF that the factoring step from each of ``points``
    solves, as one batch of :func:`boxipm.kkt.cond_DF`, a list of floats."""
    return cond_DF(ws, *step_factors(ws, tau, points)).tolist()


def eval_q_omega(p, omega, x):
    """Regularized objective (omega/2)||x||^2 + q(x) + ||Ax - b||^2 / (2 omega)."""
    if not omega > 0.0:
        raise InvalidProblem(f"omega must be positive, got {omega!r}")
    x = as_vector(x, dim=p.n, name="x")
    r = p.A @ x - p.b
    return float(0.5 * omega * (x @ x) + eval_q(p, x) + (r @ r) / (2.0 * omega))


def eval_f(p, mp, x):
    """Primal barrier value f(x) = q_omega(x)/tau_A - sum_j [log(1+x_j) +
    log(1-x_j)], of which ``boxipm.kkt.eval_grad_f`` is the gradient;
    raises OutOfDomain near the box boundary, as the gradient does."""
    x = _interior_x(p, x)
    barrier = np.log1p(x) + np.log1p(-x)
    return float(eval_q_omega(p, mp.omega, x) / mp.tau_A - barrier.sum())


def solve_symmetric(G, v):
    """Solve G u = v for a symmetric nonsingular ``G`` by Bunch-Kaufman LDL'
    (LAPACK dsysv), in one call, as a factoring step of
    ``boxipm.solver._step`` makes it; returns (u, ldu, ipiv), where ``ldu``
    and ``ipiv`` are the factor of G that the call computed, in LAPACK's
    form, for LAPACK dsytrs and ``boxipm.linalg.symmetric_inverse``.

    Only the upper triangle of ``G`` is read, and ``G`` is never written.
    ``v`` is overwritten with u when it is a contiguous, writable float64
    vector, and u is then ``v`` itself; any other ``v`` is left unchanged.
    An exactly zero pivot in D raises SingularSystem; nothing smaller does.
    """
    ldu, ipiv, u, info = scipy.linalg.lapack.dsysv(G, v, overwrite_b=1)
    _check_info("dsysv", info)
    return u, ldu, ipiv


class ReferenceWorkspace(_Workspace):
    """A step workspace that :func:`reference_step` drives, with the
    residual :meth:`eval_F` of the Python workspace: the step and the
    residual as they were written in Python, on numpy ufuncs and scipy's
    f2py wrappers of LAPACK and BLAS, line for line, which the compiled
    ones (``boxipm._cstep``) must match bit for bit.  Its factor, counts
    and norms are plain attributes, and a factor is the new (ldu, ipiv)
    pair that dsysv returns."""

    factor = None
    factorizations = held_steps = 0
    eq_norm = comp_norm = math.nan
    bound = bound_F = None

    def __init__(self, p, mp, held_limit=0):
        super().__init__(p, mp, held_limit)
        n, nm = self.n, self.n + self.m
        # the views that the Python step read, besides the workspace's own
        self.hdiag = np.einsum("ii->i", self.H[:n, :n])
        self.t_l, self.t_r, self.w_l, self.w_r = self.t[:n], self.t[n:], self.w[:n], self.w[n:]
        self.dz_u, self.de_l, self.de_r = self.dz[:nm], self.de[:n], self.de[n:]

    def load(self, z):
        super().load(z)
        self.factor, self.held_steps = None, 0

    def eval_F(self, tau):
        bound = self.bound_F
        if bound is None:  # line for line as unpacked below
            blas = scipy.linalg.blas
            bound = self.bound_F = (
                self.T.dot, self.z, self.r12, self.cb, self.r34, self.mu, self.e, self.mue,
                self.ones, 2 * self.n, np.multiply, blas.daxpy, blas.dcopy, blas.ddot,
            )
        (gemv, z, r12, cb, r34, mu, e, mue,
         ones, n2, multiply, daxpy, dcopy, ddot) = bound
        gemv(z, r12)
        daxpy(cb, r12)
        multiply(mu, e, mue)
        dcopy(mue, r34)
        daxpy(ones, r34, n2, -tau)
        self.eq_norm = math.sqrt(ddot(r12, r12))
        self.comp_norm = math.sqrt(ddot(r34, r34))


def reference_step(kind, ws, tau):
    """``boxipm.solver._step`` on a :class:`ReferenceWorkspace`, as Python
    made it: the same stages, rejections and post-check."""
    bound = ws.bound
    if bound is None:  # line for line as unpacked below
        lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
        bound = ws.bound = (
            ws.ze, ws.mu, ws.e, ws.mu_e, ws.mue, ws.ones, ws.F, ws.r34, ws.sign,
            ws.dze, ws.dz, ws.dz_x, ws.dz_u, ws.dz_mu, ws.de, ws.de_l, ws.de_r,
            float(ws.lam_scale), ws.t, ws.t_l, ws.t_r, ws.w, ws.w_l, ws.w_r,
            ws.H, ws.H.ravel(order="F"), ws.hdiag, ws.qdiag, ws.n, ws.m, ws.n + ws.m,
            np.multiply, np.divide, np.minimum.reduce,
            lapack.dsysv, lapack.dsytrs, blas.dasum, blas.daxpy, blas.dcopy, blas.dscal,
        )
    (ze, mu, e, mu_e, mue, ones, F, r34, sign,
     dze, dz, dx, dz_u, dz_mu, de, de_l, de_r,
     s, t, t_l, t_r, w, w_l, w_r,
     H, hflat, hdiag, qdiag, n, m, d,
     multiply, divide, reduce_min,
     dsysv, dsytrs, dasum, daxpy, dcopy, dscal) = bound
    reset, path = kind == STEP_ERROR_RESET, kind == STEP_PATH
    if path:  # F at the new tau, as eval_F writes it; the other steps keep the last step's
        dcopy(mue, r34)
        daxpy(ones, r34, 2 * n, -tau)
    multiply(sign, F, dz)  # (g1, -s g2, g3, g4)
    held = ws.factor is not None and (reset or ws.held_steps < ws.held_limit)
    if not reset:
        # v = ((g1 + g3/(e+x)) - g4/(e-x), -s g2), written over (dx, dlam);
        # a reset's g34 is 0, so its v is (g1, -s g2) as written above
        divide(dz_mu, e, t)
        daxpy(t_l, dx)
        daxpy(t_r, dx, n, -1.0)
    if held:
        # the held factor's G was tested when it was factored, and a reset's
        # v is (-r1, s r2) of a residual the last post-check found finite
        if not reset:
            if not math.isfinite(dasum(dz_u)) and not np.isfinite(dz_u).all():
                raise StepRejected(_OVERFLOW.format("v"), kind=kind, tau=tau)
            ws.held_steps += 1
        ldu, ipiv = ws.factor
        info = dsytrs(ldu, ipiv, dz_u, 0, 1)[1]
        if info:
            _check_info("dsytrs", info)
    else:
        # the Q block's diagonal: ((Q_jj + omega) + mu_l/(e+x)) + mu_r/(e-x),
        # written through H's buffer: hdiag is its (d + 1)-strided slots
        divide(mu, e, w)
        dcopy(qdiag, hflat, n, 0, 1, 0, d + 1)
        daxpy(w_l, hflat, n, 1.0, 0, 1, 0, d + 1)
        daxpy(w_r, hflat, n, 1.0, 0, 1, 0, d + 1)
        if not math.isfinite(dasum(hflat, n, 0, d + 1) + dasum(dz_u)):
            if not hdiag.max() < math.inf:
                raise StepRejected(_OVERFLOW.format("G"), kind=kind, tau=tau)
            if not np.isfinite(dz_u).all():
                raise StepRejected(_OVERFLOW.format("v"), kind=kind, tau=tau)
        ldu, ipiv, _, info = dsysv(H, dz_u, d, 0, 0, 1)
        if info:
            _check_info("dsysv", info)
        ws.factor = ldu, ipiv
        ws.factorizations += 1
        ws.held_steps = 0
    # de = (dx, -dx), then dmu = g34/e - w'∘de: -(w'∘de) in a reset,
    # t + -(w'∘de) otherwise
    dcopy(dx, de_l)
    dcopy(dx, de_r)
    dscal(-1.0, de_r)
    multiply(w, de, dz_mu)
    dscal(-1.0, dz_mu)
    if not reset:
        daxpy(t, dz_mu)
    dscal(s, dz, m, n)  # dlam = s (dlam/s), exactly
    if not math.isfinite(dasum(dz)) and not np.isfinite(dz).all():
        raise StepRejected("Newton step produced non-finite components", kind=kind, tau=tau)
    daxpy(dze, ze)  # (z, e) + (dz, de): z + dz and e + (dx, -dx)
    margin = reduce_min(mu_e)
    if margin <= 0.0:  # a NaN margin passes on to the residual test, which names it
        raise StepRejected(
            f"{kind} step left the interior: min(mu, e) reached {float(margin)!r} <= 0.0",
            kind=kind, tau=tau, block="interior", value=float(margin), limit=0.0,
        )
    ws.eval_F(tau)
    eq_norm, comp_norm = ws.eq_norm, ws.comp_norm
    if not math.isfinite(eq_norm + comp_norm):
        raise StepRejected("Newton step overflowed to a non-finite iterate", kind=kind, tau=tau)
    check_step(kind, ws.mp, tau, eq_norm, comp_norm)
