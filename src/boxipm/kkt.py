"""Primal barrier function, optimality function and its Jacobian.

The primal phase minimizes the regularized penalty-barrier

    f(x) = (1/tau_A) * (q(x) + (omega/2)||x||^2 + ||Ax-b||^2/(2 omega))
           - sum_j [log(1+x_j) + log(1-x_j)],

which is self-concordant, strictly convex, and has its minimizer near the
origin because tau_A is large.  The primal-dual phase drives the optimality
function

    F_tau(z) = ( Qx + omega x + c - A'lam - mu_l + mu_r,
                 Ax - b + omega lam,
                 mu_l*(e+x) - tau e,
                 mu_r*(e-x) - tau e )

to the central path, where z = (x, lam, mu_l, mu_r) has dimension
N = 3n + m.  The Jacobian DF does not depend on tau.  Its two mu block rows
are diagonal, so Newton systems on DF reduce exactly to a symmetric
quasi-definite system in (n+m) unknowns, one LAPACK call to solve.

The (r1, r2) blocks are affine in z: their matrix T is the top n+m rows of
DF, which do not depend on z, so (r1, r2) = T z + (c, -b) is one
matrix-vector product.  Its summation order is the BLAS kernel's, not the
left-to-right order of the formula above; both are backward stable.

Primal-dual points live in one layout: z as one N-vector whose blocks are
views, followed in the same buffer by e = (e+x, e-x), so that (mu, e) is
one contiguous 4n-vector, next to mu∘e = (mu_l*(e+x), mu_r*(e-x)) as a
2n-vector and F as one N-vector.  :class:`Iterate` is the immutable public
form of z.  The solver's Newton steps run in a :class:`_Workspace`, built
once per solve: one primal-dual state in that layout, T, the reduced matrix
and scratch vectors, all preallocated, so a step is a fixed sequence of
in-place array operations that updates the state where it is.
:func:`eval_F` shares its code with it.  The trace's condition number of
DF is assembled in the workspace from the factor of the reduced matrix
that the step's solve returns, so no N x N matrix is built in a solve;
:func:`eval_DF` builds DF for callers outside the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidProblem, OutOfDomain
from .linalg import EPS_MACH, as_vector, solve_symmetric, symmetric_inverse
from .problem import BoxQP, eval_q_omega, q_omega_data

# Barrier evaluations are rejected this close to the box boundary: the log of
# a smaller margin would round into +/-inf downstream.
DOMAIN_MARGIN = 4.0 * EPS_MACH


@dataclass(frozen=True)
class Iterate:
    """Primal-dual point z = (x, lam, mu_l, mu_r); strictly interior.

    The constructor enforces finite 1-D blocks of matching lengths,
    ``||x||_inf < 1`` and ``mu_l, mu_r > 0`` componentwise, and copies the
    blocks into one read-only N-vector, of which ``x``, ``lam``, ``mu_l`` and
    ``mu_r`` are views: an Iterate never aliases its inputs and cannot be
    written to.
    """

    x: np.ndarray
    lam: np.ndarray
    mu_l: np.ndarray
    mu_r: np.ndarray

    def __post_init__(self):
        x = as_vector(self.x, name="x")
        n = x.shape[0]
        lam = as_vector(self.lam, name="lam")
        mu_l = as_vector(self.mu_l, dim=n, name="mu_l")
        mu_r = as_vector(self.mu_r, dim=n, name="mu_r")
        if np.abs(x).max(initial=0.0) >= 1.0:
            raise InvalidProblem("iterate violates ||x||_inf < 1")
        if n and (mu_l.min() <= 0.0 or mu_r.min() <= 0.0):
            raise InvalidProblem("iterate violates mu_l, mu_r > 0")
        z = np.concatenate([x, lam, mu_l, mu_r])
        z.setflags(write=False)
        object.__setattr__(self, "_z", z)
        for name, block in zip(("x", "lam", "mu_l", "mu_r"), _blocks(z, n, lam.shape[0])):
            object.__setattr__(self, name, block)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.lam.shape[0]

    def as_array(self) -> np.ndarray:
        """z as a writable N-vector, a copy."""
        return self._z.copy()


@dataclass(frozen=True)
class Residual:
    """Blockwise value of F_tau: stationarity r1 (n), equality r2 (m),
    left/right complementarity r3, r4 (n each)."""

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray

    @property
    def eq_norm(self) -> float:
        """2-norm of the stacked (r1, r2) blocks, by one dot as the solver takes it."""
        return _norm(np.concatenate([self.r1, self.r2]))

    @property
    def comp_norm(self) -> float:
        """2-norm of the stacked (r3, r4) blocks, by one dot as the solver takes it."""
        return _norm(np.concatenate([self.r3, self.r4]))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.r1, self.r2, self.r3, self.r4])


def _norm(v: np.ndarray) -> float:
    # ndarray.dot is cblas_ddot, as @ is on vectors, at half the call cost
    return math.sqrt(v.dot(v))


def _interior_x(p: BoxQP, x) -> np.ndarray:
    x = as_vector(x, dim=p.n, name="x")
    if np.abs(x).max() >= 1.0 - DOMAIN_MARGIN:
        raise OutOfDomain(
            f"barrier evaluation requires ||x||_inf < 1 - 4*eps, got {np.abs(x).max()!r}"
        )
    return x


def eval_f(p: BoxQP, mp, x) -> float:
    """Primal barrier value f(x); raises OutOfDomain near the box boundary."""
    x = _interior_x(p, x)
    barrier = np.log1p(x) + np.log1p(-x)
    return float(eval_q_omega(p, mp.omega, x) / mp.tau_A - barrier.sum())


def eval_grad_f(p: BoxQP, mp, x) -> np.ndarray:
    """Gradient of f: (Qx + omega x + c + A'(Ax-b)/omega)/tau_A - (1/(e+x) - 1/(e-x))."""
    x = _interior_x(p, x)
    quad = p.Q @ x + mp.omega * x + p.c + (p.A.T @ (p.A @ x - p.b)) / mp.omega
    return quad / mp.tau_A - (1.0 / (1.0 + x) - 1.0 / (1.0 - x))


def eval_hess_f(p: BoxQP, mp, x) -> np.ndarray:
    """Hessian of f: (Q + omega I + A'A/omega)/tau_A + diag((e+x)^-2 + (e-x)^-2).

    Symmetric positive definite on the open box; on ||x||_2 <= 0.5 it
    satisfies I <= hess <= C_Hf * I.
    """
    x = _interior_x(p, x)
    quad = q_omega_data(p, mp.omega)[0] / mp.tau_A
    diag = (1.0 + x) ** -2 + (1.0 - x) ** -2
    h = 0.5 * (quad + quad.T)
    h[np.diag_indices(p.n)] += diag
    return h


def _blocks(v: np.ndarray, n: int, m: int) -> tuple[np.ndarray, ...]:
    """The four blocks of an N-vector laid out like z = (x, lam, mu_l, mu_r), as views."""
    nm = n + m
    return v[:n], v[n:nm], v[nm : nm + n], v[nm + n :]


def _check_tau(tau: float) -> None:
    if not tau > 0.0:
        raise InvalidProblem(f"tau must be positive, got {tau!r}")


def _affine_rows(p: BoxQP, omega: float) -> np.ndarray:
    """T, the top n+m rows of DF: [[Q + omega I, -A', -I, I], [A, omega I, 0, 0]],
    C-ordered, so that (r1, r2) = T z + (c, -b)."""
    n, m = p.n, p.m
    T = np.zeros((n + m, 3 * n + m))
    T[:n, :n] = p.Q
    T[:n, n : n + m] = -p.A.T
    T[n:, :n] = p.A
    _diagonal(T, 0, 0, n)[:] += omega  # Q + omega I
    _diagonal(T, 0, n + m, n)[:] = -1.0
    _diagonal(T, 0, 2 * n + m, n)[:] = 1.0
    _diagonal(T, n, n, m)[:] = omega
    return T


def eval_F(p: BoxQP, mp, z: Iterate, tau: float) -> Residual:
    """Optimality function F_tau(z), blockwise."""
    _check_tau(tau)
    ws = _Workspace(p, mp)
    ws.load(z)
    ws.eval_F(tau)
    return Residual(ws.r1, ws.r2, ws.r3, ws.r4)


def _diagonal(J: np.ndarray, row: int, col: int, size: int) -> np.ndarray:
    """The diagonal of the size x size block of a C- or F-contiguous ``J``
    whose top-left entry is J[row, col], as a writable view."""
    if J.flags.c_contiguous:
        lead = J.shape[1]
        return J.reshape(-1)[row * lead + col :: lead + 1][:size]
    lead = J.shape[0]
    return J.T.reshape(-1)[col * lead + row :: lead + 1][:size]


def eval_DF(p: BoxQP, mp, z: Iterate) -> np.ndarray:
    """Jacobian of F at z (independent of tau), shape (N, N) with N = 3n + m:
    T on top of the mu block rows [[diag(mu_l), 0, diag(e+x), 0],
    [-diag(mu_r), 0, 0, diag(e-x)]]."""
    if z.n != p.n or z.m != p.m:
        raise DimensionError("iterate dimensions do not match the problem")
    n, nm = p.n, p.n + p.m
    J = np.zeros((3 * n + p.m, 3 * n + p.m))
    J[:nm] = _affine_rows(p, mp.omega)
    _diagonal(J, nm, 0, n)[:] = z.mu_l
    np.add(1.0, z.x, out=_diagonal(J, nm, nm, n))
    np.negative(z.mu_r, out=_diagonal(J, nm + n, 0, n))
    np.subtract(1.0, z.x, out=_diagonal(J, nm + n, nm + n, n))
    return J


class _Workspace:
    """Preallocated buffers for the primal-dual Newton steps of one problem.

    Built once per solve (and once per call of a public step function) and
    dropped with it.  It holds one primal-dual state, which every step
    updates in place: ``z`` is one N-vector; ``x``, ``lam``, ``mu_l``,
    ``mu_r`` and ``mu`` = (mu_l, mu_r) are views of it.  ``e`` = (e+x, e-x),
    with views ``e_l`` and ``e_r``, follows z in one buffer, so that
    ``mu_e`` = (mu, e) is one view; ``margin`` is its minimum, the interior
    margin, as :meth:`load` or the solver's update last set it.  ``mue`` =
    mu∘e is a 2n-vector (:meth:`derive_e`, :meth:`derive_mue`).  ``F`` is
    one N-vector with views
    ``r1``, ``r2``, ``r3``, ``r4``, ``r12`` = (r1, r2) and ``r34`` = (r3, r4);
    ``eq_norm`` and ``comp_norm`` are the norms of r12 and r34 as
    :meth:`eval_F` last wrote them.  Next to the state it holds T and
    cb = (c, -b) of the residual, the reduced Newton matrix, the step ``dz``
    and scratch vectors, each with the views a step reads, so that a step
    slices nothing.

    The mu block rows ``mu_l*dx + (e+x)*dmu_l = g3`` and
    ``-mu_r*dx + (e-x)*dmu_r = g4`` of ``DF dz = g`` give dmu_l and dmu_r in
    closed form; substituting them into the stationarity row, and negating
    the equality row, leaves the symmetric (n+m) x (n+m) system

        [[Q + omega I + diag(mu_l/(e+x) + mu_r/(e-x)), -A'],
         [-A,                                        -omega I]] (dx, dlam)
            = (g1 + g3/(e+x) - g4/(e-x), -g2)

    in ``H``, which :meth:`newton` solves with
    :func:`~boxipm.linalg.solve_symmetric`.  Its matrix is quasi-definite:
    the Q block is positive definite and the last block negative definite.
    ``H`` is the first n+m columns of T with the equality rows negated, and
    the diagonal of its Q block is rewritten per step from ``qdiag``, the
    diagonal of Q + omega I; the solve never writes to ``H``, so the rest is
    written once, here.  The solve reads only the upper triangle, which
    is all of ``H``, since ``BoxQP`` stores Q exactly symmetric.  ``H`` is
    Fortran-ordered, so LAPACK copies it without a transpose.  ``sign`` is
    -1 on the stationarity and complementarity rows and +1 on the equality
    rows: ``sign * F`` is -F with the equality rows negated once more.

    A ``traced`` workspace also writes ``cond`` in each :meth:`newton`: the
    exact kappa_1 of the DF that the step solves where the step starts,
    from the factor of ``H`` that the solve returns (:meth:`_cond_DF`).
    """

    def __init__(self, p: BoxQP, mp, traced: bool = False):
        n, m = p.n, p.m
        nm, N = n + m, 3 * n + m
        self.p, self.mp, self.n, self.m = p, mp, n, m
        ze = np.empty(N + 2 * n)
        self.z, self.e, self.mu_e = ze[:N], ze[N:], ze[nm:]
        self.x, self.lam, self.mu_l, self.mu_r = _blocks(self.z, n, m)
        self.mu = self.z[nm:]
        self.e_l, self.e_r = self.e[:n], self.e[n:]
        self.margin = math.nan
        self.mue = np.empty(2 * n)
        self.F = np.empty(N)
        self.r1, self.r2, self.r3, self.r4 = _blocks(self.F, n, m)
        self.r12, self.r34 = self.F[:nm], self.F[nm:]
        self.eq_norm = self.comp_norm = math.nan
        self.T = _affine_rows(p, mp.omega)
        self.cb = np.concatenate([p.c, -p.b])
        self.H = np.array(self.T[:, :nm], order="F")  # a copy, also when n + m = 1
        np.negative(self.H[n:], out=self.H[n:])
        self.hdiag = _diagonal(self.H, 0, 0, n)
        self.qdiag = self.hdiag.copy()
        # Weights of the sums that newton tests (G and v) and the solver
        # tests (dz) for finiteness: each sum is at most half the largest
        # |entry|, so finite entries never overflow it, and ndarray.dot,
        # which warns on an overflow, stays silent.
        self.half_mean = np.full(N, 0.5 / N)
        self.half_mean_x, self.half_mean_u = self.half_mean[:n], self.half_mean[:nm]
        self.sign = np.full(N, -1.0)
        self.sign[n:nm] = 1.0
        self.t = np.empty(2 * n)  # g34/e
        self.t_l, self.t_r = self.t[:n], self.t[n:]
        self.w = np.empty(2 * n)  # mu/e
        self.w_l, self.w_r, self.w2 = self.w[:n], self.w[n:], self.w.reshape(2, n)
        # dz holds the right-hand side until each block is overwritten by its step
        self.dz = np.empty(N)
        self.dz_x, self.dz_u, self.dz_mu = self.dz[:n], self.dz[:nm], self.dz[nm:]
        dmu = self.dz_mu
        self.dmu_l, self.dmu_r, self.dmu2 = dmu[:n], dmu[n:], dmu.reshape(2, n)
        # Totals of the repairs the solver's updates make in the state.
        self.x_clipped = self.mu_reset = 0
        self.traced, self.cond = traced, math.nan
        if traced:
            self.tcol = np.abs(self.T).sum(axis=0)  # the column 1-norms of T
            self.df_cols = self.tcol.copy()  # the lam columns are T's alone
            self.inv_cols = np.empty(N)
            self.s1 = np.ones(nm)
            self.e2 = self.e.reshape(2, n)

    def load(self, z: Iterate) -> None:
        """Copy ``z`` in, after checking its dimensions, and derive e, mu∘e
        and the margin."""
        if z.n != self.n or z.m != self.m:
            raise DimensionError("iterate dimensions do not match the problem")
        np.copyto(self.z, z._z)
        self.derive_e()
        self.derive_mue()
        self.margin = float(self.mu_e.min())

    def derive_e(self) -> None:
        np.add(1.0, self.x, out=self.e_l)
        np.subtract(1.0, self.x, out=self.e_r)

    def derive_mue(self) -> None:
        np.multiply(self.mu, self.e, out=self.mue)

    def iterate(self) -> Iterate:
        """z as an Iterate, a copy."""
        return Iterate(self.x, self.lam, self.mu_l, self.mu_r)

    def eval_F(self, tau: float) -> None:
        """Write F_tau at z into ``F`` and its block norms: (r1, r2) = T z + cb
        and (r3, r4) = mu∘e - tau."""
        r12, r34 = self.r12, self.r34
        np.matmul(self.T, self.z, out=r12)
        np.add(r12, self.cb, out=r12)
        np.subtract(self.mue, tau, out=r34)
        self.eq_norm = _norm(r12)
        self.comp_norm = _norm(r34)

    def retarget(self, tau: float) -> None:
        """Move ``F`` to another tau: r1 and r2 do not depend on it, and
        r3, r4 = mu∘e - tau as in :meth:`eval_F`, so ``F`` is bit-identical
        to a fresh evaluation.  ``comp_norm`` is left NaN."""
        np.subtract(self.mue, tau, out=self.r34)
        self.comp_norm = math.nan

    def newton(self, reset_only: bool) -> np.ndarray:
        """The Newton step dz with DF(z) dz = g, where g = -F or, with
        ``reset_only``, -F with its complementarity blocks replaced by zeros
        (which by linearity cancels the (r1, r2) blocks exactly).

        Returns the workspace's ``dz`` buffer, which the next call
        overwrites.  The reduced system is one
        :func:`~boxipm.linalg.solve_symmetric` call on ``H``, which
        overwrites the right-hand side in ``dz`` with (dx, dlam) and rejects
        only an exactly zero pivot: near tau_E the a-priori conditioning
        bound kappa_DF exceeds 1/(dim*eps), so a relative pivot test would
        misflag theory-valid systems as singular.  The Q block's diagonal
        and the right-hand side are all of the system that changes per
        step; if either overflowed, InvalidProblem names it (G or v).  In a
        traced workspace it also writes ``cond`` (:meth:`_cond_DF`).
        """
        t_l, t_r, w_l, w_r, dx = self.t_l, self.t_r, self.w_l, self.w_r, self.dz_x
        np.multiply(self.sign, self.F, out=self.dz)  # (g1, -g2, g3, g4)
        if reset_only:
            self.dz_mu.fill(-0.0)
        # v = ((g1 + g3/(e+x)) - g4/(e-x), -g2), written over (dx, dlam)
        np.divide(self.dz_mu, self.e, out=self.t)
        np.add(dx, t_l, out=dx)
        np.subtract(dx, t_r, out=dx)
        # the Q block's diagonal: ((Q_jj + omega) + mu_l/(e+x)) + mu_r/(e-x)
        np.divide(self.mu, self.e, out=self.w)
        np.add(self.qdiag, w_l, out=self.hdiag)
        np.add(self.hdiag, w_r, out=self.hdiag)
        # One finite sum clears both; otherwise the elementwise tests name
        # the culprit.
        if not math.isfinite(self.hdiag.dot(self.half_mean_x) + self.dz_u.dot(self.half_mean_u)):
            # a sum of finite terms and nonnegative w: finite or +inf, never NaN
            if not self.hdiag.max() < math.inf:
                raise InvalidProblem("G contains non-finite entries")
            if not np.isfinite(self.dz_u).all():
                raise InvalidProblem("v contains non-finite entries")
        _, ldu, ipiv = solve_symmetric(self.H, self.dz_u)
        if self.traced:
            self.cond = self._cond_DF(ldu, ipiv)
        # dmu = g34/e - w∘(dx, -dx): g3/(e+x) - w_l*dx and g4/(e-x) + w_r*dx
        np.multiply(self.w2, dx, out=self.dmu2)
        np.subtract(t_l, self.dmu_l, out=self.dmu_l)
        np.add(t_r, self.dmu_r, out=self.dmu_r)
        return self.dz

    def _cond_DF(self, ldu: np.ndarray, ipiv: np.ndarray) -> float:
        """kappa_1 = ||DF||_1 ||DF^-1||_1 of the DF the step solves, at the
        state where it starts, from the factor (ldu, ipiv) of ``H``; inf if
        it overflows.  ``ldu`` is overwritten.

        With Y = H^-1 (:func:`~boxipm.linalg.symmetric_inverse`) and
        s = (w_l + w_r, 0), the block elimination of :meth:`newton` gives
        every column of DF^-1: column j of the x or lam block is
        +-(Y_j, -w_l∘Y_xj, w_r∘Y_xj), of 1-norm c_j = ((1 + s)'|Y|)_j, and
        column j of the mu_l block is column j of the x block over e_l,j
        with its own mu_l entry (1 - w_l,j Y_jj)/e_l,j instead, of 1-norm
        (c_j - w_l,j |Y_jj| + |1 - w_l,j Y_jj|)/e_l,j; the mu_r block is
        alike with w_r and e_r.  The subtraction loses nothing that the sum
        does not keep: when w_l,j |Y_jj| >= 1 the sum is at least c_j - 1.
        The column 1-norms of DF are those of T plus (mu_l + mu_r, 0, e).
        """
        n, nm = self.n, self.n + self.m
        Y = symmetric_inverse(ldu, ipiv)
        wy = self.w2 * Y.diagonal()[:n]  # (w_l∘Y_jj, w_r∘Y_jj) of the x block
        absY = np.abs(Y, out=Y)
        s1 = self.s1  # 1 + s
        np.add(1.0, self.w_l, out=s1[:n])
        np.add(s1[:n], self.w_r, out=s1[:n])
        inv_cols, mu_cols = self.inv_cols, self.inv_cols[nm:].reshape(2, n)
        np.matmul(absY, s1, out=inv_cols[:nm])  # Y is symmetric: row sums are column sums
        np.abs(wy, out=mu_cols)
        np.subtract(inv_cols[:n], mu_cols, out=mu_cols)
        np.subtract(1.0, wy, out=wy)
        np.abs(wy, out=wy)
        np.add(mu_cols, wy, out=mu_cols)
        np.divide(mu_cols, self.e2, out=mu_cols)
        df_cols = self.df_cols
        np.add(self.tcol[:n], self.mu_l, out=df_cols[:n])
        np.add(df_cols[:n], self.mu_r, out=df_cols[:n])
        np.add(self.tcol[nm:], self.e, out=df_cols[nm:])
        kappa = df_cols.max() * inv_cols.max()
        return float(kappa) if kappa < math.inf else math.inf
