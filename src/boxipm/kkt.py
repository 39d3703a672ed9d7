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
and scratch vectors, all preallocated, so a step
(``boxipm.solver._step``) is a fixed sequence of in-place operations
that updates the state where it is, one call of the compiled step
(:mod:`boxipm._cstep`).  The residual is one compiled function too: the
step evaluates it at its new iterate, and :meth:`_Workspace.eval_F`
calls it from Python, for :func:`eval_F`, in a workspace that takes no
step, and for the lift point of a solve.  A workspace builds its struct
for the compiled code at its first step or evaluation, which loads the
compiled module, and with it the LAPACK and BLAS library that scipy
links, in a process that has not loaded them yet; building a workspace
loads nothing.  The trace's condition number of DF
is assembled by :func:`cond_DF`, for a batch of steps at once, from the
factors of the reduced matrix that the steps' solves returned, so no
N x N matrix is built in a solve; :func:`eval_DF` builds DF for callers
outside the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _cstep
from .errors import DimensionError, InvalidProblem, OutOfDomain
from .linalg import EPS_MACH, as_vector, symmetric_inverse
from .problem import BoxQP, q_omega_data

# Barrier evaluations are rejected this close to the box boundary: the log of
# a smaller margin would round into +/-inf downstream.
DOMAIN_MARGIN = 4.0 * EPS_MACH

# The constant operand of e = (1 + x, 1 - x), as a 0-d array: numpy
# converts a Python float per call.
_ONE = np.ones(())
_ONE.setflags(write=False)

# Largest representable strictly-interior coordinate.  A step carries
# e = (1 + x, 1 - x) itself, so its distance to a face may be far below the
# spacing of x near 1, where x rounds onto the face or past it; the x
# handed out (:meth:`_Workspace.rounded_x`) is rounded to this.
_X_MAX = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class Iterate:
    """Primal-dual point z = (x, lam, mu_l, mu_r); strictly interior.

    The constructor enforces finite 1-D blocks of matching lengths, n >= 1,
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
        if n == 0:
            raise DimensionError("x must have at least one entry: n = 0")
        lam = as_vector(self.lam, name="lam")
        mu_l = as_vector(self.mu_l, dim=n, name="mu_l")
        mu_r = as_vector(self.mu_r, dim=n, name="mu_r")
        if np.abs(x).max() >= 1.0:
            raise InvalidProblem("iterate violates ||x||_inf < 1")
        if mu_l.min() <= 0.0 or mu_r.min() <= 0.0:
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
    left/right complementarity r3, r4 (n each), and the 2-norms of the
    stacked (r1, r2) and (r3, r4) blocks, each the square root of one BLAS
    ddot, as a step's post-check takes it."""

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray
    eq_norm: float
    comp_norm: float

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.r1, self.r2, self.r3, self.r4])


def _interior_x(p: BoxQP, x) -> np.ndarray:
    x = as_vector(x, dim=p.n, name="x")
    if np.abs(x).max() >= 1.0 - DOMAIN_MARGIN:
        raise OutOfDomain(
            f"barrier evaluation requires ||x||_inf < 1 - 4*eps, got {np.abs(x).max()!r}"
        )
    return x


def eval_grad_f(p: BoxQP, mp, x) -> np.ndarray:
    """Gradient of f: (Qx + omega x + c + A'(Ax-b)/omega)/tau_A - (1/(e+x) - 1/(e-x))."""
    x = _interior_x(p, x)
    quad = p.Q @ x + mp.omega * x + p.c + (p.A.T @ (p.A @ x - p.b)) / mp.omega
    return quad / mp.tau_A - (1.0 / (1.0 + x) - 1.0 / (1.0 - x))


def eval_hess_f(p: BoxQP, mp, x) -> np.ndarray:
    """Hessian of f: (Q + omega I + A'A/omega)/tau_A + diag((e+x)^-2 + (e-x)^-2).

    Symmetric positive definite on the open box; on ||x||_2 <= 0.5 it
    satisfies I <= hess <= C_Hf * I.  It is exactly symmetric as built:
    ``BoxQP`` stores Q mirrored, and BLAS forms A'A as one symmetric
    product.
    """
    x = _interior_x(p, x)
    h = q_omega_data(p, mp.omega)[0] / mp.tau_A
    h[np.diag_indices(p.n)] += (1.0 + x) ** -2 + (1.0 - x) ** -2
    return h


def _blocks(v: np.ndarray, n: int, m: int) -> tuple[np.ndarray, ...]:
    """The four blocks of an N-vector laid out like z = (x, lam, mu_l, mu_r), as views."""
    nm = n + m
    return v[:n], v[n:nm], v[nm : nm + n], v[nm + n :]


def _affine_rows(p: BoxQP, omega: float) -> np.ndarray:
    """T, the top n+m rows of DF: [[Q + omega I, -A', -I, I], [A, omega I, 0, 0]],
    C-ordered, so that (r1, r2) = T z + (c, -b)."""
    n, nm = p.n, p.n + p.m
    T = np.zeros((nm, 3 * n + p.m))
    T[:n, :n] = p.Q
    np.fill_diagonal(T[:n, :n], p.Q.diagonal() + omega)  # Q + omega I
    T[:n, n:nm] = -p.A.T
    np.fill_diagonal(T[:n, nm : nm + n], -1.0)
    np.fill_diagonal(T[:n, nm + n :], 1.0)
    T[n:, :n] = p.A
    np.fill_diagonal(T[n:, n:nm], omega)
    return T


def eval_F(p: BoxQP, mp, z: Iterate, tau: float) -> Residual:
    """Optimality function F_tau(z), blockwise, with its block norms, as
    :meth:`_Workspace.eval_F` writes them; tau must be a positive finite
    real."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise InvalidProblem(f"tau must be a positive finite real, got {tau!r}")
    ws = _Workspace(p, mp)
    ws.load(z)
    ws.eval_F(tau)
    return Residual(ws.r1, ws.r2, ws.r3, ws.r4, ws.eq_norm, ws.comp_norm)


def eval_DF(p: BoxQP, mp, z: Iterate) -> np.ndarray:
    """Jacobian of F at z (independent of tau), shape (N, N) with N = 3n + m:
    T on top of the mu block rows [[diag(mu_l), 0, diag(e+x), 0],
    [-diag(mu_r), 0, 0, diag(e-x)]]."""
    if z.n != p.n or z.m != p.m:
        raise DimensionError("iterate dimensions do not match the problem")
    n, nm = p.n, p.n + p.m
    J = np.zeros((3 * n + p.m, 3 * n + p.m))
    J[:nm] = _affine_rows(p, mp.omega)
    rows_l, rows_r = J[nm : nm + n], J[nm + n :]
    np.fill_diagonal(rows_l[:, :n], z.mu_l)
    np.fill_diagonal(rows_l[:, nm : nm + n], 1.0 + z.x)
    np.fill_diagonal(rows_r[:, :n], -z.mu_r)
    np.fill_diagonal(rows_r[:, nm + n :], 1.0 - z.x)
    return J


class _Workspace:
    """Preallocated buffers for the primal-dual Newton steps of one problem.

    Built once per solve, or per :func:`eval_F` call, and dropped with it.
    It holds one primal-dual state, which every step updates in place:
    ``z`` is one N-vector; ``x``, ``lam``, ``mu_l``, ``mu_r`` and ``mu`` =
    (mu_l, mu_r) are views of it.  ``e`` = (e+x, e-x),
    with views ``e_l`` and ``e_r``, follows z in one buffer, ``ze``, so that
    ``mu_e`` = (mu, e) is one view.  e is part of the state: :meth:`load`
    derives it from the iterate, the one place that does, and every step
    adds (dx, -dx) to it, so that it keeps a distance to a face below the
    spacing of x near 1 (ulp(1)/2 = 1.1e-16), where x itself rounds onto the
    face; it stays within rounding of 1 +- x.  A step whose margin, the
    minimum of (mu, e), is not positive is rejected.  ``mue`` = mu∘e is a
    2n-vector, which :meth:`eval_F` writes, and ``ones`` a 2n-vector of
    ones, the operand that subtracts tau by one BLAS daxpy.
    :meth:`rounded_x` is x rounded into the open box, as a solve reports
    it.  ``F`` is one N-vector with views ``r1``, ``r2``, ``r3``, ``r4``,
    ``r12`` = (r1, r2) and ``r34`` = (r3, r4); :meth:`eval_F` writes it,
    and a path step rewrites r34 at its own tau before it reads ``F``.
    ``eq_norm`` and ``comp_norm`` are the norms of r12 and r34 as the
    residual last wrote them (NaN before).  Next to the state it holds T
    and cb = (c, -b) of the residual, the reduced Newton matrix, the step
    and scratch vectors, each with views of its blocks.  The step
    ``dz``, with views ``dz_x`` and ``dz_mu``, is followed in one buffer,
    ``dze``, by ``de`` = (dx, -dx), as z is by e, so that one addition of
    ``dze`` to ``ze`` moves the state.  The step itself is
    ``boxipm.solver._step``, one call of compiled code that reads and
    writes these buffers through ``c``, a struct of their addresses, of
    the sizes and of the step's counts, which :meth:`bind` builds at the
    first step or residual (``None`` until then), with ``lib``, the
    compiled module.  So building a workspace loads nothing.  ``ldu`` and
    ``ipiv`` hold the Bunch-Kaufman factor of ``H`` that the last
    factoring step computed, and ``work`` is its dsysv workspace; each
    factoring step overwrites them.  ``factor`` is (``ldu``, ``ipiv``)
    while they hold a factor, ``None`` after :meth:`load`, and
    ``factorizations`` counts those steps.  ``held_steps`` counts the
    steps other than error resets that have solved on the held
    ``factor`` since it was computed, 0 after :meth:`load`, and
    ``held_limit`` is how many such steps one factor may serve (the
    solver sets it per mode; 0, the default, makes every step but a reset
    factor); ``_step`` reads all three to decide which steps solve on the
    held ``factor``.  ``factor``, ``factorizations``, ``held_steps`` and
    the norms are read from ``c``.

    The mu block rows ``mu_l*dx + (e+x)*dmu_l = g3`` and
    ``-mu_r*dx + (e-x)*dmu_r = g4`` of ``DF dz = g`` give dmu_l and dmu_r in
    closed form; substituting them into the stationarity row, negating the
    equality row and scaling it and dlam by ``lam_scale`` = s, the power of
    two nearest 1/sqrt(omega), leaves the symmetric (n+m) x (n+m) system

        [[Q + omega I + diag(mu_l/(e+x) + mu_r/(e-x)), -s A'],
         [-s A,                               -s^2 omega I]] (dx, dlam/s)
            = (g1 + g3/(e+x) - g4/(e-x), -s g2)

    in ``H``, which a step solves by Bunch-Kaufman (LAPACK dsysv).  Its
    matrix is quasi-definite: the Q block is positive definite and the last
    block lies in [-2I, -I/2].  s is a power of two, so the scaling is exact;
    without it, on scaled data (omega near 1e-16, mu/e up to 1e57),
    Bunch-Kaufman loses the omega block to the rounding of its Schur
    complement and returns a dx with no correct digit.  ``H`` is the first
    n+m columns of T with the equality rows negated and the lam rows and
    columns scaled, and the diagonal of its Q block is rewritten per
    step from ``qdiag``, the diagonal of Q + omega I; the solve never writes
    to ``H``, so the rest is written once, here.  The solve reads only the
    upper triangle, which is all of ``H``, since ``BoxQP`` stores Q exactly
    symmetric.  ``H`` is Fortran-ordered, so LAPACK copies it without a
    transpose.  ``sign`` is -1 on the stationarity and complementarity rows
    and s on the equality rows: ``sign * F`` is -F with the equality rows
    negated once more and scaled.  ``t`` = g34/e and ``w`` = mu/e are the
    step's scratch; a later step on a factoring step's factor derives its
    dmu from the ``w`` that step left.

    The workspace holds nothing for the trace: a traced solve's recorder
    (``boxipm.solver._Recorder``) copies ``ze``, ``dz`` and a new
    ``factor``, pivots included, after each step and builds the rows per
    batch, with :func:`cond_DF` for the condition numbers and the minimum
    of each copied (mu, e) for the interior margins.
    """

    def __init__(self, p: BoxQP, mp, held_limit: int = 0):
        n, m = p.n, p.m
        nm, N = n + m, 3 * n + m
        self.p, self.mp, self.n, self.m = p, mp, n, m
        self.ze = ze = np.empty(N + 2 * n)
        self.z, self.e, self.mu_e = ze[:N], ze[N:], ze[nm:]
        self.x, self.lam, self.mu_l, self.mu_r = _blocks(self.z, n, m)
        self.mu = self.z[nm:]
        self.e_l, self.e_r = self.e[:n], self.e[n:]
        self.mue = np.empty(2 * n)
        self.ones = np.ones(2 * n)
        self.F = np.empty(N)
        self.r1, self.r2, self.r3, self.r4 = _blocks(self.F, n, m)
        self.r12, self.r34 = self.F[:nm], self.F[nm:]
        self.T = _affine_rows(p, mp.omega)
        self.cb = np.concatenate([p.c, -p.b])
        self.lam_scale = s = np.full((), math.ldexp(1.0, round(-0.5 * math.log2(mp.omega))))
        self.H = np.array(self.T[:, :nm], order="F")  # a copy, also when n + m = 1
        np.multiply(self.H[n:], -s, self.H[n:])
        np.multiply(self.H[:, n:], s, self.H[:, n:])
        self.qdiag = self.H.diagonal()[:n].copy()
        self.sign = np.full(N, -1.0)
        self.sign[n:nm] = s
        self.t = np.empty(2 * n)  # g34/e
        self.w = np.empty(2 * n)  # mu/e
        # dz holds the right-hand side until each block is overwritten by its
        # step; de = (dx, -dx) follows it, as e follows z
        self.dze = np.empty(N + 2 * n)
        self.dz, self.de = self.dze[:N], self.dze[N:]
        self.dz_x, self.dz_mu = self.dz[:n], self.dz[nm:]
        self.ldu = np.empty((nm, nm), order="F")
        self.ipiv = np.empty(nm, dtype=np.intc)
        self.work = np.empty(nm)  # dsysv's, of lwork = n + m
        self.held_limit = held_limit
        self.c = None

    def bind(self):
        """The workspace's struct of the compiled step (:mod:`boxipm._cstep`),
        built at the first step or residual, which loads the module: the
        sizes, s and ``held_limit``, and the address of each buffer, each
        checked to be one contiguous run of its C type."""
        ffi, lib = _cstep.load()
        c = ffi.new("boxipm_ws *")
        c.n, c.m, c.held_limit, c.s = self.n, self.m, self.held_limit, float(self.lam_scale)
        for name in ("ze", "F", "mue", "ones", "sign", "dze", "t", "w", "H", "qdiag", "T", "cb",
                     "ldu", "work", "ipiv"):
            a = getattr(self, name)
            order = "F_CONTIGUOUS" if name in ("H", "ldu") else "C_CONTIGUOUS"
            dtype = np.intc if name == "ipiv" else np.float64
            if not a.flags[order] or a.dtype != dtype:
                raise ValueError(f"workspace buffer {name} is not {order} {dtype.__name__}")
            setattr(c, name, _cstep.ptr(ffi, a))
        self.c, self.lib = c, lib
        return c

    @property
    def factor(self):
        """(``ldu``, ``ipiv``), the factor of ``H`` that the last factoring
        step left, or None."""
        return (self.ldu, self.ipiv) if self.c is not None and self.c.has_factor else None

    @property
    def factorizations(self) -> int:
        return 0 if self.c is None else self.c.factorizations

    @property
    def held_steps(self) -> int:
        return 0 if self.c is None else self.c.held_steps

    @property
    def eq_norm(self) -> float:
        return math.nan if self.c is None else self.c.eq_norm

    @property
    def comp_norm(self) -> float:
        return math.nan if self.c is None else self.c.comp_norm

    def load(self, z: Iterate) -> None:
        """Copy ``z`` in, after checking its dimensions, and derive e; the
        next step factors its own matrix."""
        if z.n != self.n or z.m != self.m:
            raise DimensionError("iterate dimensions do not match the problem")
        np.copyto(self.z, z._z)
        if self.c is not None:
            self.c.has_factor = self.c.held_steps = 0
        np.add(_ONE, self.x, self.e_l)
        np.subtract(_ONE, self.x, self.e_r)

    def rounded_x(self) -> np.ndarray:
        """x rounded into the open box, to |x_j| <= nextafter(1, 0), a copy."""
        return np.clip(self.x, -_X_MAX, _X_MAX)

    def eval_F(self, tau: float) -> None:
        """Write F_tau at z into ``F`` and its block norms: (r1, r2) = T z + cb
        and (r3, r4) = mu∘e - tau, with mu∘e into ``mue``.

        One C call (``boxipm_eval_F`` of :mod:`boxipm._cstep`): T z by one
        BLAS dgemv on the C-ordered T, as Fortran's transpose, or by one
        ddot when T is one row, as numpy's ``T.dot`` makes them; the
        addition of cb as a daxpy with a = 1; mu∘e as a loop; the
        subtraction of tau as a copy of mu∘e and a daxpy of ``ones`` with
        a = -tau; and each norm the square root of one ddot.
        """
        c = self.c if self.c is not None else self.bind()
        self.lib.boxipm_eval_F(c, tau)


def cond_DF(ws: _Workspace, factors: np.ndarray, ipivs, mu_e: np.ndarray) -> np.ndarray:
    """kappa_1 = ||DF||_1 ||DF^-1||_1 of a batch of DFs, each the Jacobian
    that a factoring step of :class:`_Workspace` solves, from the factor of
    its reduced matrix ``H``; inf where it overflows.

    ``ws`` is the workspace whose steps returned the factors, read for its
    T and s; ``factors`` is a stack (F, d, d) of the factors ``ldu`` of the
    F matrices ``H``, each Fortran-ordered, which is overwritten, and
    ``ipivs`` their F pivot arrays; row i of ``mu_e`` (F, 4n) is (mu, e) at
    the point where step i starts.

    With Y = S H^-1 S, the inverse of the unscaled matrix, for
    S = diag(I, s I) (:func:`~boxipm.linalg.symmetric_inverse`, then two
    exact products), w = mu/e and h = (w_l + w_r, 0), the block
    elimination of the step gives every column of DF^-1: column j of the x
    or lam block is +-(Y_j, -w_l∘Y_xj, w_r∘Y_xj), of 1-norm
    c_j = ((1 + h)'|Y|)_j, and
    column j of the mu_l block is column j of the x block over e_l,j with
    its own mu_l entry (1 - w_l,j Y_jj)/e_l,j instead, of 1-norm
    (c_j - w_l,j |Y_jj| + |1 - w_l,j Y_jj|)/e_l,j; the mu_r block is alike
    with w_r and e_r.  The subtraction loses nothing that the sum does not
    keep: when w_l,j |Y_jj| >= 1 the sum is at least c_j - 1.  The column
    1-norms of DF are those of T plus (mu_l + mu_r, 0, e).

    Each operation runs once over the whole batch and gives every item the
    bits that it gives one point: w by the step's own divide, the row sums
    of |Y| by one matmul over the C-ordered stack of the symmetric
    inverses, which makes one BLAS gemv per item in the orientation of a C
    matrix (the two orientations sum in different orders), and the maxima,
    which are exact in any order.  Constants are 0-d arrays, as in
    ``boxipm.solver._step``.
    """
    F, d = factors.shape[:2]
    n = mu_e.shape[1] // 4
    N = d + 2 * n
    # C-ordered: each F-ordered inverse seen transposed, which it equals.
    Y = symmetric_inverse(factors, ipivs).transpose(0, 2, 1)
    np.multiply(Y[:, n:], ws.lam_scale, Y[:, n:])
    np.multiply(Y[:, :, n:], ws.lam_scale, Y[:, :, n:])
    mu, e = mu_e[:, : 2 * n], mu_e[:, 2 * n :]
    w = np.divide(mu, e)
    w_l, w_r = w[:, :n], w[:, n:]
    wy = np.multiply(w.reshape(F, 2, n), Y.diagonal(0, 1, 2)[:, None, :n])  # w∘Y_jj, x block
    np.abs(Y, Y)
    s1 = np.ones((F, d))  # 1 + h
    s1_x = s1[:, :n]
    np.add(_ONE, w_l, s1_x)
    np.add(s1_x, w_r, s1_x)
    cols = np.empty((2, F, N))  # the column 1-norms of each DF^-1 and DF
    inv, df = cols
    np.matmul(Y, s1[:, :, None], inv[:, :d, None])  # Y is symmetric: row sums are column sums
    mu_cols = inv[:, d:].reshape(F, 2, n)
    np.abs(wy, mu_cols)
    np.subtract(inv[:, None, :n], mu_cols, mu_cols)
    np.subtract(_ONE, wy, wy)
    np.abs(wy, wy)
    np.add(mu_cols, wy, mu_cols)
    np.divide(mu_cols, e.reshape(F, 2, n), mu_cols)
    tcol = np.abs(ws.T).sum(axis=0)
    df_x = df[:, :n]
    np.add(tcol[:n], mu[:, :n], df_x)
    np.add(df_x, mu[:, n:], df_x)
    df[:, n:d] = tcol[n:d]  # the lam columns are T's alone
    np.add(tcol[d:], e, df[:, d:])
    inv_max, df_max = np.maximum.reduce(cols, axis=2)
    kappa = np.multiply(df_max, inv_max)
    kappa[~(kappa < math.inf)] = math.inf
    return kappa
