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
are diagonal, so Newton systems on DF reduce exactly to (n+m) unknowns
(:class:`ReducedDF`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidProblem, OutOfDomain
from .linalg import EPS_MACH, as_vector
from .problem import BoxQP

# Barrier evaluations are rejected this close to the box boundary: the log of
# a smaller margin would round into +/-inf downstream.
DOMAIN_MARGIN = 4.0 * EPS_MACH


@dataclass(frozen=True)
class Iterate:
    """Primal-dual point z = (x, lam, mu_l, mu_r); strictly interior.

    The public constructor enforces finite 1-D blocks of matching lengths,
    ``||x||_inf < 1`` and ``mu_l, mu_r > 0`` componentwise; instances are
    immutable.  The solver's own Newton updates skip these checks through
    :meth:`_trusted`, because the update already establishes them (see
    ``boxipm.solver._advance``).
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
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu_l", mu_l)
        object.__setattr__(self, "mu_r", mu_r)

    @classmethod
    def _trusted(cls, x, lam, mu_l, mu_r) -> "Iterate":
        """An Iterate built without validation.  The caller guarantees float64
        1-D blocks of matching lengths, ``||x||_inf < 1`` and ``mu_l, mu_r > 0``;
        a block that may have overflowed to inf it checks itself (the solver
        does so on the residual at the result)."""
        z = object.__new__(cls)
        z.__dict__.update(x=x, lam=lam, mu_l=mu_l, mu_r=mu_r)
        return z

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.lam.shape[0]

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam, self.mu_l, self.mu_r])

    def interior_margin(self) -> float:
        """min over {1 - |x_j|, mu_l_j, mu_r_j}; positive iff strictly interior."""
        return float(
            min(
                (1.0 - np.abs(self.x)).min(initial=np.inf),
                self.mu_l.min(initial=np.inf),
                self.mu_r.min(initial=np.inf),
            )
        )


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
        """2-norm of the stacked (r1, r2) blocks."""
        return float(np.sqrt(self.r1 @ self.r1 + self.r2 @ self.r2))

    @property
    def comp_norm(self) -> float:
        """2-norm of the stacked (r3, r4) blocks."""
        return float(np.sqrt(self.r3 @ self.r3 + self.r4 @ self.r4))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.r1, self.r2, self.r3, self.r4])


def _interior_x(p: BoxQP, x) -> np.ndarray:
    x = as_vector(x, dim=p.n, name="x")
    if p.n and np.abs(x).max() >= 1.0 - DOMAIN_MARGIN:
        raise OutOfDomain(
            f"barrier evaluation requires ||x||_inf < 1 - 4*eps, got {np.abs(x).max()!r}"
        )
    return x


def eval_f(p: BoxQP, mp, x) -> float:
    """Primal barrier value f(x); raises OutOfDomain near the box boundary."""
    x = _interior_x(p, x)
    r = p.A @ x - p.b
    quad = 0.5 * x @ (p.Q @ x) + p.c @ x + 0.5 * mp.omega * (x @ x) + (r @ r) / (2.0 * mp.omega)
    barrier = np.log1p(x) + np.log1p(-x)
    return float(quad / mp.tau_A - barrier.sum())


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
    quad = (p.Q + mp.omega * np.eye(p.n) + (p.A.T @ p.A) / mp.omega) / mp.tau_A
    diag = (1.0 + x) ** -2 + (1.0 - x) ** -2
    h = 0.5 * (quad + quad.T)
    h[np.diag_indices(p.n)] += diag
    return h


def eval_F(p: BoxQP, mp, z: Iterate, tau: float) -> Residual:
    """Optimality function F_tau(z), blockwise."""
    if not tau > 0.0:
        raise InvalidProblem(f"tau must be positive, got {tau!r}")
    if z.n != p.n or z.m != p.m:
        raise DimensionError("iterate dimensions do not match the problem")
    x, lam, mu_l, mu_r = z.x, z.lam, z.mu_l, z.mu_r
    r1 = p.Q @ x + mp.omega * x + p.c - p.A.T @ lam - mu_l + mu_r
    r2 = p.A @ x - p.b + mp.omega * lam
    return Residual(r1, r2, *_comp_blocks(z, tau))


def _comp_blocks(z: Iterate, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The complementarity blocks (r3, r4) of F_tau(z)."""
    return z.mu_l * (1.0 + z.x) - tau, z.mu_r * (1.0 - z.x) - tau


def retarget_F(F: Residual, z: Iterate, tau: float) -> Residual:
    """F_tau(z) from ``F``, the value of F at z for another tau.

    r1 and r2 do not depend on tau and are reused; r3 and r4 are recomputed
    with the operations of :func:`eval_F`, so the result is bit-identical to
    ``eval_F(p, mp, z, tau)``.  Unchecked: z and tau are the caller's.
    """
    return Residual(F.r1, F.r2, *_comp_blocks(z, tau))


def _diagonal(J: np.ndarray, row: int, col: int, size: int) -> np.ndarray:
    """The diagonal of the size x size block of a C-contiguous ``J`` whose
    top-left entry is J[row, col], as a writable view."""
    N = J.shape[1]
    return J.reshape(-1)[row * N + col :: N + 1][:size]


def eval_DF(p: BoxQP, mp, z: Iterate) -> np.ndarray:
    """Jacobian of F at z (independent of tau), shape (N, N) with N = 3n + m.

    Q, -A' and A are copied into a zero matrix and the eight diagonal blocks
    written in place, with no identity or diagonal matrix formed.
    """
    if z.n != p.n or z.m != p.m:
        raise DimensionError("iterate dimensions do not match the problem")
    n, m = p.n, p.m
    J = np.zeros((3 * n + m, 3 * n + m))
    J[:n, :n] = p.Q
    J[:n, n : n + m] = -p.A.T
    J[n : n + m, :n] = p.A
    d = _diagonal(J, 0, 0, n)
    np.add(d, mp.omega, out=d)  # Q + omega I
    _diagonal(J, 0, n + m, n)[:] = -1.0
    _diagonal(J, 0, 2 * n + m, n)[:] = 1.0
    _diagonal(J, n, n, m)[:] = mp.omega
    _diagonal(J, n + m, 0, n)[:] = z.mu_l
    np.add(1.0, z.x, out=_diagonal(J, n + m, n + m, n))
    np.negative(z.mu_r, out=_diagonal(J, 2 * n + m, 0, n))
    np.subtract(1.0, z.x, out=_diagonal(J, 2 * n + m, 2 * n + m, n))
    return J


class ReducedDF:
    """DF at z with its two diagonal mu block rows eliminated exactly.

    The rows ``mu_l*dx + (e+x)*dmu_l = g3`` and ``-mu_r*dx + (e-x)*dmu_r = g4``
    of ``DF dz = g`` give dmu_l and dmu_r in closed form; substituting them
    into the stationarity row leaves the (n+m) x (n+m) system

        [[Q + omega I + diag(mu_l/(e+x) + mu_r/(e-x)), -A'],
         [A,                                          omega I]] (dx, dlam)
            = (g1 + g3/(e+x) - g4/(e-x), g2),

    held in ``matrix``.  :meth:`solve` takes a factorization of ``matrix``
    and returns the full dz.  Only the first n diagonal entries depend on z:
    the rest is :meth:`_template`, which a caller stepping through many
    iterates of one problem builds once and passes to :meth:`_from_template`.
    """

    def __init__(self, p: BoxQP, mp, z: Iterate):
        if z.n != p.n or z.m != p.m:
            raise DimensionError("iterate dimensions do not match the problem")
        self._fill(self._template(p, mp), mp.omega, z)

    @staticmethod
    def _template(p: BoxQP, mp) -> np.ndarray:
        """``[[Q, -A'], [A, omega I]]``: the reduced matrix without its z-dependent diagonal."""
        n, m = p.n, p.m
        H = np.empty((n + m, n + m))
        H[:n, :n] = p.Q
        H[:n, n:] = -p.A.T
        H[n:, :n] = p.A
        H[n:, n:] = mp.omega * np.eye(m)
        return H

    @classmethod
    def _from_template(cls, base: np.ndarray, omega: float, z: Iterate) -> "ReducedDF":
        """The reduction at z from ``base = _template(p, mp)``; unchecked, z must
        have the dimensions of p."""
        red = cls.__new__(cls)
        red._fill(base, omega, z)
        return red

    def _fill(self, base: np.ndarray, omega: float, z: Iterate) -> None:
        n = z.n
        self._z = z
        self._e_plus_x = 1.0 + z.x
        self._e_minus_x = 1.0 - z.x
        H = base.copy()
        d = _diagonal(H, 0, 0, n)
        d += omega + z.mu_l / self._e_plus_x + z.mu_r / self._e_minus_x
        self.matrix = H

    def solve(self, fac, g: np.ndarray) -> np.ndarray:
        """Solve DF dz = g for a length-N vector g, where ``fac`` (a
        :class:`~boxipm.linalg.QRFactor`) factors ``matrix``."""
        z = self._z
        n, m = z.n, z.m
        e_plus_x, e_minus_x, mu_l, mu_r = self._e_plus_x, self._e_minus_x, z.mu_l, z.mu_r
        g1, g2, g3, g4 = g[:n], g[n : n + m], g[n + m : 2 * n + m], g[2 * n + m :]
        u = fac.solve(np.concatenate([g1 + g3 / e_plus_x - g4 / e_minus_x, g2]))
        dx = u[:n]
        dmu_l = (g3 - mu_l * dx) / e_plus_x
        dmu_r = (g4 + mu_r * dx) / e_minus_x
        return np.concatenate([u, dmu_l, dmu_r])

