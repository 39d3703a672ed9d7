"""Dense matrix/vector validation and backward-stable linear solvers.

All other modules express their matrix work through this layer.  Matrices
and vectors are plain float64 ndarrays; :func:`as_matrix` / :func:`as_vector`
enforce the package-wide invariants (2-D/1-D shape, finite entries).

Two solvers cover the method's linear systems, and the method needs of
each only a normwise backward-stable solve:

- The primal-dual Newton systems, which are symmetric indefinite once a
  block row is negated, are solved by Bunch-Kaufman LDL' (LAPACK dsysv)
  in one call, which also returns the factor it computed; the steps that
  ``boxipm.solver._step`` puts on a held factor solve other right-hand
  sides on it by the triangular solves alone (LAPACK dsytrs).  The step
  is compiled (``boxipm._cstep``) and calls dsysv and dsytrs, and the
  BLAS routines of its finiteness tests, vector updates and residual,
  with the arguments that scipy's wrappers pass; the tests hold its
  solution bit for bit to a plain dsysv call on the same matrix, and
  every step to the Python step it replaced.
  Bunch-Kaufman is backward stable as long as its growth factor stays
  small, which is the case in practice (Higham, *Accuracy and Stability
  of Numerical Algorithms*, ch. 11); a strict multiprecision reference
  would settle whether it and the QR below are equivalent on the
  method's systems.
- :class:`QRFactor` solves the primal phase's Hessian systems by
  column-pivoted Householder QR (LAPACK dgeqp3), the reflectors applied to
  the right-hand side with dormqr and back substitution with dtrtrs; Q is
  never formed.  Every step is backward stable.

The trace's ``cond_DF`` reads the factor its step solved with: on
primal rows it is :meth:`QRFactor.cond_estimate`, LAPACK's 1-norm
estimate of the Hessian's R (dtrcon); on primal-dual rows it is the exact
kappa_1 of the DF the step solves, which ``boxipm.kkt.cond_DF``
assembles for a batch of steps from :func:`symmetric_inverse` of the
reduced matrices' Bunch-Kaufman factors that the steps' dsysv calls
returned, each inverted in place in a slot of the stack that the trace's
recorder holds.  No N x N matrix is built or factored for it.

Every LAPACK routine, here and in the step, is the one that scipy's
wrappers call, in the library that scipy links, called through the
compiled module of ``boxipm._cstep`` with the arguments that
``scipy.linalg.lapack`` passes, so each result has its bits; no solve
imports ``scipy.linalg``.  The module is loaded at the first
factorization, not with this one: parsing, validation, the parameter
cascade and the oracle run on numpy alone, so a process that never
factors or evaluates a residual never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _cstep
from .errors import DimensionError, InvalidProblem, SingularSystem

EPS_MACH = float(np.finfo(np.float64).eps)


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Return ``v`` as a finite 1-D float64 array, optionally checking its length."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        a = np.atleast_1d(a)
        if a.ndim != 1:
            raise DimensionError(f"{name} must be one-dimensional, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"{name} must have length {dim}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise InvalidProblem(f"{name} contains non-finite entries")
    return a


def as_matrix(G, rows: int | None = None, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    """Return ``G`` as a finite 2-D float64 array, optionally checking its shape."""
    a = np.asarray(G, dtype=np.float64)
    if a.ndim != 2:
        a = np.atleast_2d(a)
        if a.ndim != 2:
            raise DimensionError(f"{name} must be two-dimensional, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise DimensionError(f"{name} must have {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"{name} must have {cols} columns, got {a.shape[1]}")
    if not np.isfinite(a).all():
        raise InvalidProblem(f"{name} contains non-finite entries")
    return a


def norm2_upper(G) -> float:
    """Upper bound on the spectral norm of ``G`` (the Frobenius norm), or
    the 2-norm of ``G`` when it is a vector.

    Every place this package consumes a matrix 2-norm needs an upper bound so
    that derived inequalities stay conservative; the Frobenius norm is cheap,
    deterministic, and never underestimates.  It is taken of G / r^2
    (:func:`quarter_scaled`), whose sum of squares neither overflows nor
    underflows, and multiplied back by r twice: the bits of the unscaled
    norm wherever that neither overflows nor underflows, and finite
    wherever ||G|| is.  So the cascade takes the norms of c and b here
    too.
    """
    Gs, r = quarter_scaled(G)
    return float(np.linalg.norm(Gs)) * r * r


def quarter_scaled(G) -> tuple[np.ndarray, float]:
    """(G / r^2, r) for ``G`` as a float64 array, r the power of two that
    brings its largest |G_ij| into [1/2, 2) (1 for a G of zeros).  r^2 is
    a power of 4, so the division is exact wherever G / r^2 is normal, and
    a 2-norm of G / r^2 times r twice is one of G."""
    G = np.asarray(G, dtype=np.float64)
    k = math.frexp(float(np.abs(G).max(initial=0.0)))[1] // 2
    return np.ldexp(G, -2 * k), 2.0**k


class QRFactor:
    """Column-pivoted QR factorization of a square matrix with reusable solves.

    The factor is kept in LAPACK's compact form: R and the Householder
    vectors share one array, next to the reflector scalars ``tau`` and the
    column permutation.  Q is never formed; :meth:`solve` applies Q^T as
    reflectors.  The caller's arrays are never overwritten.  A diagonal
    entry of R at or below ``d * eps * ||G||_inf`` is a singular pivot and
    raises SingularSystem.

    Parameters
    ----------
    G : ndarray, shape (d, d)
        Square system matrix, d >= 1.
    """

    def __init__(self, G):
        G = as_matrix(G, name="G")
        d0, d1 = G.shape
        if d0 != d1 or d0 == 0:
            raise DimensionError(f"square matrix of size d >= 1 required, got shape {G.shape}")
        self.dim = d0
        pivot_tol = d0 * EPS_MACH * float(np.abs(G).sum(axis=1).max())
        # Room for LAPACK's blocked code at any block size up to 64 (reference
        # LAPACK uses 32): the factor a workspace query would lead to, without
        # the query.  dgeqp3 factors a Fortran-ordered copy of G, and jpvt = 0
        # leaves every column free to pivot.
        ffi, lib = _cstep.load()
        self._qr, jpvt, self._tau = np.array(G, order="F"), np.zeros(d0, np.intc), np.empty(d0)
        lwork = 2 * d0 + (d0 + 1) * 64
        info = lib.boxipm_dgeqp3(d0, _cstep.ptr(ffi, self._qr), _cstep.ptr(ffi, jpvt),
                                 _cstep.ptr(ffi, self._tau), ffi.new("double[]", lwork), lwork)
        _check_info("dgeqp3", info)
        self._piv = jpvt - 1
        rmin = np.abs(self._qr.diagonal()).min()
        if rmin <= pivot_tol:
            raise SingularSystem(f"pivot {rmin:.3e} at or below threshold {pivot_tol:.3e}")

    def solve(self, v) -> np.ndarray:
        """Solve G u = v for a vector ``v`` of length d."""
        v = as_vector(v, dim=self.dim, name="v")
        # Q'v by dormqr on a copy of v, with lwork = 1, then R y = Q'v in
        # place by dtrtrs; both take the vector as one column.
        ffi, lib = _cstep.load()
        qr, d, y = _cstep.ptr(ffi, self._qr), self.dim, np.array(v)
        info = lib.boxipm_dormqr(d, qr, _cstep.ptr(ffi, self._tau), _cstep.ptr(ffi, y),
                                 ffi.new("double[]", 1))
        _check_info("dormqr", info)
        _check_info("dtrtrs", lib.boxipm_dtrtrs(d, qr, _cstep.ptr(ffi, y)))
        u = np.empty_like(y)
        u[self._piv] = y
        return u

    def cond_estimate(self) -> float:
        """dtrcon's estimate of kappa_1(R), inf if its rcond is 0.  As G P = Q R,
        kappa_2(G) = kappa_2(R), within a factor d of kappa_1(R)."""
        (ffi, lib), d = _cstep.load(), self.dim
        rcond = ffi.new("double *")
        info = lib.boxipm_dtrcon(d, _cstep.ptr(ffi, self._qr), rcond, ffi.new("double[]", 3 * d),
                                 ffi.new("int[]", d))
        _check_info("dtrcon", info)
        return 1.0 / rcond[0] if rcond[0] > 0.0 else math.inf


def symmetric_inverse(factors: np.ndarray, ipivs) -> np.ndarray:
    """G^-1 for each factor (ldu, ipiv) of a G that LAPACK dsysv returned,
    by LAPACK dsytri, in place: ``factors`` is a stack (k, d, d)
    of the ``ldu`` of each G, each item Fortran-ordered, and ``ipivs`` the
    k pivot arrays, each of C ints.  Each item is overwritten by its full
    symmetric inverse, and ``factors`` is returned.

    dsytri inverts each item where it lies and writes its upper triangle,
    which one :func:`mirror_upper` over the stack copies into the lower
    ones.  So the call builds no d x d array.
    """
    ffi, lib = _cstep.load()
    d = factors.shape[-1]
    work = ffi.new("double[]", d)
    for a, ipiv in zip(factors, ipivs):
        if not (a.flags.f_contiguous and ipiv.dtype == np.intc):
            raise ValueError("symmetric_inverse needs Fortran-ordered factors and C int pivots")
        info = lib.boxipm_dsytri(d, _cstep.ptr(ffi, a), _cstep.ptr(ffi, ipiv), work)
        _check_info("dsytri", info)
    mirror_upper(factors)
    return factors


def mirror_upper(G: np.ndarray) -> None:
    """Copy the upper triangle of each square matrix of ``G`` (..., d, d)
    into its lower one, in place, by selection: an exactly symmetric matrix
    keeps its bits.

    The matrices must be all C-ordered (``G`` C-contiguous) or all
    Fortran-ordered (its last two axes swapped, C-contiguous), so that each
    is one flat run of d*d entries; the copy gathers the strict upper
    triangle at the flat indices :func:`_strict_triangles` caches per size
    and scatters it over the strict lower one, so its only temporary is the
    gathered half of each matrix.
    """
    d = G.shape[-1]
    upper, lower = _strict_triangles(d)
    if not G.flags.c_contiguous:
        # A Fortran-ordered matrix is the C-ordered one of its transpose,
        # whose strict lower triangle is the strict upper one of G.
        G = np.swapaxes(G, -1, -2)
        if not G.flags.c_contiguous:
            raise ValueError("mirror_upper needs C- or Fortran-ordered matrices")
        upper, lower = lower, upper
    # One matrix per column, so that a single matrix is indexed as a plain
    # vector: indexing along a later axis doubles the temporary.
    flat = G.reshape(G.shape[:-2] + (d * d,)).T
    flat[lower] = flat[upper]


@functools.lru_cache(maxsize=8)
def _strict_triangles(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat C-order indices of the strict upper triangle of a d x d
    matrix, and those of its mirror image in the strict lower one, pair by
    pair; read-only, built once per size."""
    i, j = np.triu_indices(d, 1)
    upper, lower = i * d + j, j * d + i
    for a in (upper, lower):
        a.setflags(write=False)
    return upper, lower


def _check_info(routine: str, info: int) -> None:
    """Raise on a LAPACK ``info``: negative is an illegal argument (a bug),
    positive is an exactly zero diagonal entry of the triangular or block
    diagonal factor (R of dtrtrs, D of dsysv and dsytri)."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise SingularSystem(f"LAPACK {routine}: pivot {info - 1} of the factor is exactly zero")

