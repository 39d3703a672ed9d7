"""Dense matrix/vector validation and a backward-stable linear solver.

All other modules express their matrix work through this layer.  Matrices
and vectors are plain float64 ndarrays; :func:`as_matrix` / :func:`as_vector`
enforce the package-wide invariants (2-D/1-D shape, finite entries).  Linear
systems are solved with a column-pivoted Householder QR factorization
(LAPACK dgeqp3) followed by back substitution, which is backward stable.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, InvalidProblem, SingularSystem

EPS_MACH = float(np.finfo(np.float64).eps)


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Return ``v`` as a finite 1-D float64 array, optionally checking its length."""
    a = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if a.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"{name} must have length {dim}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise InvalidProblem(f"{name} contains non-finite entries")
    return a


def as_matrix(G, rows: int | None = None, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    """Return ``G`` as a finite 2-D float64 array, optionally checking its shape."""
    a = np.atleast_2d(np.asarray(G, dtype=np.float64))
    if a.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise DimensionError(f"{name} must have {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"{name} must have {cols} columns, got {a.shape[1]}")
    if not np.all(np.isfinite(a)):
        raise InvalidProblem(f"{name} contains non-finite entries")
    return a


def norm2_upper(G) -> float:
    """Upper bound on the spectral norm of ``G`` (the Frobenius norm).

    Every place this package consumes a matrix 2-norm needs an upper bound so
    that derived inequalities stay conservative; the Frobenius norm is cheap,
    deterministic, and never underestimates.
    """
    return float(np.linalg.norm(np.asarray(G, dtype=np.float64)))


class QRFactor:
    """Column-pivoted QR factorization of a square matrix with reusable solves.

    Parameters
    ----------
    G : ndarray, shape (d, d)
        Square system matrix.
    pivot_tol : float, optional
        Absolute threshold below which a diagonal entry of R is declared a
        singular pivot.  Defaults to ``d * eps * ||G||_inf``.  Pass ``0.0``
        to reject only exact zeros.
    """

    def __init__(self, G, pivot_tol: float | None = None):
        G = as_matrix(G, name="G")
        d0, d1 = G.shape
        if d0 != d1:
            raise DimensionError(f"square matrix required, got shape {G.shape}")
        self.dim = d0
        if pivot_tol is None:
            norm_inf = float(np.abs(G).sum(axis=1).max()) if d0 else 0.0
            pivot_tol = d0 * EPS_MACH * norm_inf
        self._q, self._r, self._piv = scipy.linalg.qr(G, pivoting=True)
        diag = np.abs(np.diag(self._r)) if d0 else np.array([])
        if d0 and diag.min() <= pivot_tol:
            raise SingularSystem(
                f"pivot {diag.min():.3e} at or below threshold {pivot_tol:.3e}"
            )

    def solve(self, v) -> np.ndarray:
        """Solve G u = v; ``v`` is a vector of length d or a (d, k) matrix of
        right-hand-side columns."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 2:
            v = as_matrix(v, rows=self.dim, name="v")
        else:
            v = as_vector(v, dim=self.dim, name="v")
        y = scipy.linalg.solve_triangular(self._r, self._q.T @ v, lower=False)
        u = np.empty_like(y)
        u[self._piv] = y
        return u

    def inverse(self) -> np.ndarray:
        """Explicit inverse of G (used only for condition estimation)."""
        return self.solve(np.eye(self.dim))

    def cond_estimate(self, G: np.ndarray, iters: int = 32) -> float:
        """Power-iteration estimate of the spectral condition number of ``G``."""
        return cond_from_inverse(G, self.inverse(), iters)


def cond_from_inverse(G: np.ndarray, G_inv: np.ndarray, iters: int = 32) -> float:
    """Condition estimate sigma_max(G) * sigma_max(G^-1), each by power iteration.

    ``G_inv`` is an explicit inverse of ``G``, however it was computed.
    """
    if G.shape[0] == 0:
        return 1.0
    return _sigma_max(G, iters) * _sigma_max(G_inv, iters)


def _sigma_max(G: np.ndarray, iters: int) -> float:
    """Largest singular value of ``G`` by power iteration on G^T G.

    Deterministic: fixed start vector, fixed iteration count.
    """
    d = G.shape[0]
    w = np.linspace(1.0, 2.0, d)
    w /= np.linalg.norm(w)
    for _ in range(iters):
        y = G.T @ (G @ w)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        w = y / ny
    return float(np.linalg.norm(G @ w))


def solve_linear(G, v) -> np.ndarray:
    """Solve the square system G u = v with column-pivoted QR.

    Raises
    ------
    SingularSystem
        If some pivot magnitude falls at or below ``dim * eps * ||G||_inf``.
    """
    return QRFactor(G).solve(v)


def cond_estimate(G, iters: int = 32) -> float:
    """Estimate the 2-norm condition number of a square nonsingular ``G``.

    Power iteration on G and on its (factored) inverse; the estimate is
    reliable to well within a factor of 10 on matrices without pathological
    clustering.
    """
    G = as_matrix(G, name="G")
    return QRFactor(G).cond_estimate(G, iters=iters)
