"""Problem data model: box-constrained QP, standard-form CQP, and rescaling.

The target problem minimizes q(x) = 0.5 x'Qx + c'x over the box
``||x||_inf <= 1`` subject to ``||Ax - b||_2`` attaining its box-minimal
value.  A standard-form CQP (min q~(u) s.t. A~ u = b~, u >= 0) with a known
bound pi on ``||u*||_inf`` maps onto that problem through the affine
substitution u = 0.5 * pi * (x + e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidProblem, PiCapExceeded
from .linalg import as_matrix, as_vector, mirror_upper, norm2_upper, quarter_scaled

# Relative tolerances for accepting Q as symmetric PSD.
SYMMETRY_RTOL = 1e-12
PSD_EIG_RTOL = 1e-10

PI_CAP_DEFAULT = 1e100


def _validated_qp(Q, c, A, b, names: tuple[str, str, str, str]) -> tuple[np.ndarray, ...]:
    """(Q, c, A, b) as read-only float64 copies, checked as the data of a QP
    in n >= 1 unknowns with m >= 0 equality rows; ``names`` name the four
    arrays in the errors.

    Q must be symmetric to within ``SYMMETRY_RTOL`` and positive
    semi-definite to within ``PSD_EIG_RTOL``.  It is stored C-ordered as its
    upper triangle mirrored (:func:`~boxipm.linalg.mirror_upper`, by
    selection), so that an exactly symmetric Q is stored bit for bit and
    every later reader of Q (the residual, the Newton matrices, the PSD
    test here) sees one symmetric matrix.
    """
    nQ, nc, nA, nb = names
    Q = as_matrix(Q, name=nQ)
    n = Q.shape[0]
    if Q.shape[1] != n:
        raise InvalidProblem(f"{nQ} must be square, got shape {Q.shape}")
    if n == 0:
        raise InvalidProblem(f"{nQ} must have at least one row: n = 0")
    c = as_vector(c, dim=n, name=nc)
    A = as_matrix(A, cols=n, name=nA)
    b = as_vector(b, dim=A.shape[0], name=nb)
    # the norms of Q / r^2, so that neither Q - Q' nor a norm can overflow:
    # the unscaled test wherever that neither overflows nor underflows
    Qs, r = quarter_scaled(Q)
    asym, qnorm_s = float(np.linalg.norm(Qs - Qs.T)), float(np.linalg.norm(Qs))
    qnorm = qnorm_s * r * r  # norm2_upper(Q)
    if asym > SYMMETRY_RTOL * qnorm_s:
        raise InvalidProblem(
            f"{nQ} is not symmetric: ||{nQ} - {nQ}^T|| = {asym / qnorm_s:.3e} * ||{nQ}|| "
            f"exceeds {SYMMETRY_RTOL:.0e} * ||{nQ}||"
        )
    Q = Q.copy(order="C")
    mirror_upper(Q)
    arrays = (Q, c.copy(), A.copy(), b.copy())
    for a in arrays:
        a.setflags(write=False)
    # Fast accept for positive definite matrices; fall back to an eigenvalue
    # tolerance for the PSD-singular case.
    try:
        np.linalg.cholesky(arrays[0])
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(arrays[0]).min())
        if lam_min < -PSD_EIG_RTOL * max(qnorm, 1.0):
            raise InvalidProblem(
                f"{nQ} is not positive semi-definite: lambda_min = {lam_min:.3e}"
            ) from None
    return arrays


@dataclass(frozen=True)
class BoxQP:
    """Immutable box-constrained QP instance (Q, c, A, b, tol).

    Q must be symmetric positive semi-definite within tight tolerances,
    all data finite, and tol > 0.  A has shape (m, n) with n >= 1 and
    m >= 0.  The arrays are read-only copies; Q is stored exactly
    symmetric, as its upper triangle mirrored (:func:`_validated_qp`).
    """

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    tol: float

    def __post_init__(self):
        names = ("Q", "c", "A", "b")
        data = _validated_qp(self.Q, self.c, self.A, self.b, names)
        tol = float(self.tol)
        if not math.isfinite(tol) or tol <= 0.0:
            raise InvalidProblem(f"tol must be a positive finite real, got {tol!r}")
        for name, a in zip(names, data):
            object.__setattr__(self, name, a)
        object.__setattr__(self, "tol", tol)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class StandardQP:
    """Immutable standard-form CQP instance (Qt, ct, At, bt): equality
    constraints At u = bt with u >= 0, in n >= 1 unknowns, validated and
    stored as ``BoxQP`` stores its data."""

    Qt: np.ndarray
    ct: np.ndarray
    At: np.ndarray
    bt: np.ndarray

    def __post_init__(self):
        names = ("Qt", "ct", "At", "bt")
        data = _validated_qp(self.Qt, self.ct, self.At, self.bt, names)
        for name, a in zip(names, data):
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.Qt.shape[0]

    @property
    def m(self) -> int:
        return self.At.shape[0]

    def objective(self, u) -> float:
        u = as_vector(u, dim=self.n, name="u")
        return float(0.5 * u @ (self.Qt @ u) + self.ct @ u)


def eval_q(p: BoxQP, x) -> float:
    """Quadratic objective q(x) = 0.5 x'Qx + c'x."""
    x = as_vector(x, dim=p.n, name="x")
    return float(0.5 * x @ (p.Q @ x) + p.c @ x)


def q_omega_data(p: BoxQP, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(H, g) of the regularized objective, q_omega(x) = 0.5 x'Hx + g'x + const:
    H = Q + omega I + A'A/omega and g = c - A'b/omega, new arrays."""
    H = p.Q + omega * np.eye(p.n) + (p.A.T @ p.A) / omega
    g = p.c - (p.A.T @ p.b) / omega
    return H, g


def residual_norm(p: BoxQP, x) -> float:
    """Equality-constraint residual ||Ax - b||_2."""
    x = as_vector(x, dim=p.n, name="x")
    return float(np.linalg.norm(p.A @ x - p.b))


def transform_standard(
    sp: StandardQP, pi: float, tol: float
) -> tuple[BoxQP, Callable[[np.ndarray], np.ndarray]]:
    """Rescale a standard-form CQP into a box problem.

    With the substitution u = 0.5 * pi * (x + e), the standard-form data map to

        A = (pi/2) At,   b = bt - (pi/2) At e,
        Q = (pi^2/4) Qt, c = (pi/2) ct + (pi^2/4) Qt e,

    and objective gaps as well as equality residuals are preserved exactly,
    so the same tol applies in both coordinate systems.

    A pi so large that the scaled data overflow, such as (pi/2)^2 Qt or
    Q e, is an InvalidProblem that names pi.

    Returns
    -------
    (BoxQP, back_map)
        ``back_map(x)`` recovers the standard-form point 0.5 * pi * (x + e);
        any ``||x||_inf <= 1`` lands in [0, pi]^n.
    """
    if not (math.isfinite(pi) and pi > 0.0):
        raise InvalidProblem(f"pi must be a positive finite real, got {pi!r}")
    e = np.ones(sp.n)
    half = 0.5 * pi
    # an overflow is tested for below, on the results, and named there
    with np.errstate(over="ignore", invalid="ignore"):
        A = half * sp.At
        b = sp.bt - A @ e
        Q = half * half * sp.Qt
        c = half * sp.ct + Q @ e
    if not all(np.isfinite(a).all() for a in (Q, c, A, b)):
        raise InvalidProblem(f"pi = {pi!r} is too large: the scaled data overflow")
    box = BoxQP(Q=Q, c=c, A=A, b=b, tol=tol)

    def back_map(x) -> np.ndarray:
        return half * (as_vector(x, dim=sp.n, name="x") + e)

    return box, back_map


def problem_factor(p: BoxQP) -> float:
    """Logarithmic size measure of the instance.

    L = log(1 + ||Q|| + ||c|| + ||A|| + ||b||) + log(n + m) - log(tol),
    with natural logarithms and Frobenius-based matrix norm upper bounds.
    Governs the iteration budget, which grows like L * sqrt(n).
    """
    data = norm2_upper(p.Q) + norm2_upper(p.c) + norm2_upper(p.A) + norm2_upper(p.b)
    return math.log1p(data) + math.log(p.n + p.m) - math.log(p.tol)


def grow_pi_schedule(start: float, cap: float = PI_CAP_DEFAULT) -> Iterator[float]:
    """Yield the geometric trial sequence start * 2^k for k = 0, 1, 2, ...

    Raises PiCapExceeded once the next trial would exceed ``cap``; the
    driver in :func:`boxipm.solver.solve_standard` stops earlier as soon as
    a trial solution stays clear of the right box faces.
    """
    if not (math.isfinite(start) and start > 0.0):
        raise InvalidProblem(f"start must be a positive finite real, got {start!r}")
    pi = float(start)
    while pi <= cap:
        yield pi
        pi = 2.0 * pi
    raise PiCapExceeded(f"trial bound exceeded the cap {cap:.3e}")
