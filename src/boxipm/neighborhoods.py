"""The step post-check rule and the complementarity gap.

The short-step method keeps every iterate in the width-theta neighborhood
of the central path at its tau: the stationarity/equality blocks (r1, r2)
of F_tau vanish and the complementarity blocks (r3, r4) have 2-norm at most
theta*tau.  :func:`check_step` is the one place that rule is written, as
the bound each primal-dual Newton step must meet at its new iterate:

- path step (at the reduced tau): ||(r3, r4)|| <= theta tau (1 + COMP_CHECK_RTOL);
- centrality step (same tau): the half width, theta/2 in place of theta;
- error-reset step: ||(r1, r2)|| <= 100 N eps C_DF C_z, a constant of the
  a-priori bounds, not a binary64 floor: on ``random_boxqp(seed 0)`` of
  the tests it is 2e13 to 8e18 times the largest ||(r1, r2)|| that any
  reset of the solve leaves (ROADMAP item 1), so it catches only a reset
  that fails outright.

The complementarity bound is the width bound itself, in both parameter
modes, with only a relative roundoff grace: it shrinks with tau, so every
path and centrality step of a solve is held to the neighborhood at its
own tau.  Interiority is not tested here: the step that makes an iterate
rejects one whose mu or e = (1 + x, 1 - x) is not positive
(``boxipm.solver._step``).
"""

from __future__ import annotations

import numpy as np

from .errors import StepRejected
from .linalg import EPS_MACH

STEP_PATH = "path"
STEP_CENTRALITY = "centrality"
STEP_ERROR_RESET = "error_reset"

# Relative roundoff grace on the complementarity bound.
COMP_CHECK_RTOL = 1e-6


def check_step(kind: str, mp, tau: float, eq_norm: float, comp_norm: float) -> None:
    """Raise StepRejected unless a ``kind`` step's new iterate meets its bound.

    ``eq_norm`` and ``comp_norm`` are ||(r1, r2)|| and ||(r3, r4)|| of F_tau
    there; an error-reset step is held to the first, path and centrality
    steps to the second, at width theta and theta/2.
    """
    if kind == STEP_ERROR_RESET:
        block, value = "eq", eq_norm
        limit = 100.0 * mp.N * EPS_MACH * mp.C_DF * mp.C_z
    else:
        width = mp.theta if kind == STEP_PATH else 0.5 * mp.theta
        block, value = "comp", comp_norm
        limit = width * tau * (1.0 + COMP_CHECK_RTOL)
    if not value <= limit:
        raise StepRejected(
            f"{kind} step failed its post-check: {block} residual {value!r} > {limit!r}",
            kind=kind, tau=tau, block=block, value=value, limit=limit,
        )


def complementarity_gap(z):
    """mu_l'(e + x) + mu_r'(e - x) of each of k points; bounded by
    2n(1+theta)tau on the path neighborhood, which certifies the optimality
    gap.

    ``z`` is a (k, 4n) array whose rows are (mu_l, mu_r, e_l, e_r), the
    layout of a step workspace's ``mu_e`` (:class:`~boxipm.kkt._Workspace`),
    and the result an array of k gaps.  Each dot product is one BLAS ddot
    per point, as ``ndarray.dot`` makes it, by one batched matmul."""
    n = z.shape[1] // 4
    mu_l, mu_r, e_l, e_r = (z[:, None, j * n : (j + 1) * n] for j in range(4))
    gap = np.matmul(mu_l, e_l.transpose(0, 2, 1)) + np.matmul(mu_r, e_r.transpose(0, 2, 1))
    return gap.ravel()
