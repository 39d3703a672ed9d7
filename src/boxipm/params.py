"""Method-parameter cascade computed once from (Q, c, A, b, tol).

Every scalar the solver consumes — neighborhood width theta, the
complementarity reduction factor sigma, the path endpoints tau_A/tau_E,
conditioning and boundedness constants, envelope radii nu_0/nu_1/nu_2, and
the iteration counts K and M — derives from the problem data through a
fixed chain of inequalities, held once in the ordered rule table
``_RULES``: one ``name sense rhs`` rule per :class:`MethodParams` field,
whose right-hand side reads the problem data and the values before it.
The cascade walks the table and nudges each ``>=`` value one unit in the
last place up and each ``<=`` value one down; the constants and counts
(theta, beta, N, C_Hf, C_dF, C_dDF, K, M, C_x) are ``==`` rules emitted
as their right-hand side.  :func:`validate_params` walks the same table
against the emitted record, so the record satisfies every inequality
verbatim when re-evaluated.

Two variants exist:

* :func:`compute_params` (strict):  the pure theoretical cascade.  For most
  instances at small tol its envelope radii demand precision below binary64
  and the cascade leaves the representable range; that raises ParamOverflow.
* :func:`compute_params_practical`:  identical formulas with floors on the
  envelope radii, tau_E, the interiority gap, and the primal target rho
  (the ``floor`` of their rules), so the record is always representable and
  the solver always runs.  The loop structure is unchanged; only the
  diagnostic slacks are relaxed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from .errors import ParamOverflow
from .linalg import norm2_upper
from .problem import BoxQP, q_omega_data

THETA_DEFAULT = 0.3
BETA_DEFAULT = 0.3
C_HF_DEFAULT = 10.0

# Practical-mode floors (see module docstring).
TAU_E_FLOOR = 1e-12
C_GAP_FLOOR = 1e-14
NU_FLOOR_FACTOR = 1e-13  # times C_z
RHO_FLOOR = 1e-12


def _up(v: float) -> float:
    return float(np.nextafter(v, np.inf))


def _down(v: float) -> float:
    return float(np.nextafter(v, -np.inf))


@dataclass(frozen=True)
class MethodParams:
    """The full scalar cascade plus derived bounds.

    Scalars named C_* are a-priori bounds (norms of iterates, Jacobians,
    residuals, sensitivities); nu_* are envelope radii around the exact
    central-path neighborhoods; K and M are the primal and path-following
    iteration counts.  ``floors_applied`` names the practical-mode floors
    that were active (empty for a strict record).
    """

    theta: float
    beta: float
    sigma: float
    N: int
    C_Hf: float
    C_q: float
    omega: float
    C_lambda: float
    C_dmu: float
    tau_A: float
    tau_E: float
    C_mu: float
    C_z: float
    c_gap: float
    C_DF: float
    C_DFinv: float
    kappa_DF: float
    C_dF: float
    C_dDF: float
    C_ddz: float
    C_nu: float
    nu_2: float
    nu_1: float
    nu_0: float
    rho: float
    K: int
    M: int
    C_Df: float
    C_F: float
    C_dz: float
    C_x: float
    floors_applied: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "floors_applied":
                continue
            out[f.name] = getattr(self, f.name)
        return out


def iteration_count_primal(C_Hf: float, rho: float) -> int:
    """Closed form K = ceil(log2(1 + log2(C_Hf / rho)))."""
    return math.ceil(math.log2(1.0 + math.log2(C_Hf / rho)))


def iteration_count_pd(tau_A: float, tau_E: float, sigma: float) -> int:
    """Closed form M = ceil((log tau_E - log tau_A) / log sigma)."""
    return math.ceil((math.log(tau_E) - math.log(tau_A)) / math.log(sigma))


def _data(p: BoxQP) -> SimpleNamespace:
    """The problem quantities ``d`` that the right-hand sides read."""
    return SimpleNamespace(
        p=p, n=p.n, m=p.m, tol=p.tol, sqrt_n=math.sqrt(p.n),
        norm_Q=norm2_upper(p.Q), norm_A=norm2_upper(p.A),
        norm_c=float(np.linalg.norm(p.c)), norm_b=float(np.linalg.norm(p.b)),
    )


@dataclass(frozen=True)
class _Rule:
    """One record field: ``name sense rhs(d, r)``.

    ``d`` holds the problem quantities and ``r`` the record values before
    ``name``.  ``sense`` is ``">="`` or ``"<="`` (nudged one ulp that way) or
    ``"=="`` (emitted exactly).  ``floor(d, r)``, when given, is the
    practical-mode floor of a ``<=`` rule.
    """

    name: str
    sense: str
    rhs: Callable[[Any, Any], float]
    floor: Callable[[Any, Any], float] | None = None


def _tau_A(d, r) -> float:
    H, g = q_omega_data(d.p, r.omega)
    return max(norm2_upper(H) / 4.0, 4.0 * float(np.linalg.norm(g)))


def _tau_E_cap(r) -> float:
    # Keeps tau_E below the path start even for tol >~ 1; as part of both the
    # right-hand side and the floor it wins over the practical floor.
    return _down(r.sigma * r.tau_A)


def _nu_floor(d, r) -> float:
    return NU_FLOOR_FACTOR * r.C_z


# One rule per MethodParams field, in field order: each right-hand side may
# read only the fields before it.
_RULES = (
    _Rule("theta", "==", lambda d, r: THETA_DEFAULT),
    _Rule("beta", "==", lambda d, r: BETA_DEFAULT),
    _Rule("sigma", ">=", lambda d, r: 1.0 - r.beta / math.sqrt(2.0 * d.n)),
    _Rule("N", "==", lambda d, r: 3 * d.n + d.m),
    _Rule("C_Hf", "==", lambda d, r: C_HF_DEFAULT),
    _Rule("C_q", ">=", lambda d, r: d.norm_Q * d.n + d.norm_c * d.sqrt_n),
    _Rule("omega", "<=", lambda d, r: min(
        d.tol / (2.0 * d.n), d.tol * d.tol / (4.0 * r.C_q + d.n) / 16.0, 1.0)),
    _Rule("C_lambda", ">=", lambda d, r: (d.norm_A * d.sqrt_n + d.norm_b) / r.omega),
    _Rule("C_dmu", ">=", lambda d, r: (
        (r.omega + d.norm_Q) * d.sqrt_n + d.norm_c + d.norm_A * r.C_lambda)),
    _Rule("tau_A", ">=", _tau_A),
    # max{., 1} guards the all-zero-data case
    _Rule("tau_E", "<=", lambda d, r: min(
        d.tol * d.tol * r.omega / (48.0 * d.n * max(d.norm_A, r.C_q, 1.0)),
        _tau_E_cap(r)),
        floor=lambda d, r: min(TAU_E_FLOOR, _tau_E_cap(r))),
    _Rule("C_mu", ">=", lambda d, r: (
        math.sqrt(2.0 * d.n) * (r.C_dmu + (1.0 + r.theta) * r.tau_A))),
    # hypot form of sqrt(n + C_lambda^2 + C_mu^2): no overflow on squaring
    _Rule("C_z", ">=", lambda d, r: (
        float(np.hypot(np.hypot(d.sqrt_n, r.C_lambda), r.C_mu)) + 0.1)),
    _Rule("c_gap", "<=", lambda d, r: (
        (1.0 - r.theta) / (1.0 + r.C_z) * r.sigma * r.tau_E * 0.5),
        floor=lambda d, r: C_GAP_FLOOR),
    _Rule("C_DF", ">=", lambda d, r: (
        d.norm_Q + 2.0 * r.omega + 2.0 * d.norm_A + 4.0 + 4.0 * r.C_z)),
    _Rule("C_DFinv", ">=", lambda d, r: (
        1.0 / r.c_gap * max(1.0 / r.omega, r.C_z / r.c_gap))),
    _Rule("kappa_DF", ">=", lambda d, r: r.C_DF * r.C_DFinv),
    _Rule("C_dF", "==", lambda d, r: r.C_DF),
    _Rule("C_dDF", "==", lambda d, r: 2.0),
    _Rule("C_ddz", ">=", lambda d, r: 2.0 * r.kappa_DF),
    _Rule("C_nu", ">=", lambda d, r: max(
        2.0 * r.C_ddz * (r.C_dF * r.C_DFinv + 2.0 / r.omega * r.C_dDF * r.C_z),
        1.0 + r.C_DFinv * r.C_dF)),
    _Rule("nu_2", "<=", lambda d, r: min(
        0.1,
        r.c_gap / r.C_nu,
        r.omega / (2.0 * r.C_dDF * r.kappa_DF),
        r.theta * r.sigma * r.tau_E / (2.0 * r.C_nu * r.C_dF)),
        floor=_nu_floor),
    _Rule("nu_1", "<=", lambda d, r: r.nu_2 / r.C_nu, floor=_nu_floor),
    _Rule("nu_0", "<=", lambda d, r: min(
        r.nu_1 / r.C_nu, d.tol / (2.0 * max(d.norm_A, r.C_q))), floor=_nu_floor),
    _Rule("rho", "<=", lambda d, r: (
        1.0 / (4.0 * math.sqrt(r.N)) * r.nu_2 / (d.norm_A / r.omega + 1.0 + 8.0 * r.tau_A)),
        floor=lambda d, r: RHO_FLOOR),
    _Rule("K", "==", lambda d, r: iteration_count_primal(r.C_Hf, r.rho)),
    _Rule("M", "==", lambda d, r: iteration_count_pd(r.tau_A, r.tau_E, r.sigma)),
    _Rule("C_Df", ">=", lambda d, r: (
        (r.omega + d.norm_Q + (d.norm_A * d.norm_A + d.norm_b) / r.omega) / r.tau_A
        + 4.0 * d.sqrt_n)),
    _Rule("C_F", ">=", lambda d, r: (
        r.C_DF * r.C_z + d.norm_c + d.norm_b + 2.0 * d.sqrt_n * r.tau_A)),
    _Rule("C_dz", ">=", lambda d, r: r.C_DFinv * r.C_F),
    _Rule("C_x", "==", lambda d, r: d.sqrt_n),
)

# sense -> (nudge in the conservative direction, holds(value, bound), violation)
_SENSES = {
    ">=": (_up, operator.ge, "<"),
    "<=": (_down, operator.le, ">"),
    "==": (lambda v: v, operator.eq, "!="),
}

# Quantities that must also lie below 1: sigma is a reduction factor and rho
# a primal target; their right-hand sides alone do not keep them there.
_BELOW_ONE = ("sigma", "rho")


def _cascade(p: BoxQP, practical: bool) -> MethodParams:
    d = _data(p)
    r = SimpleNamespace()
    floors: list[str] = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rule in _RULES:
            nudge = _SENSES[rule.sense][0]
            value = nudge(rule.rhs(d, r))
            if practical and rule.floor is not None:
                floor = rule.floor(d, r)
                if value < floor:
                    floors.append(rule.name)
                    value = floor
            if not (math.isfinite(value) and value > 0.0):
                raise ParamOverflow(
                    "cascade left the representable binary64 range at: " + rule.name
                )
            if rule.name in _BELOW_ONE and not value < 1.0:
                raise ParamOverflow(f"{rule.name} = {value!r} must lie in (0, 1)")
            setattr(r, rule.name, value)
    return MethodParams(**vars(r), floors_applied=tuple(floors))


def compute_params(p: BoxQP) -> MethodParams:
    """Strict theoretical cascade; raises ParamOverflow when unrepresentable."""
    return _cascade(p, practical=False)


def compute_params_practical(p: BoxQP) -> MethodParams:
    """Cascade with representability floors; always emits a usable record."""
    return _cascade(p, practical=True)


def validate_params(mp: MethodParams, p: BoxQP) -> list[str]:
    """Re-evaluate every cascade right-hand side against the emitted record.

    Returns a list of violated inequalities (empty when the record is
    consistent).  Quantities raised by a practical-mode floor are checked
    against max(formula, floor).
    """
    d = _data(p)
    bad: list[str] = []
    for rule in _RULES:
        value = getattr(mp, rule.name)
        bound = rule.rhs(d, mp)
        if rule.floor is not None and rule.name in mp.floors_applied:
            bound = max(bound, rule.floor(d, mp))
        _, holds, violation = _SENSES[rule.sense]
        if not holds(value, bound):
            bad.append(f"{rule.name}: {value!r} {violation} {bound!r}")

    # Contraction inequalities actually consumed by the step guarantees.
    # The path-step chain carries the 0.36 factor from u.v <= 0.36||u+v||^2.
    if not 0.36 * (mp.beta + mp.theta) ** 2 / (1.0 - mp.theta) <= mp.theta * mp.sigma:
        bad.append("0.36 (beta+theta)^2/(1-theta) > theta*sigma")
    if not mp.theta**2 / (1.0 - mp.theta) <= 0.5 * mp.theta:
        bad.append("theta^2/(1-theta) > theta/2")
    if not 0.0 < mp.sigma < 1.0:
        bad.append("sigma outside (0, 1)")
    if not mp.tau_E < mp.tau_A:
        bad.append("tau_E >= tau_A")
    if not (mp.nu_0 <= mp.nu_1 <= mp.nu_2):
        bad.append("envelope ordering nu_0 <= nu_1 <= nu_2 violated")
    if not (mp.c_gap > 0.0 and mp.K >= 1 and mp.M >= 1):
        bad.append("positivity of c_gap / K >= 1 / M >= 1 violated")
    return bad


def format_params(mp: MethodParams) -> str:
    """One ``name = value`` line per parameter, full precision."""
    lines = []
    for name, value in mp.as_dict().items():
        lines.append(f"{name} = {value!r}")
    if mp.floors_applied:
        lines.append("floors_applied = " + ",".join(mp.floors_applied))
    return "\n".join(lines) + "\n"
