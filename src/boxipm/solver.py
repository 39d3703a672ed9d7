"""Short-step interior-point solver.

Three phases:

1. Primal initialization: exactly K full Newton steps on the barrier f
   from the origin, landing within gradient norm rho of its minimizer.
2. Lift: close the dual variables in closed form, then one error-reset
   Newton step to zero the stationarity/equality residual blocks.
3. Path following: at most M cycles.  Each cycle reduces tau by the factor
   sigma with a path step; in ``stable`` mode a centrality step (same tau)
   and an error-reset step follow, so rounding errors cannot accumulate
   across cycles.  ``fast`` mode solves one system per cycle instead of
   three and is appropriate when stability is not a concern.

``solve()`` is built from the public step functions: it runs the primal
loop behind ``primal_init``, then ``lift``, and makes every primal-dual
Newton step through ``_step``, the single implementation behind
``error_reset_step``, ``path_step`` and ``centrality_step``.  Every step
ends with the neighborhood rule of :func:`boxipm.neighborhoods.check_step`
and is rejected (never damped) when it fails; a Newton system that
overflows is rejected the same way.  Inputs are validated where they enter
(``BoxQP``, the public ``Iterate`` constructor, ``eval_F``, ``QRFactor``,
the ``slack`` of the public step functions); the iterates a step produces
are not re-validated, because ``_advance`` establishes their invariants and
counts the repairs it makes.  Within ``solve()`` each step's
post-check residual is the next step's right-hand side, and every reduced
Newton matrix is a copy of one per-solve template.  The returned solution x satisfies
``||x||_inf < 1``, an objective within tol of the best attainable, and an
equality residual within tol of the box-minimal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidProblem,
    IterationBudgetExceeded,
    PrimalInitFailed,
    StepRejected,
)
from .kkt import (
    Iterate,
    ReducedDF,
    Residual,
    eval_DF,
    eval_F,
    eval_grad_f,
    eval_hess_f,
    retarget_F,
)
from .linalg import QRFactor, cond_estimate
from .neighborhoods import (
    STEP_CENTRALITY,
    STEP_ERROR_RESET,
    STEP_PATH,
    check_step,
    complementarity_gap,
)
from .params import MethodParams, compute_params, compute_params_practical
from .problem import (
    BoxQP,
    StandardQP,
    eval_q,
    grow_pi_schedule,
    residual_norm,
    transform_standard,
)

MODE_STABLE = "stable"
MODE_FAST = "fast"
PARAMS_STRICT = "strict"
PARAMS_PRACTICAL = "practical"

# Relative roundoff grace on the final tau <= tau_E comparison.
TAU_END_RTOL = 1e-10

# Largest representable strictly-interior coordinate.  Newton targets with a
# smaller distance to the box faces than one ulp round onto the boundary, so
# updates are snapped back inside; on degenerate instances the exact path
# margin tau/mu drops below this spacing long before tau_E.
_X_MAX = float(np.nextafter(1.0, 0.0))

STEP_PRIMAL = "primal"
STEP_LIFT = "lift"

TRACE_FIELDS = (
    "k",
    "tau",
    "step_kind",
    "residual_comp",
    "residual_eq",
    "cond_DF",
    "step_norm",
    "interior_margin",
    "comp_gap",
    "z_norm",
    "newton_dot",
)


@dataclass(frozen=True)
class TraceEntry:
    """One row per Newton step (plus one for the lift).

    For primal rows, residual_eq holds ||grad f(x_k)|| and the complementarity
    fields are NaN; for primal-dual rows the residuals are the post-step
    blocks of F at the row's tau.  cond_DF is a LAPACK 1-norm condition
    estimate (inf if singular): of the R factor of the Hessian of f on primal
    rows, of the full N x N DF at the step's start on primal-dual rows (whose
    exact (n+m) reduction is what gets factored).  newton_dot is
    dx'(dmu_l - dmu_r) on path steps and NaN elsewhere.
    """

    k: int
    tau: float
    step_kind: str
    residual_comp: float
    residual_eq: float
    cond_DF: float
    step_norm: float
    interior_margin: float
    comp_gap: float
    z_norm: float
    newton_dot: float


@dataclass
class SolveReport:
    """Solver output: the solution, its certificates, and the run record."""

    x: np.ndarray
    objective: float
    feas_residual: float
    tau_final: float
    iterations_primal: int
    iterations_pd: int
    mode: str
    params: MethodParams
    trace: list[TraceEntry] = field(default_factory=list)
    linear_solves: int = 0
    # Repairs made by the primal-dual updates (see _advance): coordinates of
    # x clipped to +-nextafter(1, 0), and mu components reset to tau/(1 +- x).
    x_clipped: int = 0
    mu_reset: int = 0


@dataclass(frozen=True)
class _StepInfo:
    step_norm: float
    newton_dot: float
    cond: float
    post: Residual  # F at the new iterate and the step's tau
    eq_norm: float  # post.eq_norm and post.comp_norm, computed once
    comp_norm: float
    x_clipped: int = 0
    mu_reset: int = 0


def _split(dz: np.ndarray, n: int, m: int):
    return dz[:n], dz[n : n + m], dz[n + m : 2 * n + m], dz[2 * n + m :]


def _advance(z: Iterate, dz: np.ndarray, tau: float) -> tuple[Iterate, int, int]:
    """Apply a full Newton update, snapping to the representable interior.

    x is clipped to |x_j| <= nextafter(1, 0); a mu component driven
    nonpositive by rounding at one-ulp margins is reset to its central-path
    value tau/(1 +- x_j).  Both repairs are within the practical envelope,
    and both are counted: returns (iterate, coordinates clipped, mu
    components reset).

    With dz finite, the result satisfies the invariants of an Iterate except
    finiteness (finite + finite can overflow to inf), so it is built without
    re-validation; the caller checks the residual at the result for
    finiteness, which every component of z enters.
    """
    dx, dlam, dmu_l, dmu_r = _split(dz, z.n, z.m)
    x_new = z.x + dx
    x = np.minimum(np.maximum(x_new, -_X_MAX), _X_MAX)  # np.clip, without its wrapper
    clipped = int(np.count_nonzero(x != x_new))
    reset = 0
    mu_l = z.mu_l + dmu_l
    mu_r = z.mu_r + dmu_r
    bad = mu_l <= 0.0
    if bad.any():
        reset += int(np.count_nonzero(bad))
        mu_l = np.where(bad, tau / (1.0 + x), mu_l)
    bad = mu_r <= 0.0
    if bad.any():
        reset += int(np.count_nonzero(bad))
        mu_r = np.where(bad, tau / (1.0 - x), mu_r)
    return Iterate._trusted(x, z.lam + dlam, mu_l, mu_r), clipped, reset


def _newton_pd(
    p: BoxQP,
    mp: MethodParams,
    z: Iterate,
    tau: float,
    reset_only: bool,
    want_cond: bool = False,
    F: Residual | None = None,
    base: np.ndarray | None = None,
) -> tuple[Iterate, _StepInfo]:
    """One primal-dual Newton step on F_tau at z.

    ``reset_only`` zeroes the complementarity blocks of the right-hand side,
    which by linearity cancels the stationarity/equality residuals exactly.
    ``F`` is F_tau(z) when the caller already has it, and ``base`` the
    per-problem ``ReducedDF._template``; both are computed when omitted.
    A reduced matrix or right-hand side that overflows, or a step or new
    iterate that is not finite, raises StepRejected.
    """
    if F is None:
        F = eval_F(p, mp, z, tau)
    if reset_only:
        rhs = -np.concatenate([F.r1, F.r2, np.zeros(2 * p.n)])
    else:
        rhs = -F.as_array()
    red = ReducedDF(p, mp, z) if base is None else ReducedDF._from_template(base, mp.omega, z)
    # Exact-zero pivot guard: near tau_E the a-priori conditioning bound
    # kappa_DF exceeds 1/(dim*eps), so the relative pivot test would misflag
    # theory-valid systems as singular.
    try:
        fac = QRFactor(red.matrix, pivot_tol=0.0)
        dz = red.solve(fac, rhs)
    except InvalidProblem as exc:
        # z, tau and the template were checked where they entered, so a
        # non-finite system here is an overflow in forming it.
        raise StepRejected(f"Newton system overflowed: {exc}") from exc
    if not np.isfinite(dz).all():
        raise StepRejected("Newton step produced non-finite components")
    z_new, clipped, reset = _advance(z, dz, tau)
    post = eval_F(p, mp, z_new, tau)
    eq_norm, comp_norm = post.eq_norm, post.comp_norm
    if not math.isfinite(eq_norm + comp_norm):
        raise StepRejected("Newton step overflowed to a non-finite iterate")
    dx, _, dmu_l, dmu_r = _split(dz, p.n, p.m)
    cond = _cond_DF(p, mp, z) if want_cond else math.nan
    info = _StepInfo(
        step_norm=math.sqrt(dz @ dz),
        newton_dot=float(dx @ (dmu_l - dmu_r)),
        cond=cond,
        post=post,
        eq_norm=eq_norm,
        comp_norm=comp_norm,
        x_clipped=clipped,
        mu_reset=reset,
    )
    return z_new, info


def _cond_DF(p: BoxQP, mp: MethodParams, z: Iterate) -> float:
    """LAPACK 1-norm condition estimate of the full DF at z; inf, never an
    error, when DF is singular."""
    return cond_estimate(eval_DF(p, mp, z))


def _step(
    kind: str, p: BoxQP, mp: MethodParams, z: Iterate, tau: float,
    slack: float | None = None, want_cond: bool = False,
    F: Residual | None = None, base: np.ndarray | None = None,
) -> tuple[Iterate, _StepInfo]:
    """One primal-dual Newton step of ``kind`` on F_tau, then its post-check.

    The post-check is :func:`~boxipm.neighborhoods.check_step` on the
    residual at the new iterate, with ``slack`` passed through unchecked
    (``None`` is the envelope allowance); a failed check raises
    StepRejected, and the step is never damped.  ``F`` and ``base`` are
    passed through to :func:`_newton_pd`.
    """
    z_new, info = _newton_pd(p, mp, z, tau, kind == STEP_ERROR_RESET, want_cond, F, base)
    check_step(kind, mp, tau, info.eq_norm, info.comp_norm, slack)
    return z_new, info


def _check_slack(slack: float | None) -> None:
    if slack is not None and not 0.0 <= slack < math.inf:
        raise InvalidProblem(f"slack must be finite and nonnegative, got {slack!r}")


def _primal_steps(p: BoxQP, mp: MethodParams):
    """The K full Newton steps on f from the origin.

    Yields (k, x_k, dx, factor of the Hessian) per step, so a caller can
    record each one; once exhausted, checks the guarantees of x_K.
    """
    x = np.zeros(p.n)
    for k in range(1, mp.K + 1):
        grad = eval_grad_f(p, mp, x)
        hess = eval_hess_f(p, mp, x)
        fac = QRFactor(hess)  # provably well conditioned: I <= hess <= C_Hf I
        dx = fac.solve(-grad)
        x = x + dx
        yield k, x, dx, fac
    gnorm = float(np.linalg.norm(eval_grad_f(p, mp, x)))
    if gnorm > mp.rho:
        raise PrimalInitFailed(
            f"||grad f(x_K)|| = {gnorm!r} exceeds rho = {mp.rho!r} after K = {mp.K} steps"
        )
    xnorm = float(np.linalg.norm(x))
    if xnorm > 0.5:
        raise PrimalInitFailed(f"||x_K||_2 = {xnorm!r} exceeds 0.5")


def primal_init(p: BoxQP, mp: MethodParams) -> np.ndarray:
    """Run exactly K full Newton steps on f from the origin.

    Returns x_K with ||grad f(x_K)|| <= rho and ||x_K||_2 <= 0.5; raises
    PrimalInitFailed when rounding prevents either guarantee (the precision
    budget is too small for this instance).
    """
    x = np.zeros(p.n)
    for _, x, *_ in _primal_steps(p, mp):
        pass
    return x


def lift(p: BoxQP, mp: MethodParams, xk) -> Iterate:
    """Close the dual variables of an approximate barrier minimizer.

    lam = -(A x - b)/omega, mu_l = tau_A/(e + x), mu_r = tau_A/(e - x);
    the equality and complementarity blocks of F_{tau_A} vanish to roundoff
    at the result.
    """
    xk = np.asarray(xk, dtype=np.float64)
    return Iterate(
        x=xk,
        lam=-(p.A @ xk - p.b) / mp.omega,
        mu_l=mp.tau_A / (1.0 + xk),
        mu_r=mp.tau_A / (1.0 - xk),
    )


def error_reset_step(p: BoxQP, mp: MethodParams, z: Iterate, tau: float) -> Iterate:
    """Newton step whose right-hand side zeroes only the (r1, r2) blocks.

    By linearity the new stationarity/equality residuals vanish to roundoff;
    the post-check holds them to the binary64 floor of
    :func:`~boxipm.neighborhoods.check_step`.
    """
    return _step(STEP_ERROR_RESET, p, mp, z, tau)[0]


def path_step(
    p: BoxQP, mp: MethodParams, z: Iterate, tau: float, slack: float | None = None
) -> tuple[Iterate, float]:
    """Newton step on F at the reduced parameter tau_hat = sigma * tau.

    Returns (new iterate, tau_hat).  Post-check: the width-theta rule of
    :func:`~boxipm.neighborhoods.check_step` at tau_hat, loosened by
    ``slack`` (default: the envelope allowance), which must be finite and
    nonnegative.
    """
    _check_slack(slack)
    tau_hat = mp.sigma * tau
    return _step(STEP_PATH, p, mp, z, tau_hat, slack)[0], tau_hat


def centrality_step(
    p: BoxQP, mp: MethodParams, z: Iterate, tau: float, slack: float | None = None
) -> Iterate:
    """Newton step on F at unchanged tau; halves the neighborhood width.

    Post-check: the half-width rule of :func:`~boxipm.neighborhoods.check_step`,
    loosened by ``slack`` (default: the envelope allowance), which must be
    finite and nonnegative.
    """
    _check_slack(slack)
    return _step(STEP_CENTRALITY, p, mp, z, tau, slack)[0]


def _primal_row(
    k: int, p: BoxQP, mp: MethodParams, x: np.ndarray, dx: np.ndarray, fac: QRFactor
) -> TraceEntry:
    return TraceEntry(
        k=k, tau=mp.tau_A, step_kind=STEP_PRIMAL,
        residual_comp=math.nan,
        residual_eq=float(np.linalg.norm(eval_grad_f(p, mp, x))),
        cond_DF=fac.cond_estimate(),
        step_norm=float(np.linalg.norm(dx)),
        interior_margin=float(1.0 - np.abs(x).max(initial=0.0)),
        comp_gap=math.nan, z_norm=math.nan, newton_dot=math.nan,
    )


def _pd_row(k: int, kind: str, tau: float, z: Iterate, info: _StepInfo) -> TraceEntry:
    return TraceEntry(
        k=k, tau=tau, step_kind=kind,
        residual_comp=info.comp_norm, residual_eq=info.eq_norm,
        cond_DF=info.cond, step_norm=info.step_norm,
        interior_margin=z.interior_margin(), comp_gap=complementarity_gap(z),
        z_norm=float(np.linalg.norm(z.as_array())),
        newton_dot=info.newton_dot if kind == STEP_PATH else math.nan,
    )


def solve(
    p: BoxQP,
    mode: str = MODE_STABLE,
    params_mode: str = PARAMS_PRACTICAL,
    collect_trace: bool = False,
) -> SolveReport:
    """Solve a box-constrained QP instance end to end.

    Parameters
    ----------
    mode : {"stable", "fast"}
        ``stable`` performs the path, centrality and error-reset solves each
        cycle (3 linear systems); ``fast`` performs the path solve only.
    params_mode : {"strict", "practical"}
        Strict uses the pure theoretical parameter cascade (may raise
        ParamOverflow); practical applies representability floors and always
        runs.
    collect_trace : bool
        Record one TraceEntry per step, without changing the solve.  Its
        ``cond_DF`` is a LAPACK 1-norm condition estimate: of DF (one extra
        LU per step) on primal-dual rows, of the Hessian's R on primal rows.

    Returns
    -------
    SolveReport
        With x strictly interior, ``objective`` within tol of the best
        attainable value and ``feas_residual`` within tol of the box-minimal
        equality residual.
    """
    if mode not in (MODE_STABLE, MODE_FAST):
        raise InvalidProblem(f"unknown mode {mode!r}")
    if params_mode not in (PARAMS_STRICT, PARAMS_PRACTICAL):
        raise InvalidProblem(f"unknown params mode {params_mode!r}")
    mp = compute_params(p) if params_mode == PARAMS_STRICT else compute_params_practical(p)
    cycle = (STEP_PATH,) if mode == MODE_FAST else (STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET)
    # Strict params in fast mode hold the path step to the theoretical
    # contraction, with no envelope allowance.
    path_slack = 0.0 if mode == MODE_FAST and params_mode == PARAMS_STRICT else None
    trace: list[TraceEntry] = []

    x = np.zeros(p.n)
    for k, x, dx, fac in _primal_steps(p, mp):
        if collect_trace:
            trace.append(_primal_row(k, p, mp, x, dx, fac))
    z_lift = lift(p, mp, x)
    # Every step's post-check residual is the next step's right-hand side,
    # and every reduced matrix is a copy of one template.
    F_lift = eval_F(p, mp, z_lift, mp.tau_A)
    base = ReducedDF._template(p, mp)
    z, info = _step(STEP_ERROR_RESET, p, mp, z_lift, mp.tau_A, None, collect_trace, F_lift, base)
    solves = mp.K + 1
    x_clipped, mu_reset = info.x_clipped, info.mu_reset
    if collect_trace:
        # The initial reset factors DF at the lift point, so its condition
        # estimate belongs to the lift row as well.
        lifted = _StepInfo(math.nan, math.nan, info.cond, F_lift, F_lift.eq_norm, F_lift.comp_norm)
        trace.append(_pd_row(len(trace) + 1, STEP_LIFT, mp.tau_A, z_lift, lifted))
        trace.append(_pd_row(len(trace) + 1, STEP_ERROR_RESET, mp.tau_A, z, info))

    tau = mp.tau_A
    cycles = 0
    for _ in range(mp.M):
        tau = mp.sigma * tau
        for kind in cycle:
            if kind == STEP_PATH:
                slack, F = path_slack, retarget_F(info.post, z, tau)
            else:  # same tau as the step before
                slack, F = None, info.post
            z, info = _step(kind, p, mp, z, tau, slack, collect_trace, F, base)
            solves += 1
            x_clipped += info.x_clipped
            mu_reset += info.mu_reset
            if collect_trace:
                trace.append(_pd_row(len(trace) + 1, kind, tau, z, info))
        cycles += 1
        if tau <= mp.tau_E:
            break
    if tau > mp.tau_E * (1.0 + TAU_END_RTOL):
        raise IterationBudgetExceeded(
            f"tau = {tau!r} still above tau_E = {mp.tau_E!r} after M = {mp.M} cycles"
        )

    return SolveReport(
        x=z.x.copy(),
        objective=eval_q(p, z.x),
        feas_residual=residual_norm(p, z.x),
        tau_final=tau,
        iterations_primal=mp.K,
        iterations_pd=cycles,
        mode=mode,
        params=mp,
        trace=trace,
        linear_solves=solves,
        x_clipped=x_clipped,
        mu_reset=mu_reset,
    )


# Accept a trial scaling bound once every solution coordinate stays clear of
# the right box faces (standard-form coordinates have no upper bound, so only
# the +1 faces matter).
PI_ACCEPT_MARGIN = 0.9


@dataclass
class StandardReport:
    """Solution of a standard-form CQP in its original coordinates."""

    x: np.ndarray
    objective: float
    feas_residual: float
    pi: float
    trials: int
    box_report: SolveReport


def solve_standard(
    sp: StandardQP,
    tol: float,
    pi: float | str = "auto",
    mode: str = MODE_STABLE,
    params_mode: str = PARAMS_PRACTICAL,
    pi_start: float = 1.0,
    pi_cap: float = 1e100,
    collect_trace: bool = False,
) -> StandardReport:
    """Solve a standard-form CQP by rescaling into the box.

    With ``pi="auto"``, trial bounds grow geometrically from ``pi_start``
    until the box solution satisfies max_j x_j < 0.9 (the scaling is then
    demonstrably large enough) or the cap is hit (PiCapExceeded).
    """

    def run(pi_val: float) -> tuple[SolveReport, np.ndarray]:
        box, back = transform_standard(sp, pi_val, tol)
        rep = solve(box, mode=mode, params_mode=params_mode, collect_trace=collect_trace)
        return rep, back(rep.x)

    if pi == "auto":
        trials = 0
        for pi_val in grow_pi_schedule(pi_start, cap=pi_cap):
            trials += 1
            rep, u = run(pi_val)
            if float(rep.x.max(initial=-1.0)) < PI_ACCEPT_MARGIN:
                break
        # grow_pi_schedule raises PiCapExceeded when exhausted, so reaching
        # here means the trial was accepted.
    else:
        pi_val = float(pi)
        trials = 1
        rep, u = run(pi_val)

    return StandardReport(
        x=u,
        objective=sp.objective(u),
        feas_residual=float(np.linalg.norm(sp.At @ u - sp.bt)),
        pi=pi_val,
        trials=trials,
        box_report=rep,
    )
