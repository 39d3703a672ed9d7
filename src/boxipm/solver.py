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
overflows is rejected the same way, and every rejection names its step
kind and tau (``solve()`` adds the cycle).  Inputs are validated where they
enter (``BoxQP``, the public ``Iterate`` constructor, ``eval_F``,
``QRFactor``, the ``tau`` and ``slack`` of the public step functions); the
iterates the steps of ``solve()`` produce are not re-validated, because
``_advance`` establishes their invariants and counts the repairs it makes.

Steps run in place in a step workspace (:class:`boxipm.kkt._Workspace`),
built once per solve and once per call of a public step function: it holds
the one primal-dual state of the solve, which each step updates in place,
and each step solves its reduced Newton system with one symmetric LAPACK
call (Bunch-Kaufman, ``dsysv``) that overwrites the step buffer.  A step is
a full Newton step or a rejection, so nothing reads the state a step
started from once it is taken.  Besides the factor and pivot arrays that
call returns, the only objects a step builds are the masks of
:func:`_advance`, in a step that repairs its iterate.
The K primal steps solve their Hessian systems with ``QRFactor``.  Within
``solve()`` each step's post-check residual is the next step's
right-hand side, and a path step only recomputes its complementarity
blocks as mu∘e - tau.  Trace rows read the workspace's state, and only
when tracing; a traced workspace also turns each step's factor into the
row's condition number.  The returned solution x satisfies
``||x||_inf < 1``, an objective within tol of the best attainable, and an
equality residual within tol of the box-minimal one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    InvalidProblem,
    IterationBudgetExceeded,
    PrimalInitFailed,
    StepRejected,
)
from .kkt import (
    Iterate,
    _blocks,
    _check_tau,
    _Workspace,
    eval_DF,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
    eval_F,  # noqa: F401  (likewise)
    eval_grad_f,
    eval_hess_f,
)
from .linalg import QRFactor
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


@dataclass(frozen=True)
class TraceEntry:
    """One row per Newton step (plus one for the lift).

    For primal rows, residual_eq holds ||grad f(x_k)|| and the complementarity
    fields are NaN; for primal-dual rows the residuals are the post-step
    blocks of F at the row's tau.  cond_DF is a 1-norm condition number, read
    off the factor its step made (inf if it overflows): on primal rows
    LAPACK's estimate of kappa_1 of the R factor of the Hessian of f, on
    primal-dual rows the exact kappa_1 of the N x N DF that the step solves
    at the step's start, from the factor of its (n+m) reduction; the lift
    row shares the initial reset's value.
    newton_dot is dx'(dmu_l - dmu_r) on path steps and NaN elsewhere.
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


TRACE_FIELDS = tuple(f.name for f in fields(TraceEntry))


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


def _advance(ws: _Workspace, dz: np.ndarray, tau: float) -> tuple[int, int]:
    """Apply the full Newton update z + dz to the workspace's state in place,
    snapping to the representable interior, and derive e and mu∘e there.

    x is clipped to |x_j| <= nextafter(1, 0); a mu component driven
    nonpositive by rounding at one-ulp margins is reset to its central-path
    value tau/(1 +- x_j).  Both repairs are within the practical envelope,
    and both are counted: returns (coordinates clipped, mu components reset)
    and adds them to ``ws.x_clipped`` and ``ws.mu_reset``.  ``ws.margin``
    is set to the minimum of (mu, e) at the result.

    With dz finite, the result satisfies the invariants of an Iterate except
    finiteness (finite + finite can overflow to inf); the caller checks the
    residual at the result for finiteness, which every component of z
    enters.
    """
    np.add(ws.z, dz, out=ws.z)
    ws.derive_e()
    x, mu = ws.x, ws.mu
    clipped = reset = 0
    # |x_j| > _X_MAX exactly when 1 + x_j <= 0 or 1 - x_j <= 0, so one
    # reduction over (mu, e) tells whether a repair is due; the counts are
    # taken only if one is
    margin = ws.mu_e.min()
    if margin <= 0.0:
        clipped = int(np.count_nonzero(ws.e <= 0.0))
        if clipped:
            np.maximum(x, -_X_MAX, out=x)  # np.clip, without its wrapper
            np.minimum(x, _X_MAX, out=x)
            ws.derive_e()
        bad = mu <= 0.0
        reset = int(np.count_nonzero(bad))
        if reset:
            mu[bad] = tau / ws.e[bad]
        margin = ws.mu_e.min()
    ws.derive_mue()
    ws.margin = float(margin)
    ws.x_clipped += clipped
    ws.mu_reset += reset
    return clipped, reset


def _step(kind: str, ws: _Workspace, tau: float, slack: float | None = None) -> None:
    """One primal-dual Newton step of ``kind`` on F_tau from the workspace's
    state, whose ``F`` must hold F_tau there, then its post-check.  The step
    updates the state in place: on return it holds the new iterate and
    F_tau at it.

    The post-check is :func:`~boxipm.neighborhoods.check_step` on the
    residual at the new iterate, with ``slack`` passed through unchecked
    (``None`` is the envelope allowance); a failed check raises
    StepRejected, and the step is never damped.  So does a Newton system
    that overflows, a step that is not finite and a new iterate that is
    not.  A rejected step may leave the state changed, so its caller drops
    the workspace.  :func:`_advance` counts its repairs in ``ws``.
    """
    try:
        dz = ws.newton(kind == STEP_ERROR_RESET)
    except InvalidProblem as exc:
        # z, tau and H were checked where they entered, so a non-finite
        # system here is an overflow in forming it.
        raise StepRejected(f"Newton system overflowed: {exc}", kind=kind, tau=tau) from exc
    # dz weighted by half-means sums to a finite value only if dz is finite,
    # and finite entries cannot overflow the sum; the elementwise test
    # settles the rest.
    if not math.isfinite(dz.dot(ws.half_mean)) and not np.isfinite(dz).all():
        raise StepRejected("Newton step produced non-finite components", kind=kind, tau=tau)
    _advance(ws, dz, tau)
    ws.eval_F(tau)
    if not math.isfinite(ws.eq_norm + ws.comp_norm):
        raise StepRejected(
            "Newton step overflowed to a non-finite iterate", kind=kind, tau=tau
        )
    check_step(kind, ws.mp, tau, ws.eq_norm, ws.comp_norm, slack)


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
            f"||grad f(x_K)|| = {gnorm!r} exceeds rho = {mp.rho!r} after K = {mp.K} steps",
            bound="gradient", value=gnorm, limit=mp.rho, K=mp.K,
        )
    xnorm = float(np.linalg.norm(x))
    if xnorm > 0.5:
        raise PrimalInitFailed(
            f"||x_K||_2 = {xnorm!r} exceeds 0.5", bound="x_norm", value=xnorm, limit=0.5, K=mp.K
        )


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


def _public_step(
    kind: str, p: BoxQP, mp: MethodParams, z: Iterate, tau: float, slack: float | None = None
) -> Iterate:
    """One ``kind`` step at tau from a caller's iterate, in a workspace of its own."""
    _check_tau(tau)
    ws = _Workspace(p, mp)
    ws.load(z)
    ws.eval_F(tau)
    _step(kind, ws, tau, slack)
    return ws.iterate()


def error_reset_step(p: BoxQP, mp: MethodParams, z: Iterate, tau: float) -> Iterate:
    """Newton step whose right-hand side zeroes only the (r1, r2) blocks.

    By linearity the new stationarity/equality residuals vanish to roundoff;
    the post-check holds them to the binary64 floor of
    :func:`~boxipm.neighborhoods.check_step`.
    """
    return _public_step(STEP_ERROR_RESET, p, mp, z, tau)


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
    return _public_step(STEP_PATH, p, mp, z, tau_hat, slack), tau_hat


def centrality_step(
    p: BoxQP, mp: MethodParams, z: Iterate, tau: float, slack: float | None = None
) -> Iterate:
    """Newton step on F at unchanged tau; halves the neighborhood width.

    Post-check: the half-width rule of :func:`~boxipm.neighborhoods.check_step`,
    loosened by ``slack`` (default: the envelope allowance), which must be
    finite and nonnegative.
    """
    _check_slack(slack)
    return _public_step(STEP_CENTRALITY, p, mp, z, tau, slack)


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


def _pd_row(k: int, kind: str, tau: float, ws: _Workspace, dz: np.ndarray | None) -> TraceEntry:
    """The row of a primal-dual step that led to the workspace's state by the
    step ``dz`` (``None`` for the lift row, whose ``cond_DF`` the initial
    reset fills in); ``ws.cond`` is kappa_1 of DF where the step started.
    1 - |x_j| is min(1 + x_j, 1 - x_j) bit for bit, so the interior margin
    is ``ws.margin``, the minimum of (mu, e)."""
    step_norm = newton_dot = math.nan
    if dz is not None:
        step_norm = math.sqrt(dz @ dz)
        if kind == STEP_PATH:
            dx, _, dmu_l, dmu_r = _blocks(dz, ws.n, ws.m)
            newton_dot = float(dx @ (dmu_l - dmu_r))
    return TraceEntry(
        k=k, tau=tau, step_kind=kind,
        residual_comp=ws.comp_norm, residual_eq=ws.eq_norm,
        cond_DF=ws.cond, step_norm=step_norm, interior_margin=ws.margin,
        comp_gap=complementarity_gap(ws),
        z_norm=math.sqrt(ws.z.dot(ws.z)),  # np.linalg.norm's own formula for a vector
        newton_dot=newton_dot,
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
        ``cond_DF`` is a 1-norm condition number read off the factor the
        step made: on primal-dual rows the exact kappa_1 of DF, from one
        LAPACK dsytri on the reduced matrix's factor per step; on primal
        rows dtrcon's estimate for the Hessian's R.

    Returns
    -------
    SolveReport
        With x strictly interior, ``objective`` within tol of the best
        attainable value and ``feas_residual`` within tol of the box-minimal
        equality residual.

    A rejected step raises StepRejected with its ``cycle`` set: 0 for the
    initial error reset, then 1 up to M.
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
    # Every step's post-check residual is the next step's right-hand side;
    # the steps update the workspace's one state in place.
    ws = _Workspace(p, mp, traced=collect_trace)
    ws.load(lift(p, mp, x))
    ws.eval_F(mp.tau_A)
    tau = mp.tau_A
    cycles = 0  # started, and on success completed, path-following cycles
    try:
        if collect_trace:
            lift_row = _pd_row(len(trace) + 1, STEP_LIFT, tau, ws, None)
        _step(STEP_ERROR_RESET, ws, tau)
        if collect_trace:
            # The initial reset factors DF at the lift point, so its
            # condition number belongs to the lift row as well.
            trace.append(replace(lift_row, cond_DF=ws.cond))
            trace.append(_pd_row(len(trace) + 1, STEP_ERROR_RESET, tau, ws, ws.dz))
        for _ in range(mp.M):
            cycles += 1
            tau = mp.sigma * tau
            for kind in cycle:
                if kind == STEP_PATH:
                    slack = path_slack
                    ws.retarget(tau)
                else:  # same tau as the step before
                    slack = None
                _step(kind, ws, tau, slack)
                if collect_trace:
                    trace.append(_pd_row(len(trace) + 1, kind, tau, ws, ws.dz))
            if tau <= mp.tau_E:
                break
    except StepRejected as exc:
        exc.cycle = cycles
        raise
    if tau > mp.tau_E * (1.0 + TAU_END_RTOL):
        raise IterationBudgetExceeded(
            f"tau = {tau!r} still above tau_E = {mp.tau_E!r} after M = {mp.M} cycles",
            tau=tau, tau_E=mp.tau_E, M=mp.M,
        )

    return SolveReport(
        x=ws.x.copy(),
        objective=eval_q(p, ws.x),
        feas_residual=residual_norm(p, ws.x),
        tau_final=tau,
        iterations_primal=mp.K,
        iterations_pd=cycles,
        mode=mode,
        params=mp,
        trace=trace,
        linear_solves=mp.K + 1 + cycles * len(cycle),
        x_clipped=ws.x_clipped,
        mu_reset=ws.mu_reset,
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
    collect_trace: bool = False,
) -> StandardReport:
    """Solve a standard-form CQP by rescaling into the box.

    ``pi`` is a bound on ||u*||_inf, a real number, or the string
    ``"auto"``; anything else, a bool included, is an InvalidProblem.
    With ``pi="auto"``, trial bounds grow geometrically from 1
    (:func:`~boxipm.problem.grow_pi_schedule`) until the box solution
    satisfies max_j x_j < 0.9 (the scaling is then demonstrably large
    enough) or the schedule's cap is hit (PiCapExceeded).
    """

    def run(pi_val: float) -> tuple[SolveReport, np.ndarray]:
        box, back = transform_standard(sp, pi_val, tol)
        rep = solve(box, mode=mode, params_mode=params_mode, collect_trace=collect_trace)
        return rep, back(rep.x)

    auto = isinstance(pi, str) and pi == "auto"
    # bool is a numbers.Real: True would run as the bound 1.0
    if not (auto or isinstance(pi, numbers.Real)) or isinstance(pi, bool):
        raise InvalidProblem(f"pi must be a number or 'auto', got {pi!r}")
    if auto:
        trials = 0
        for pi_val in grow_pi_schedule(1.0):
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
