"""Short-step interior-point solver.

Three phases:

1. Primal initialization: exactly K full Newton steps on the barrier f
   from the origin, landing within gradient norm rho of its minimizer.
2. Lift: close the dual variables in closed form, then one error-reset
   Newton step to zero the stationarity/equality residual blocks.
3. Path following: at most M cycles.  Each cycle reduces tau by the factor
   sigma with a path step; in ``stable`` mode a centrality step (same tau)
   and an error-reset step follow, so rounding errors cannot accumulate
   across cycles.  ``fast`` mode makes the path step alone and is
   appropriate when stability is not a concern.  Which steps factor their
   matrix and which solve on a held factor is the rule of ``_step``, the
   Shamanskii rule: one factor serves three stable cycles, or four fast
   path steps.

``solve()`` runs ``primal_init``, which also writes the primal trace rows,
then ``lift``, and makes every primal-dual Newton step through ``_step``,
the one implementation of a step.  Every step ends with the neighborhood
rule of :func:`boxipm.neighborhoods.check_step` and is rejected (never
damped or repaired) when it fails; a Newton system that overflows, or a
step that drives some mu or e = (1 + x, 1 - x) to zero or below, is
rejected the same way, and every rejection names its step kind and tau
(``solve()`` adds the cycle).  Inputs are validated where they enter
(``BoxQP``, ``solve()``'s mode strings, the public ``Iterate``
constructor, ``eval_F`` and ``eval_DF``, ``QRFactor``); the iterates the
steps of ``solve()`` produce are not re-validated, because a step that
breaks their invariants is rejected.

Steps run in place in a step workspace (:class:`boxipm.kkt._Workspace`),
built once per solve and once per ``eval_F`` call: it holds
the one primal-dual state of the solve, which each step updates in place,
and each step solves its reduced Newton system with one symmetric LAPACK
call that overwrites the step buffer: Bunch-Kaufman (``dsysv``), or the
triangular solves alone (``dsytrs``) on a held factor, as ``_step``
decides.  A step is a full Newton step or a rejection, so nothing reads
the state a step started from once it is taken.  The Newton solve, the
update and the residual at the new iterate are one call of the compiled
step (:mod:`boxipm._cstep`), which makes the LAPACK and BLAS calls that
the Python step made, in its order, and builds no array: the factor goes
to buffers of the workspace, which the next factoring step reuses.
``_step`` raises its rejections and makes the post-check.  The K primal
steps solve their Hessian systems with ``QRFactor``.  Within
``solve()`` each step's post-check residual is the next step's
right-hand side; a path step, the one step that moves tau, rewrites its
complementarity blocks as mu∘e - tau at its own tau.  The steps do no
trace work: a traced solve hands each step's state, step and new factor
to a :class:`_Recorder`, which copies them (the pivots too, since the
workspace reuses their buffer) and builds the rows per
batch, the interior margin min(mu, e) from its copy of the state, every
value with the bits it would have if built right after its step.  The
returned solution x satisfies ``||x||_inf < 1`` (the state's x rounded
into the open box, once, at the end), an objective within tol of the
best attainable, and an equality residual within tol of the box-minimal
one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidProblem,
    IterationBudgetExceeded,
    PrimalInitFailed,
    StepRejected,
)
from .kkt import (
    Iterate,
    _Workspace,
    cond_DF,
    eval_DF,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
    eval_F,  # noqa: F401  (likewise)
    eval_grad_f,
    eval_hess_f,
)
from .linalg import QRFactor, _check_info
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

_OVERFLOW = "Newton system overflowed: {} contains non-finite entries"

STEP_PRIMAL = "primal"
STEP_LIFT = "lift"

# The Shamanskii rule of _step, per mode: how many steps other than error
# resets solve on one held factor before the next such step factors.  A
# factor then serves the path and centrality steps of three stable cycles,
# or four fast path steps.
HELD_STEPS = {MODE_STABLE: 5, MODE_FAST: 3}


class TraceEntry(NamedTuple):
    """One row per Newton step (plus one for the lift).

    For primal rows, residual_eq holds ||grad f(x_k)|| and the complementarity
    fields are NaN; for primal-dual rows the residuals are the post-step
    blocks of F at the row's tau.  cond_DF is a 1-norm condition number, read
    off the factor its step solved with (inf if it overflows): on primal
    rows LAPACK's estimate of kappa_1 of the R factor of the Hessian of f,
    on primal-dual rows the exact kappa_1 of the N x N DF that the step
    solves, from the factor of its (n+m) reduction: the DF at the start of
    the step that factored, so a row whose step solved on a held factor
    (``_step``) repeats the value of the row that factored it, and the lift
    row shares the initial reset's: one value serves up to 9 rows of a
    stable solve and 4 of a fast one.  Primal-dual rows are built per batch
    (:class:`_Recorder`), each value with the same bits as a row built
    right after its step.
    interior_margin is 1 - ||x||_inf on primal rows; on primal-dual rows it
    is the minimum of (mu, e), with e = (1 + x, 1 - x) as the steps carry
    it (:class:`~boxipm.kkt._Workspace`), so the distance to the nearest
    face or the smallest multiplier, whichever is less: the margin that
    rejects a step when it is not positive, taken again at the flush from
    the recorder's copy of the state after the step, with the same bits,
    since a minimum is exact in any order.  It reads min mu wherever a
    multiplier is closer to 0 than x is to the box faces (1,623 of the
    3,134 primal-dual rows of ``random_boxqp(seed 0, n=20, m=8)`` of the
    test suite).  newton_dot is dx'(dmu_l - dmu_r) on path steps and NaN
    elsewhere.
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


TRACE_FIELDS = TraceEntry._fields


@dataclass
class SolveReport:
    """Solver output: the solution, its certificates, and the run record."""

    x: np.ndarray
    objective: float
    feas_residual: float
    tau_final: float
    iterations_pd: int
    mode: str
    params: MethodParams
    trace: list[TraceEntry] = field(default_factory=list)
    linear_solves: int = 0
    # Matrices factored: the K Hessians and the primal-dual steps that do
    # not solve on an earlier step's factor (see _step), K + 1 + cycles // 3
    # in a stable solve and K + 1 + cycles // 4 in a fast one.
    factorizations: int = 0
    # Coordinates of x rounded into the open box, to +-nextafter(1, 0),
    # when the solve returned it (kkt._Workspace.rounded_x).
    x_clipped: int = 0


def _step(kind: str, ws: _Workspace, tau: float) -> None:
    """One primal-dual Newton step of ``kind`` on F_tau from the workspace's
    state, then its post-check.  ``F`` must hold the residual of the state
    at the tau of the last step or of :meth:`~boxipm.kkt._Workspace.eval_F`;
    a path step moves it to its own tau.  The step updates the state in
    place: on return it holds the new iterate, F_tau at it in ``F``, and
    the step in ``dz``.

    The step dz solves DF dz = g, where g = -F or, for an error reset, -F
    with its complementarity blocks replaced by zeros (which by linearity
    cancels the (r1, r2) blocks exactly), by the reduced system of
    :class:`~boxipm.kkt._Workspace` in (dx, dlam/s), s = ``ws.lam_scale``,
    in three stages:

    1. Right-hand side: a path step first writes r3, r4 = mu∘e - tau
       into ``F``, as :meth:`~boxipm.kkt._Workspace.eval_F` writes them,
       since r1 and r2 do not depend on tau.  ``sign * F`` writes
       (g1, -s g2, g3, g4) into ``dz``.  A step that is not a reset adds
       t = g34/e into v = (g1 + t_l - t_r, -s g2); a reset's g34 is 0, so
       its v is (g1, -s g2) as written.
    2. Solve, over v in place.  While there is a held factor
       ``ws.factor``, the one the last factoring step left (none after
       :meth:`~boxipm.kkt._Workspace.load`), an error reset solves on it,
       and so does any other step until ``ws.held_limit`` steps that are
       not resets have (``ws.held_steps``, which such a step counts): one
       LAPACK dsytrs call, the triangular solves alone.  The held G was
       tested when it was factored, so only v is, by one finite sum of
       absolute values, and a reset's v not at all: it is (-r1, s r2) of a
       residual that the last post-check found finite.  Any other step
       writes the Q block's diagonal G from w = mu/e and factors ``H`` by
       one LAPACK dsysv call, which rejects only an exactly zero pivot
       (``info`` > 0): near tau_E the a-priori conditioning bound
       kappa_DF exceeds 1/(dim*eps), so a relative pivot test would
       misflag theory-valid systems as singular.  G and v are all of the
       system that changes per step; one finite sum of absolute values
       clears both, and otherwise the step is rejected naming the
       culprit.  It keeps its factor in ``ws.factor``, counts itself in
       ``ws.factorizations`` and sets ``ws.held_steps`` to 0; a dsysv
       call that returns an ``info`` leaves no factor.
    3. Multipliers: dmu = g34/e - w'∘de, de = (dx, -dx), with the w' =
       mu'/e' of the step that factored, left in ``ws.w``: the step writes
       de into ``ws.de``, which follows dz in one buffer ``ws.dze``, negates
       w'∘de, and adds t unless it is a reset.

    ``solve()`` sets ``ws.held_limit`` per mode (``HELD_STEPS``): 5 in a
    stable solve, so the path and centrality steps of three cycles and
    their resets share one factor, the one the centrality step of every
    third cycle makes; 3 in a fast solve, so four path steps share one, and
    every fourth factors.  A step on the held factor solves DF(z') dz = g,
    where z' is the state at which the factoring step started: refactoring
    only every held_limit + 1 steps is the Shamanskii method, and a step
    on the factor of the step before is the chord (simplified Newton)
    method (Kelley, *Iterative Methods for Linear and Nonlinear Equations*,
    SIAM 1995, chapter 5).  (r1, r2) cancel as on a fresh factor: they are
    affine in z with the constant matrix T, the top rows of every DF, and
    with the dmu of stage 3 the stationarity row is the reduced system
    with w' in G.  With de = (dx, -dx) and w = mu/e, the new
    complementarity blocks are mu∘e - tau + mu∘de + e∘dmu + dmu∘de.
    Against a factor at z they move by the error term e∘(w - w')∘de, plus
    the change of the dmu∘de that every Newton step leaves.  The error
    term is the product of the step and the change of w since the
    factoring step started, up to three cycles before: second order in a
    reset, whose dx only cancels rounding, and in a path or centrality
    step a term that the post-check judges as it judges any other, so a
    step on a factor too stale is rejected, never taken.  On the draws
    measured, no path or centrality step used more than half of its width
    bound.
    One rule serves both params modes.  The paper's analysis assumes exact
    Newton steps: the multiprecision reference (ROADMAP, "The paper's
    strict method, end to end in multiprecision") must check that with the
    stale w' every path and centrality step still meets its width bound
    with zero slack, and that K, M and the cycles stay the same.
    The step does no trace work: a traced solve's :class:`_Recorder` reads
    what the step left, and takes each row's interior margin from its own
    copy of (mu, e).

    The update (z, e) + (dz, de), one addition over ``ws.ze`` and
    ``ws.dze``, carries e along as e + (dx, -dx), and takes the margin, the
    minimum of (mu, e), which it does not keep (NaN if any entry is: a NaN
    margin passes on to the residual test, which names it).  A margin
    that is not positive rejects the step,
    with block ``"interior"``, the margin as its value and 0 as its limit,
    whichever of mu and e reached it: a step that leaves the box and one
    that drives a multiplier to zero are rejected alike, and no multiplier
    is reset.  The method's iterates keep mu_j e_j >= (1 - theta) tau > 0
    with both factors positive, so a step that crosses zero has left its
    neighborhood.  e is never re-derived from x, so x may round onto a face
    while e keeps its distance to it.  The post-check is
    :func:`~boxipm.neighborhoods.check_step` on the residual at the new
    iterate (:meth:`~boxipm.kkt._Workspace.eval_F`): the width bound of its
    kind for a path or centrality step; a failed check raises StepRejected,
    and the step is never damped.  So does a Newton system that overflows,
    a step that is not finite and a new iterate that is not finite.  A
    rejected step may leave the state changed, so its caller drops the
    workspace.

    The step is one call of the compiled ``boxipm_step``
    (:mod:`boxipm._cstep`) on the workspace's struct, which
    :meth:`~boxipm.kkt._Workspace.bind` builds at its first step or
    residual; its stages are the ones above, in their order, and it
    makes the calls that scipy's wrappers made when this function was
    Python: LAPACK dsysv with lwork = d on a copy of ``H`` into
    ``ws.ldu``, or dsytrs on the held factor; BLAS dasum for the
    finiteness tests, daxpy with a = +-1 (or -tau on ``ws.ones``), dcopy
    and dscal by -1 or by s for the additions, copies and exact scalings,
    through the Q block's diagonal as every (d + 1)-th entry of ``H``;
    and plain loops, which round as numpy's ufuncs do, for the products,
    quotients and the minimum, and for the elementwise finiteness test
    that names the culprit when a sum of |entries| is not finite.  So a
    step makes no Python-level numpy, BLAS or LAPACK call.  In C it makes
    one LAPACK call, its residual's dgemv and 12 to 22 BLAS level-1 calls
    (its residual's included): 17 for the initial reset and 12 for a reset
    on the held factor, 16 or 18 for a held centrality or path step and
    20 or 22 for one that factors.  It returns a
    code, and the margin or a LAPACK ``info`` in the struct, from which
    this function raises the rejection; the post-check stays here.
    """
    c = ws.c if ws.c is not None else ws.bind()
    code = ws.lib.boxipm_step(c, _KIND_CODES[kind], tau)
    if code:
        _reject(code, kind, ws, tau)
    check_step(kind, ws.mp, tau, c.eq_norm, c.comp_norm)


# The step kinds as _cstep.c numbers them (BOXIPM_RESET, _CENTRALITY, _PATH).
_KIND_CODES = {STEP_ERROR_RESET: 0, STEP_CENTRALITY: 1, STEP_PATH: 2}


def _reject(code: int, kind: str, ws: _Workspace, tau: float) -> None:
    """Raise the rejection of a compiled step that returned ``code``."""
    lib, c = ws.lib, ws.c
    if code == lib.BOXIPM_DSYSV_INFO:
        _check_info("dsysv", c.info)
    if code == lib.BOXIPM_DSYTRS_INFO:
        _check_info("dsytrs", c.info)
    if code == lib.BOXIPM_LEFT_INTERIOR:
        raise StepRejected(
            f"{kind} step left the interior: min(mu, e) reached {c.margin!r} <= 0.0",
            kind=kind, tau=tau, block="interior", value=c.margin, limit=0.0,
        )
    message = {
        lib.BOXIPM_G_OVERFLOW: _OVERFLOW.format("G"),
        lib.BOXIPM_V_OVERFLOW: _OVERFLOW.format("v"),
        lib.BOXIPM_STEP_NONFINITE: "Newton step produced non-finite components",
        lib.BOXIPM_ITERATE_NONFINITE: "Newton step overflowed to a non-finite iterate",
    }[code]
    raise StepRejected(message, kind=kind, tau=tau)


def primal_init(p: BoxQP, mp: MethodParams, trace: list | None = None) -> np.ndarray:
    """Run exactly K full Newton steps on f from the origin.

    Returns x_K with ||grad f(x_K)|| <= rho and ||x_K||_2 <= 0.5; raises
    PrimalInitFailed when rounding prevents either guarantee (the precision
    budget is too small for this instance).  Given a ``trace`` list, one
    primal ``TraceEntry`` per step is appended to it.  The gradient is
    evaluated once at each of x_0 .. x_K: at x_k it is the right-hand side
    of step k + 1, the residual of step k's row and, at x_K, the final
    check's.
    """
    x = np.zeros(p.n)
    grad = eval_grad_f(p, mp, x)
    for k in range(1, mp.K + 1):
        hess = eval_hess_f(p, mp, x)
        fac = QRFactor(hess)  # provably well conditioned: I <= hess <= C_Hf I
        dx = fac.solve(-grad)
        x = x + dx
        grad = eval_grad_f(p, mp, x)
        if trace is not None:
            trace.append(TraceEntry(
                k=k, tau=mp.tau_A, step_kind=STEP_PRIMAL,
                residual_comp=math.nan,
                residual_eq=float(np.linalg.norm(grad)),
                cond_DF=fac.cond_estimate(),
                step_norm=float(np.linalg.norm(dx)),
                interior_margin=float(1.0 - np.abs(x).max(initial=0.0)),
                comp_gap=math.nan, z_norm=math.nan, newton_dot=math.nan,
            ))
    gnorm = float(np.linalg.norm(grad))
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


# Factors a trace recorder holds before it turns its rows into TraceEntry
# rows: at n + m = 28 their stack takes 64 * 28^2 * 8 B = 400 KB, and at
# n = 20, m = 8 the row buffers of a stable solve, 9 rows per factor, take
# 576 * 196 * 8 B = 0.9 MB.
TRACE_BATCH = 64


class _Recorder:
    """The primal-dual trace rows of one solve, built in batches.

    A traced :func:`solve` builds one on its workspace and the step kinds
    of its cycle, which size its row buffers, and calls it after the lift
    and after every primal-dual step, with the row's kind and tau.
    A call only records: into buffers allocated here, once, it copies the
    workspace's (z, e) buffer ``ze`` and step ``dz``, and, when the step
    factored (``ws.factorizations`` grew), the factor's ``ldu`` into a
    slot of a stack, and a copy of ``ipiv``, whose buffer the workspace's
    next factoring step reuses; the workspace's factor is not written,
    so the steps that solve on it (``_step``) still can.  It keeps
    the row's kind, tau and residual norms as they are.

    Once ``TRACE_BATCH`` factors are pending, or the row buffers are full,
    and at the end of the solve (:meth:`flush`), one flush turns the
    pending rows into ``TraceEntry`` rows, appended to ``trace``:
    :func:`~boxipm.kkt.cond_DF` gives the exact kappa_1 for every factor at
    once, each at the (mu, e) of the row before its own, where its step
    started; batched matmuls give the norms, one ddot per row as
    ``ndarray.dot`` makes it; one ``np.minimum.reduce`` over the copied
    (mu, e) gives every row's interior margin, with the bits of the step's
    own minimum, since a minimum is exact in any order; and
    :func:`complementarity_gap` gives every row's gap in one call.  So every
    value has the bits that the row would have if it were built right
    after its step.  A row that did not factor takes the condition number
    of the last factor before it, in this batch or carried over from the
    last one; the lift row takes the next one's, the initial reset's.  Row
    0 of the snapshot buffer carries the last row of the previous batch,
    the start of a step that opens the next one.
    """

    def __init__(self, ws: _Workspace, trace: list, cycle: tuple[str, ...]):
        n, d = ws.n, ws.n + ws.m
        # A factor serves its own step and ws.held_limit more that are not
        # error resets (_step), so the rows of (held_limit + 1)/k cycles, k
        # the steps of a cycle that are not resets: 9 rows in a stable
        # solve, 4 in a fast one.  A batch opens with the lift row or with
        # the rows that the last factor of the previous batch still serves,
        # and closes on the row of its TRACE_BATCH-th factor, so it holds at
        # most TRACE_BATCH times that many rows: the factor stack fills
        # first, and a flush batches TRACE_BATCH factors.
        k = sum(kind != STEP_ERROR_RESET for kind in cycle)
        rows = TRACE_BATCH * len(cycle) * (ws.held_limit + 1) // k
        self.ws, self.trace = ws, trace
        self.ze = np.empty((rows + 1, ws.ze.shape[0]))
        self.dz = np.empty((rows, ws.dz.shape[0]))
        self.dmu_diff = np.empty((rows, n))
        # C-ordered; seen transposed, each slot is a Fortran-ordered factor
        self.factors = np.empty((TRACE_BATCH, d, d)).transpose(0, 2, 1)
        self.rows: list[tuple] = []  # kind, tau, comp, eq, cond index
        self.ipivs: list[np.ndarray] = []
        self.starts: list[int] = []  # the snapshot where each factor's step starts
        self.factorizations = ws.factorizations
        self.cond = math.nan  # the last factor's kappa_1, once flushed

    def __call__(self, kind: str, tau: float) -> None:
        ws, rows, ipivs = self.ws, self.rows, self.ipivs
        i = len(rows)
        self.ze[i + 1] = ws.ze
        if kind == STEP_LIFT:
            self.dz[i] = 0.0  # no step: its norms are dropped, but read
            cond = 1  # the initial reset's
        else:
            self.dz[i] = ws.dz
            cond = len(ipivs)  # the last factor's, 0 for the one carried over
        if ws.factorizations != self.factorizations:
            self.factorizations = ws.factorizations
            ldu, ipiv = ws.factor
            self.factors[len(ipivs)] = ldu
            ipivs.append(ipiv.copy())  # the workspace's next factoring step reuses it
            self.starts.append(i)
            cond = len(ipivs)
        rows.append((kind, tau, ws.comp_norm, ws.eq_norm, cond))
        if len(ipivs) == TRACE_BATCH or len(rows) == len(self.dz):
            self.flush()

    def flush(self) -> None:
        """Append a TraceEntry for every pending row to ``trace``."""
        rows, ipivs, trace = self.rows, self.ipivs, self.trace
        r, f = len(rows), len(ipivs)
        if not r:
            return
        n, nm, N = self.ws.n, self.ws.n + self.ws.m, self.dz.shape[1]
        conds = [self.cond]
        if f:
            mu_e = self.ze[self.starts, nm:]
            conds += cond_DF(self.ws, self.factors[:f], ipivs, mu_e).tolist()
        ze, dz, diff = self.ze[1 : r + 1], self.dz[:r], self.dmu_diff[:r]
        z = ze[:, :N]
        np.subtract(dz[:, nm : nm + n], dz[:, nm + n :], diff)  # dmu_l - dmu_r
        z_norms = np.sqrt(np.matmul(z[:, None], z[:, :, None])).ravel().tolist()
        step_norms = np.sqrt(np.matmul(dz[:, None], dz[:, :, None])).ravel().tolist()
        dots = np.matmul(dz[:, None, :n], diff[:, :, None]).ravel().tolist()
        margins = np.minimum.reduce(ze[:, nm:], axis=1).tolist()
        gaps = complementarity_gap(ze[:, nm:]).tolist()
        for (kind, tau, comp, eq, cond), step_norm, margin, gap, z_norm, dot in zip(
            rows, step_norms, margins, gaps, z_norms, dots
        ):
            trace.append(TraceEntry(
                len(trace) + 1, tau, kind, comp, eq, conds[cond],
                math.nan if kind == STEP_LIFT else step_norm, margin, gap, z_norm,
                dot if kind == STEP_PATH else math.nan,
            ))
        self.cond = conds[-1]
        self.ze[0] = self.ze[r]
        rows.clear()
        ipivs.clear()
        self.starts.clear()


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
        cycle (9 linear systems on 1 factorization per three cycles);
        ``fast`` performs the path solve only (one factorization per four
        cycles).  ``_step`` says which steps solve on a held factor.
    params_mode : {"strict", "practical"}
        Strict uses the pure theoretical parameter cascade (may raise
        ParamOverflow); practical applies representability floors, and
        raises ParamOverflow only where the floored cascade still leaves
        binary64 (on large data, such as a standard-form problem scaled by
        a large pi).
    collect_trace : bool
        Record one TraceEntry per step, without changing the solve.  Its
        ``cond_DF`` is a 1-norm condition number read off the factor the
        step solved with: on primal-dual rows the exact kappa_1 of DF, from
        one LAPACK dsytri on the reduced matrix's factor per factorization,
        so a row whose step solved on a held factor repeats the value of
        the row that factored; on primal rows dtrcon's estimate for the
        Hessian's R.  The steps only
        record; primal-dual rows are built per batch of ``TRACE_BATCH``
        factors, with the bits a row built right after its step would
        have.

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
    trace: list[TraceEntry] = []

    x = primal_init(p, mp, trace if collect_trace else None)
    # Every step's post-check residual is the next step's right-hand side;
    # the steps update the workspace's one state in place.
    ws = _Workspace(p, mp, HELD_STEPS[mode])
    ws.load(lift(p, mp, x))
    ws.eval_F(mp.tau_A)
    tau = mp.tau_A
    record = _Recorder(ws, trace, cycle) if collect_trace else None
    cycles = 0  # started, and on success completed, path-following cycles
    try:
        if record is not None:
            record(STEP_LIFT, tau)
        _step(STEP_ERROR_RESET, ws, tau)
        if record is not None:
            record(STEP_ERROR_RESET, tau)
        for _ in range(mp.M):
            cycles += 1
            tau = mp.sigma * tau
            for kind in cycle:
                _step(kind, ws, tau)
                if record is not None:
                    record(kind, tau)
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
    if record is not None:
        record.flush()

    x = ws.rounded_x()
    return SolveReport(
        x=x,
        objective=eval_q(p, x),
        feas_residual=residual_norm(p, x),
        tau_final=tau,
        iterations_pd=cycles,
        mode=mode,
        params=mp,
        trace=trace,
        linear_solves=mp.K + 1 + cycles * len(cycle),
        factorizations=mp.K + ws.factorizations,
        x_clipped=int(np.count_nonzero(x != ws.x)),
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
    auto = isinstance(pi, str) and pi == "auto"
    # bool is a numbers.Real: True would run as the bound 1.0
    if not (auto or isinstance(pi, numbers.Real)) or isinstance(pi, bool):
        raise InvalidProblem(f"pi must be a number or 'auto', got {pi!r}")
    # grow_pi_schedule raises PiCapExceeded when exhausted, so the loop ends
    # on an accepted trial or after the one trial of a given bound.
    for trials, pi_val in enumerate(grow_pi_schedule(1.0) if auto else (float(pi),), 1):
        box, back = transform_standard(sp, pi_val, tol)
        rep = solve(box, mode=mode, params_mode=params_mode, collect_trace=collect_trace)
        if float(rep.x.max(initial=-1.0)) < PI_ACCEPT_MARGIN:
            break
    u = back(rep.x)
    return StandardReport(
        x=u,
        objective=sp.objective(u),
        feas_residual=float(np.linalg.norm(sp.At @ u - sp.bt)),
        pi=pi_val,
        trials=trials,
        box_report=rep,
    )
