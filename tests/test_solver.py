import dataclasses
import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import boxipm.kkt
import boxipm.solver
from boxipm import (
    BoxQP,
    InvalidProblem,
    Iterate,
    PiCapExceeded,
    StandardQP,
    compute_params,
    compute_params_practical,
    grow_pi_schedule,
    oracle_min_residual,
    oracle_solve_boxqp,
    solve,
    solve_standard,
)
from boxipm.errors import IterationBudgetExceeded, PrimalInitFailed, StepRejected
from boxipm.kkt import _X_MAX, _Workspace, _affine_rows, eval_DF, eval_F, eval_grad_f, eval_hess_f
from boxipm.linalg import EPS_MACH, QRFactor, mirror_upper, symmetric_inverse
from boxipm.neighborhoods import check_step
from boxipm.solver import (
    TRACE_FIELDS,
    _Recorder,
    _step,
    STEP_CENTRALITY,
    STEP_ERROR_RESET,
    STEP_LIFT,
    STEP_PATH,
    STEP_PRIMAL,
    lift,
    primal_init,
)
from support import (
    batched_cond_DF,
    loaded_workspace,
    newton_step,
    random_boxqp,
    random_boxqp_interior_infeasible,
    random_iterate,
    random_standard_with_optimum,
    step_factors,
)
from test_kkt import make_mp, near_path_iterate, zeros_problem
from test_properties import FAMILIES, degenerate_boxqp


class TestPrimalInit:
    def test_zero_data_stays_at_origin(self):
        p = zeros_problem(n=2, m=1, tol=0.1)
        mp = compute_params_practical(p)
        assert_allclose(primal_init(p, mp), np.zeros(2))

    def test_scalar_root_find_oracle(self):
        # minimizer of f solves (omega x + gamma)/tau_A + 2x/(1-x^2) = 0
        gamma = 0.05
        p = BoxQP(Q=[[0.0]], c=[gamma], A=[[0.0]], b=[0.0], tol=0.1)
        mp = compute_params_practical(p)

        def dphi(x):
            return (mp.omega * x + gamma) / mp.tau_A + 2.0 * x / (1.0 - x * x)

        root = brentq(dphi, -0.999, 0.999, xtol=1e-15)
        x_k = primal_init(p, mp)
        assert abs(x_k[0] - root) <= 3.0 * mp.rho + 1e-10

    def test_exactly_k_newton_steps(self):
        rng = np.random.default_rng(1)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        rep = solve(p, collect_trace=True)
        primal_rows = [e for e in rep.trace if e.step_kind == STEP_PRIMAL]
        assert len(primal_rows) == rep.params.K

    def test_guarantees(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = random_boxqp(rng, int(rng.integers(1, 6)), 2, tol=1e-2)
            mp = compute_params_practical(p)
            x_k = primal_init(p, mp)
            assert np.linalg.norm(eval_grad_f(p, mp, x_k)) <= mp.rho
            assert np.linalg.norm(x_k) <= 0.41 + 3.0 * mp.rho

    @pytest.mark.parametrize("collect_trace", [False, True])
    def test_one_gradient_per_iterate(self, monkeypatch, collect_trace):
        # grad f at each of x_0 .. x_K once, traced or not: a step's
        # right-hand side, the trace row of the step that made x_k and the
        # final check at x_K read the same evaluation.  Counted through the
        # solver's own name, which perfbench/tracer.py wraps too.
        calls = {"grad": 0}
        monkeypatch.setattr(boxipm.solver, "eval_grad_f", _counted(calls, "grad", eval_grad_f))
        p = random_boxqp(np.random.default_rng(1), 3, 2, tol=1e-2)
        rep = solve(p, collect_trace=collect_trace)
        assert calls["grad"] == rep.params.K + 1


class TestLift:
    def test_zero_point(self):
        p = zeros_problem(n=2, m=1, tol=0.1)
        mp = compute_params_practical(p)
        z = lift(p, mp, np.zeros(2))
        assert_allclose(z.lam, [0.0])
        assert_allclose(z.mu_l, mp.tau_A * np.ones(2))
        assert_allclose(z.mu_r, mp.tau_A * np.ones(2))

    def test_lambda_formula(self):
        p = BoxQP(Q=np.zeros((1, 1)), c=np.zeros(1), A=[[0.0]], b=[0.7], tol=0.1)
        mp = compute_params_practical(p)
        z = lift(p, mp, np.zeros(1))
        assert_allclose(z.lam, [0.7 / mp.omega], rtol=1e-12)

    def test_mu_formulas_at_half(self):
        p = zeros_problem(n=1, m=1, tol=0.1)
        mp = compute_params_practical(p)
        z = lift(p, mp, np.array([0.5]))
        assert_allclose(z.mu_l, [mp.tau_A / 1.5], rtol=1e-12)
        assert_allclose(z.mu_r, [mp.tau_A / 0.5], rtol=1e-12)


class TestErrorResetStep:
    def test_noop_when_blocks_already_zero(self):
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau])
        ws = loaded_workspace(p, mp, z, tau)
        _step(STEP_ERROR_RESET, ws, tau)
        assert_allclose(ws.z, z.as_array(), atol=1e-15)

    def test_restores_equality_block_linearly(self):
        # perturbing lam only enters block 2 linearly, so one reset zeroes it
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        ws = loaded_workspace(p, mp, Iterate(x=[0.0], lam=[0.25], mu_l=[tau], mu_r=[tau]), tau)
        _step(STEP_ERROR_RESET, ws, tau)
        assert abs(ws.r2[0]) <= 1e-15

    def test_never_increases_equality_residual(self):
        rng = np.random.default_rng(3)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
        before = ws.eq_norm
        _step(STEP_ERROR_RESET, ws, mp.tau_A)
        assert ws.eq_norm <= before + 1e-12 * (1.0 + before)


class TestPathStep:
    def test_pure_barrier_hand_solution(self):
        # from the exact central point the step lands exactly on the path at
        # tau_hat: x stays 0, both multipliers become tau_hat
        p = zeros_problem()
        mp = make_mp(omega=1.0, sigma=0.75)
        tau = 1.0
        ws = loaded_workspace(p, mp, Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau]), tau)
        tau_hat = mp.sigma * tau
        _step(STEP_PATH, ws, tau_hat)
        assert_allclose(ws.x, [0.0], atol=1e-15)
        assert_allclose(ws.mu_l, [tau_hat], rtol=1e-14)
        assert_allclose(ws.mu_r, [tau_hat], rtol=1e-14)


class TestCentralityStep:
    def test_noop_at_central_point(self):
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau])
        ws = loaded_workspace(p, mp, z, tau)
        _step(STEP_CENTRALITY, ws, tau)
        assert_allclose(ws.z, z.as_array(), atol=1e-15)

    def test_halves_width_from_boundary(self):
        # start on the width-theta boundary of a pure-barrier instance
        mp = make_mp(theta=0.25, beta=0.25)
        tau = 1.0
        mu_l = 1.25
        p = BoxQP(Q=np.zeros((1, 1)), c=[0.25], A=np.zeros((1, 1)), b=[0.0], tol=0.1)
        ws = loaded_workspace(p, mp, Iterate(x=[0.0], lam=[0.0], mu_l=[mu_l], mu_r=[tau]), tau)
        before = ws.comp_norm
        _step(STEP_CENTRALITY, ws, tau)
        after = ws.comp_norm
        assert before == mp.theta * tau
        assert after <= 0.5 * mp.theta * tau
        assert after < before


class TestSolve:
    def test_flat_zero_instance(self):
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((1, 2)), b=np.zeros(1), tol=0.1)
        rep = solve(p)
        assert np.linalg.norm(rep.x) <= 0.1
        assert abs(rep.objective) <= 1e-12

    def test_clipped_scalar_vs_oracle(self):
        p = BoxQP(Q=[[2.0]], c=[-3.0], A=[[0.0]], b=[0.0], tol=1e-2)
        ref = oracle_solve_boxqp(p)
        rep = solve(p)
        assert abs(rep.x[0]) < 1.0
        assert rep.objective <= ref.objective + p.tol

    def test_infeasible_scalar(self):
        p = BoxQP(Q=[[2.0]], c=[0.0], A=[[1.0]], b=[2.0], tol=1e-2)
        rep = solve(p)
        chi = oracle_min_residual(p)
        assert_allclose(chi, 1.0, rtol=1e-12)
        assert rep.feas_residual <= chi + p.tol
        assert abs(rep.x[0]) < 1.0

    def test_tau_sequence_geometric(self):
        rng = np.random.default_rng(5)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        rep = solve(p, collect_trace=True)
        mp = rep.params
        taus = [e.tau for e in rep.trace if e.step_kind == STEP_PATH]
        for k, tau in enumerate(taus, start=1):
            assert abs(tau - mp.tau_A * mp.sigma**k) <= 1e-10 * mp.tau_A * mp.sigma**k
        assert rep.tau_final <= mp.tau_E * (1.0 + 1e-10)
        assert rep.iterations_pd == len(taus)
        # the loop never runs past the budget and never steps below sigma*tau_E
        assert rep.iterations_pd <= mp.M
        assert rep.tau_final >= mp.sigma * mp.tau_E * (1.0 - 1e-12)

    def test_solve_counts_by_mode(self):
        rng = np.random.default_rng(6)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        rs = solve(p, mode="stable")
        rf = solve(p, mode="fast")
        assert rs.linear_solves == rs.params.K + 1 + 3 * rs.iterations_pd
        assert rf.linear_solves == rf.params.K + 1 + 1 * rf.iterations_pd

    def test_strict_params_on_trivial_instance(self):
        # the theoretical cascade is representable (and attainable) only for
        # near-trivial data at large tol
        p = BoxQP(Q=[[0.0]], c=[0.01], A=[[0.0]], b=[0.0], tol=10.0)
        rep = solve(p, params_mode="strict", mode="fast")
        assert rep.params.floors_applied == ()
        assert abs(rep.x[0]) < 1.0

    def test_unconstrained_m_zero(self):
        p = BoxQP(Q=2.0 * np.eye(2), c=[-3.0, 0.0], A=np.zeros((0, 2)), b=np.zeros(0), tol=1e-2)
        rep = solve(p)
        ref = oracle_solve_boxqp(p)
        assert rep.objective <= ref.objective + p.tol
        assert rep.feas_residual == 0.0

    @pytest.mark.parametrize("option, value", [
        ("mode", "Stable"), ("mode", "short"), ("params_mode", "exact"), ("params_mode", ""),
    ])
    def test_unknown_mode_strings_are_invalid(self, option, value):
        p = zeros_problem(n=2, m=1, tol=0.1)
        with pytest.raises(InvalidProblem, match=f"unknown {option.replace('_', ' ')} {value!r}"):
            solve(p, **{option: value})

    def test_interiority_throughout(self):
        rng = np.random.default_rng(7)
        p = random_boxqp(rng, 3, 2, feasible=False, tol=1e-2)
        rep = solve(p, collect_trace=True)
        margins = [e.interior_margin for e in rep.trace if e.step_kind != STEP_PRIMAL]
        assert min(margins) > 0.0


def _step_loop(p, mode, params_mode="practical"):
    """solve() spelled out as its loop of _step on one workspace, which
    carries e from step to step; returns the reported x and the last tau."""
    mp = compute_params(p) if params_mode == "strict" else compute_params_practical(p)
    tau = mp.tau_A
    ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), tau, mode)
    _step(STEP_ERROR_RESET, ws, tau)
    cycle = [STEP_PATH] + ([STEP_CENTRALITY, STEP_ERROR_RESET] if mode == "stable" else [])
    for _ in range(mp.M):
        tau = mp.sigma * tau
        for kind in cycle:
            _step(kind, ws, tau)
        if tau <= mp.tau_E:
            break
    return ws.rounded_x(), tau


class TestSolveComposition:
    """solve() is its _step loop on one workspace, which derives e from x
    once, at the lift point, and carries it from step to step."""

    @pytest.mark.parametrize("mode", ["stable", "fast"])
    def test_step_functions_reproduce_solve(self, mode):
        # a feasible draw, and a box-infeasible one whose x ends on the faces
        for feasible in (True, False):
            p = random_boxqp(np.random.default_rng(13), 4, 2, feasible=feasible, tol=1e-2)
            rep = solve(p, mode=mode)
            x, tau = _step_loop(p, mode)
            assert x.tobytes() == rep.x.tobytes()
            assert tau == rep.tau_final

    def test_strict_fast_solve_is_the_step_loop(self):
        p = BoxQP(Q=[[0.0]], c=[0.01], A=[[0.0]], b=[0.0], tol=10.0)
        rep = solve(p, params_mode="strict", mode="fast")
        x, tau = _step_loop(p, "fast", params_mode="strict")
        assert x.tobytes() == rep.x.tobytes()
        assert tau == rep.tau_final

    @pytest.mark.parametrize(
        "mode, cycle",
        [("stable", [STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET]), ("fast", [STEP_PATH])],
    )
    def test_trace_shape(self, mode, cycle):
        rng = np.random.default_rng(13)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        rep = solve(p, mode=mode, collect_trace=True)
        K = rep.params.K
        kinds = [e.step_kind for e in rep.trace]
        assert kinds == [STEP_PRIMAL] * K + [STEP_LIFT, STEP_ERROR_RESET] + cycle * rep.iterations_pd
        assert [e.k for e in rep.trace] == list(range(1, len(rep.trace) + 1))
        lift_row, reset_row = rep.trace[K], rep.trace[K + 1]
        # the initial reset factors DF at the lift point
        assert lift_row.cond_DF == reset_row.cond_DF
        assert math.isnan(lift_row.step_norm)


def _solve_digest(rep):
    """sha256 over x, tau_final, linear_solves, iterations_pd and every trace row."""
    h = hashlib.sha256(rep.x.tobytes())
    h.update(struct.pack("<dqq", rep.tau_final, rep.linear_solves, rep.iterations_pd))
    for e in rep.trace:
        h.update(struct.pack("<qd", e.k, e.tau) + e.step_kind.encode())
        h.update(struct.pack("<8d", *(getattr(e, f) for f in TRACE_FIELDS[3:])))
    return h.hexdigest()[:16]


# seed, n, m, feasible, mode, traced, digest
_DIGEST_CASES = [
    (61, 3, 2, True, "stable", True, "bc0307c899188f3f"),
    (62, 5, 2, True, "fast", False, "1acba0f212a49416"),
    (63, 8, 3, True, "stable", False, "908b656b184d629a"),
    (64, 5, 2, False, "stable", True, "e4146badad0eb1f8"),
    (65, 3, 1, False, "fast", True, "2932131d6b712577"),
    (66, 8, 3, False, "stable", False, "0c0bf12345c6f926"),
]


class TestSolveBytes:
    # The digests of _DIGEST_CASES: the first 16 hex digits of
    # _solve_digest, first measured before the step loop was streamlined
    # (validation moved to the public boundary, one eval_F per step,
    # reduced matrices copied from a template).  A change that claims
    # bit-identical solves must keep them; one that changes the arithmetic on
    # purpose re-measures them and says why.  They pin binary64 results of
    # the numpy/OpenBLAS build the suite runs on: a BLAS with other kernels
    # may round differently.
    # The traced digests (61, 64, 65) were re-measured when cond_DF became a
    # LAPACK 1-norm estimate instead of a power-iteration 2-norm estimate
    # (d5d834f6e245c172, be802806af747fc7, e02a44af740b3398 before); with
    # cond_DF left out of the hash they were unchanged (c3dbd8cd124b6bba,
    # 1d4fbcfaab54f631, a7b2d956ea2b9da7).
    # All six were re-measured when (r1, r2) became one gemv T z + (c, -b),
    # the Q block's diagonal (Q_jj + omega) + w_l + w_r and
    # dmu = g34/e - w∘(dx, -dx), which round differently; the counts
    # (linear_solves, iterations_pd, x_clipped, mu_reset) stayed the same
    # and x moved by at most 1.1e-15.  Before: 61 c569f5ad8e3430b1,
    # 62 25800f110b889c14, 63 1b8e3e127ff27f51, 64 fb7a734c88fc2a65,
    # 65 ee531b92383c890d, 66 21f295b41d6f1451.
    # All six were re-measured when the reduced Newton system became one
    # symmetric Bunch-Kaufman solve (LAPACK dsysv) instead of a
    # column-pivoted QR; the counts stayed the same, x moved by at most
    # 2.2e-16 and the objective by at most 4 ulp.  Before: 61 d8dc925b1f234acc,
    # 62 3caf25be2de09f62, 63 f95ab1da2368ee71, 64 523f9ef2ebf45654,
    # 65 f84da1605a661ae9, 66 481a3d929d6fdd17.
    # The traced digests (61, 64, 65) were re-measured when cond_DF became
    # the exact kappa_1 of DF, from the factor of the step's reduced matrix,
    # instead of LAPACK's LU estimate (faa0c84a08dfb2e0, 8307f2410663782d,
    # c46f50af59bada36 before); with cond_DF left out of the hash they were
    # unchanged (a5fae1620f369d58, 544e118119ca3f32, e0fbc53af768d04f).
    # The stable digests (61, 63, 64) were re-measured when each cycle's
    # error reset began to solve on the centrality step's factor (LAPACK
    # dsytrs) instead of factoring its own matrix; the counts stayed the
    # same, x moved by at most 2.2e-16, and 66 kept its digest.  Before:
    # 61 bd8fd757b33d9396, 63 9c71384067d4ad25, 64 a9fb36e332870ac6.
    # All six were re-measured when the steps began to carry e = (1 + x,
    # 1 - x) as e + (dx, -dx) instead of re-deriving it from x after each
    # update, and the reported x became the state's x rounded into the open
    # box once, at the end: e rounds differently, so every later step does.
    # linear_solves, iterations_pd, factorizations and mu_reset stayed the
    # same; x moved by at most 2.2e-15 and the objective by at most 5.3e-15.
    # x_clipped now counts the rounding of the reported x (64: 894 -> 1,
    # 65: 142 -> 1, 66: 1,892 -> 0).  Before: 61 375c61b1e3290112,
    # 62 62c928f8b60c022e, 63 0bef941c96699a8b, 64 ceff3f4a38116c26,
    # 65 a1e2ad0cf34b869c, 66 8d5acd3641fa06ef.
    # The feasible digests (61, 62, 63) were re-measured when the reduced
    # matrix's lam rows and columns, and so dlam, were scaled by the power
    # of two nearest 1/sqrt(omega): the scaling is exact, so a solve keeps
    # its bits unless Bunch-Kaufman picks other pivots, which it did on
    # these three.  The counts stayed the same, x moved by at most 1.1e-15
    # and the objective by at most 5.3e-15; 64, 65 and 66 kept their
    # digests.  Before: 61 b49dadfbcbaea3b5, 62 2bc42ae1547b1c62,
    # 63 2839a486398df334.
    # Five digests (61, 63, 64, 65, 66) were re-measured when a path step
    # right after an error reset began to solve on the held factor (LAPACK
    # dsytrs) with that factor's w, instead of factoring its own matrix:
    # every stable cycle's path step and a fast solve's first one.  The
    # counts (linear_solves, iterations_pd) stayed the same; factorizations
    # fell to K + 1 + cycles (stable) and K + cycles (fast); x moved by at
    # most 2.2e-15 and the objective by at most 4.5e-15; 66's x_clipped
    # went from 0 to 2.  62 (fast, untraced) kept its digest, and so did
    # 65's x: its digest moved with the trace row of the reused step.
    # Before: 61 8ccc8605b486b3d1, 63 a2c4435147a53fc5, 64 6e78bc7b046fb8f3,
    # 65 145942242fe4f22f, 66 e79adba84d7b63ea.
    # All six were re-measured when a held factor began to serve several
    # cycles (the Shamanskii rule of _step): the path and centrality steps
    # of three stable cycles, four fast path steps.  The counts
    # (linear_solves, iterations_pd) stayed the same; factorizations fell to
    # K + 1 + cycles // 3 (stable) and K + 1 + cycles // 4 (fast); x moved by
    # at most 4.4e-14 (62) and 5.5e-15 elsewhere, the objective by at most
    # 3.5e-14; 65's x_clipped went from 1 to 0.  The traced rows' cond_DF
    # now repeats a factoring row's value across its factor's cycles.
    # Before: 61 33bcea707fb0a5f5, 62 45873c73ba8539a1, 63 ac3b7ebec4fcb6c8,
    # 64 8dd3d1abaa12cbfe, 65 c6b13566ad20b203, 66 2986ae9346411df3.
    # The test ids carry the seed and shape, not the digest, so that a
    # re-measurement keeps the test names.
    @pytest.mark.parametrize(
        "seed, n, m, feasible, mode, traced, digest", _DIGEST_CASES,
        ids=[f"seed{c[0]}-n{c[1]}-m{c[2]}" for c in _DIGEST_CASES],
    )
    def test_solve_digest(self, seed, n, m, feasible, mode, traced, digest):
        p = random_boxqp(np.random.default_rng(seed), n, m, feasible=feasible, tol=1e-2)
        assert _solve_digest(solve(p, mode=mode, collect_trace=traced)) == digest


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class _CountingNumpy:
    """Stands in for the ``np`` of a module and counts the calls of numpy's
    functions and ufuncs through it, a ufunc's ``reduce`` included, and the
    shapes of the arrays they return; types and submodules pass through.
    A routine looked up once and called many times is counted per call."""

    def __init__(self):
        self.calls = 0
        self.shapes = set()

    def count(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.shapes.add(out.shape)
            return out
        return counted

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return _CountedUfunc(self.count, attr)
        if not callable(attr) or isinstance(attr, type):
            return attr
        return self.count(attr)


class _CountedUfunc:
    """A ufunc whose calls and reductions a _CountingNumpy counts."""

    def __init__(self, count, ufunc):
        self._call = count(ufunc)
        self.reduce = count(ufunc.reduce)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)


class _CountingLapack:
    """Stands in for ``boxipm.linalg.lapack`` and counts the calls of each
    LAPACK routine, not its lookups: a step looks its routines up once per
    workspace."""

    module = scipy.linalg.lapack

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        fn = getattr(self.module, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


class _CountingBlas(_CountingLapack):
    """Stands in for ``boxipm.linalg.blas`` and counts the calls of each
    BLAS routine, as _CountingLapack does LAPACK's."""

    module = scipy.linalg.blas


def _edit_solutions(monkeypatch, edit):
    """Inject at the LAPACK boundary, ``boxipm.linalg.lapack``: every dsysv
    and dsytrs call, that is every primal-dual step's one solve, solves as
    LAPACK does, then ``edit(u)`` may change its solution (dx, dlam), the
    step's own buffer, in place.  Patch before a workspace's first step,
    which binds the routines."""

    class Editing:
        def __getattr__(self, name):
            fn = getattr(scipy.linalg.lapack, name)
            if name not in ("dsysv", "dsytrs"):
                return fn

            def edited(*args, **kwargs):
                out = fn(*args, **kwargs)
                edit(out[2] if name == "dsysv" else out[0])
                return out
            return edited

    monkeypatch.setattr(boxipm.linalg, "lapack", Editing())


# Calls per step: numpy module calls, and BLAS calls per routine.  A step
# that factors writes the Q block's diagonal (one dcopy, two daxpy) and
# tests it (one dasum); a step that is not a reset adds g34/e into its
# right-hand side (two daxpy) and its dmu (one daxpy), and a path step
# rewrites (r3, r4) at its tau (one subtract).
_RESET_FACTORS = (7, {"dcopy": 3, "daxpy": 3, "dasum": 3, "dscal": 3})
_RESET_HELD = (6, {"dcopy": 2, "dscal": 3, "dasum": 1, "daxpy": 1})
_PATH_HELD = (8, {"daxpy": 4, "dasum": 2, "dcopy": 2, "dscal": 3})
_CENTRALITY_HELD = (7, {"daxpy": 4, "dasum": 2, "dcopy": 2, "dscal": 3})
_CENTRALITY_FACTORS = (8, {"daxpy": 6, "dcopy": 3, "dasum": 3, "dscal": 3})
# The initial reset, then three stable cycles on its factor; the third
# cycle's centrality step factors.
_STEP_CALLS = (
    [_RESET_FACTORS]
    + [_PATH_HELD, _CENTRALITY_HELD, _RESET_HELD] * 2
    + [_PATH_HELD, _CENTRALITY_FACTORS, _RESET_HELD]
)


class TestStepLoopStructure:
    """Counts calls, not time: validation, a second F evaluation, a per-step
    workspace, a concatenation or any other numpy call creeping back into
    the step loop fails here."""

    def test_calls_per_solve(self, monkeypatch):
        calls = dict.fromkeys(
            ["eval_F", "post_init", "workspace", "check_step", "factor", "symmetric_inverse"], 0
        )
        monkeypatch.setattr(_Workspace, "eval_F", _counted(calls, "eval_F", _Workspace.eval_F))
        monkeypatch.setattr(
            _Workspace, "__init__", _counted(calls, "workspace", _Workspace.__init__)
        )
        monkeypatch.setattr(boxipm.solver, "check_step", _counted(calls, "check_step", check_step))
        monkeypatch.setattr(
            Iterate, "__post_init__", _counted(calls, "post_init", Iterate.__post_init__)
        )
        monkeypatch.setattr(QRFactor, "__init__", _counted(calls, "factor", QRFactor.__init__))
        lapack = _CountingLapack()
        monkeypatch.setattr(boxipm.linalg, "lapack", lapack)
        monkeypatch.setattr(
            boxipm.kkt, "symmetric_inverse",
            _counted(calls, "symmetric_inverse", boxipm.kkt.symmetric_inverse),
        )
        rng = np.random.default_rng(13)
        rep = solve(random_boxqp(rng, 4, 2, feasible=True, tol=1e-2), mode="stable")
        pd_steps = rep.linear_solves - rep.params.K  # the initial reset plus 3 per cycle
        cycles = rep.iterations_pd
        assert pd_steps > 100
        assert calls["factor"] == rep.params.K  # the primal Hessian steps only
        # one LAPACK call per primal-dual step: the initial reset and every
        # third cycle's centrality step factor (dsysv); every other step
        # solves on the held factor (dsytrs)
        assert lapack.calls["dsysv"] == 1 + cycles // 3
        assert lapack.calls["dsytrs"] == pd_steps - 1 - cycles // 3
        assert calls["eval_F"] == pd_steps + 1  # + F at the lift point
        assert calls["post_init"] == 1  # the lift point
        assert calls["workspace"] == 1
        assert calls["check_step"] == pd_steps  # one rule, once per step
        assert calls["symmetric_inverse"] == 0  # only traced solves take cond(DF)

    @pytest.mark.parametrize("mode, cycles_per_factor", [("stable", 3), ("fast", 4)])
    def test_factorizations_are_the_factoring_lapack_calls(
        self, monkeypatch, mode, cycles_per_factor
    ):
        # QR of the K Hessians (dgeqp3) and Bunch-Kaufman (dsysv) of every
        # primal-dual step that does not solve on the held factor: the
        # initial reset, then the centrality step of every third stable
        # cycle or the path step of every fourth fast one
        lapack = _CountingLapack()
        monkeypatch.setattr(boxipm.linalg, "lapack", lapack)
        rep = solve(random_boxqp(np.random.default_rng(13), 4, 2, tol=1e-2), mode=mode)
        assert rep.factorizations == lapack.calls["dgeqp3"] + lapack.calls["dsysv"]
        assert rep.factorizations == rep.params.K + 1 + rep.iterations_pd // cycles_per_factor

    def test_numpy_calls_per_step_kind(self, monkeypatch):
        # numpy module calls in kkt, solver and linalg, and BLAS calls, per
        # step as solve() makes it (a path step includes rewriting (r3, r4)
        # at its tau); the margin's np.minimum.reduce is one, and method calls
        # such as ndarray.dot are not counted.  The step binds its ufuncs and
        # BLAS routines at its workspace's first step, after the counters are
        # in place.  The initial reset and the third cycle's centrality step
        # factor their own matrices; every other step solves on the held
        # factor and rebuilds no Q block diagonal.  A reset's g34 is 0, so it
        # adds no g34/e to its right-hand side or its dmu.
        p = random_boxqp(np.random.default_rng(13), 4, 2, feasible=True, tol=1e-2)
        mp = compute_params_practical(p)
        ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
        counter, blas = _CountingNumpy(), _CountingBlas()
        for module in (boxipm.kkt, boxipm.solver, boxipm.linalg):
            monkeypatch.setattr(module, "np", counter)
        monkeypatch.setattr(boxipm.linalg, "blas", blas)
        tau, calls = mp.tau_A, []
        kinds = [STEP_ERROR_RESET] + [STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET] * 3
        for kind in kinds:
            counter.calls, blas.calls = 0, {}
            if kind == STEP_PATH:
                tau = mp.sigma * tau
            e, mue = ws.e.copy(), ws.mue.copy()
            _step(kind, ws, tau)
            calls.append((counter.calls, blas.calls))
            # the step carries e as e + (dx, -dx), writes mu∘e inline, bit
            # for bit as derive_mue writes it, and dmu = g34/e - w'∘(dx, -dx)
            # as ufuncs write it, with the w' = mu'/e' of the step that
            # factored; a reset's g34 is 0 and its dmu -(w'∘(dx, -dx))
            dx = ws.dz_x
            de = np.concatenate([dx, -dx])
            assert ws.e.tobytes() == (e + de).tobytes()
            w_de = ws.w * de
            dmu = -w_de if kind == STEP_ERROR_RESET else -(mue - tau) / e - w_de
            assert ws.dz_mu.tobytes() == dmu.tobytes()
            mue = ws.mue.copy()
            ws.derive_mue()
            assert mue.tobytes() == ws.mue.tobytes()
        assert calls == _STEP_CALLS

    def test_numpy_calls_per_traced_step_kind(self, monkeypatch):
        # as above, each step followed by its trace row: recording a row
        # copies buffers by assignment and makes no numpy call, so a traced
        # step costs what an untraced one does.  A flush makes a fixed
        # number of calls, the same for 8 rows on 1 factor as for 12 on 2
        # (the index pairs of the inverses' mirror are cached per size, so
        # they are built before the counter is in place).
        p = random_boxqp(np.random.default_rng(13), 4, 2, feasible=True, tol=1e-2)
        mp = compute_params_practical(p)
        ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
        trace = []
        cycle = (STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET)
        record = _Recorder(ws, trace, cycle)
        mirror_upper(np.empty((p.n + p.m, p.n + p.m)))
        counter = _CountingNumpy()
        for module in (boxipm.kkt, boxipm.solver, boxipm.linalg, boxipm.neighborhoods):
            monkeypatch.setattr(module, "np", counter)
        blas = _CountingBlas()
        monkeypatch.setattr(boxipm.linalg, "blas", blas)
        tau, calls, flushes = mp.tau_A, [], []
        record(STEP_LIFT, tau)
        assert counter.calls == 0
        for kinds in ((STEP_ERROR_RESET,) + cycle * 2, cycle * 4):
            for kind in kinds:
                counter.calls, blas.calls = 0, {}
                if kind == STEP_PATH:
                    tau = mp.sigma * tau
                _step(kind, ws, tau)
                record(kind, tau)
                calls.append((counter.calls, blas.calls))
            counter.calls, blas.calls = 0, {}
            record.flush()
            flushes.append((counter.calls, blas.calls))
        assert calls == _STEP_CALLS + _STEP_CALLS[1:]  # six cycles
        assert len(trace) == 1 + 7 + 12 and record.rows == []
        assert flushes == [(31, {}), (31, {})]

    def test_traced_inverse_runs_in_a_recorder_slot(self, monkeypatch):
        # every dsytri of a traced solve inverts a factor in place in a
        # slot of the Fortran-ordered factor stack that the solve's one
        # recorder holds, once per factoring primal-dual step
        recorders, inverted = [], []
        build = _Recorder.__init__

        def init(self, *args, **kwargs):
            build(self, *args, **kwargs)
            recorders.append(self)

        class SpyLapack:
            def __getattr__(self, name):
                fn = getattr(scipy.linalg.lapack, name)
                if name != "dsytri":
                    return fn

                def spied(a, *args, **kwargs):
                    out = fn(a, *args, **kwargs)
                    inverted.append((a, kwargs.get("overwrite_a"), out[0]))
                    return out
                return spied

        monkeypatch.setattr(_Recorder, "__init__", init)
        monkeypatch.setattr(boxipm.linalg, "lapack", SpyLapack())
        p = random_boxqp(np.random.default_rng(13), 4, 2, feasible=True, tol=1e-2)
        rep = solve(p, collect_trace=True)
        (record,) = recorders
        assert len(inverted) == rep.factorizations - rep.params.K > 100
        slots = record.factors.__array_interface__["data"][0]
        for a, overwrite_a, Y in inverted:
            assert Y is a and overwrite_a and np.shares_memory(a, record.factors)
            assert a.flags.f_contiguous and a.shape == (p.n + p.m, p.n + p.m)
            assert (a.__array_interface__["data"][0] - slots) % a.nbytes == 0

    def test_traced_solve_builds_no_N_by_N_DF(self, monkeypatch):
        # cond_DF comes from the factor of the (n+m) reduced matrix that the
        # step's one symmetric solve made: one dsytri per factoring
        # primal-dual step, the initial reset and every third cycle's
        # centrality step, none for the steps that solve on the held factor
        # (dsytrs), no LU, and no N x N array made through numpy or LAPACK
        # in kkt, solver or linalg
        n, m = 4, 2
        N = 3 * n + m
        lapack_calls, shapes = {}, set()

        class SpyLapack:
            def __getattr__(self, name):
                fn = getattr(scipy.linalg.lapack, name)

                def spied(*args, **kwargs):
                    lapack_calls[name] = lapack_calls.get(name, 0) + 1
                    shapes.update(a.shape for a in args if isinstance(a, np.ndarray))
                    out = fn(*args, **kwargs)
                    shapes.update(a.shape for a in out if isinstance(a, np.ndarray))
                    return out
                return spied

        calls = {"workspace": 0}
        counter = _CountingNumpy()
        monkeypatch.setattr(boxipm.linalg, "lapack", SpyLapack())
        for module in (boxipm.kkt, boxipm.solver, boxipm.linalg):
            monkeypatch.setattr(module, "np", counter)
        monkeypatch.setattr(
            _Workspace, "__init__", _counted(calls, "workspace", _Workspace.__init__)
        )
        rng = np.random.default_rng(13)
        rep = solve(random_boxqp(rng, n, m, feasible=True, tol=1e-2), collect_trace=True)
        pd_steps = rep.linear_solves - rep.params.K
        cycles = rep.iterations_pd
        assert len(rep.trace) == rep.linear_solves + 1
        assert calls == {"workspace": 1}
        assert lapack_calls == {
            "dgeqp3": rep.params.K, "dormqr": rep.params.K, "dtrtrs": rep.params.K,
            "dtrcon": rep.params.K, "dsysv": 1 + cycles // 3,
            "dsytrs": 3 * cycles - cycles // 3, "dsytri": 1 + cycles // 3,
        }
        assert pd_steps == 1 + 3 * cycles
        shapes |= counter.shapes
        assert (N, N) not in shapes and (n + m, n + m) in shapes

    def test_concatenations_do_not_grow_with_M(self, monkeypatch):
        calls = {"concatenate": 0}
        monkeypatch.setattr(np, "concatenate", _counted(calls, "concatenate", np.concatenate))
        counts, Ms = [], []
        for tol in (1e-2, 1e-4):
            rng = np.random.default_rng(13)
            calls["concatenate"] = 0
            rep = solve(random_boxqp(rng, 4, 2, feasible=True, tol=tol), mode="stable")
            counts.append(calls["concatenate"])
            Ms.append(rep.iterations_pd)
        assert Ms[0] != Ms[1]
        assert counts[0] == counts[1]


def _hand_iterate():
    return Iterate(x=[0.5, -0.5, 0.0], lam=[0.1], mu_l=[1.0, 2.0, 0.5], mu_r=[0.5, 1.0, 2.0])


def _hand_workspace():
    p = random_boxqp(np.random.default_rng(4), 3, 1, tol=1e-2)
    return _Workspace(p, compute_params_practical(p))


class TestRepairInvariants:
    """A step writes the next state unchecked, and rejects it when its
    margin, the minimum of (mu, e), is not positive: a step that leaves the
    box and one that drives a multiplier to zero alike, and no multiplier
    is reset.  Steps are injected at the LAPACK boundary
    (:func:`_edit_solutions`) or come from a crafted state."""

    @staticmethod
    def _update(ws, dz):
        # z + dz and e + (dx, -dx), as a step writes them before its margin test
        np.add(ws.z, dz, out=ws.z)
        np.add(ws.e_l, dz[: ws.n], out=ws.e_l)
        np.subtract(ws.e_r, dz[: ws.n], out=ws.e_r)

    @staticmethod
    def _rejected_step(monkeypatch, kind, x, dx0):
        # a step of kind at tau = 0.5 from x with lam = 0 and mu = 1 on the
        # zero right-hand side, solved as dx = (dx0, 0, 0) and dlam = 0:
        # dmu = -w∘(dx, -dx), with w = mu/e
        p = BoxQP(Q=np.eye(3), c=np.zeros(3), A=[[0.1, 0.1, 0.1]], b=[0.0], tol=1e-2)
        mp = compute_params_practical(p)

        def injected(u):
            u[:] = 0.0
            u[0] = dx0

        _edit_solutions(monkeypatch, injected)
        z = Iterate(x=x, lam=[0.0], mu_l=[1.0] * 3, mu_r=[1.0] * 3)
        ws = loaded_workspace(p, mp, z, 0.5)
        ws.F[:] = 0.0
        ws.mue[:] = 0.5  # a path step rewrites (r3, r4) as mu∘e - tau
        with pytest.raises(StepRejected, match=f"{kind} step left the interior") as info:
            _step(kind, ws, 0.5)
        exc = info.value
        assert (exc.kind, exc.tau, exc.block, exc.limit) == (kind, 0.5, "interior", 0.0)
        assert exc.value == ws.mu_e.min() < 0.0
        assert list(exc.context()) == ["kind", "tau", "block", "value", "limit"]
        return ws

    @pytest.mark.parametrize("kind", [STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET])
    def test_x_outside_the_box_is_rejected(self, monkeypatch, kind):
        # x_0 = 0.5 + 0.75 leaves the box, e_r,0 = -0.25, while mu_l,0 halves
        # and mu_r,0 grows
        ws = self._rejected_step(monkeypatch, kind, [0.5, -0.5, 0.0], 0.75)
        assert ws.e_r[0] == -0.25 == ws.mu_e.min()
        assert ws.mu.min() > 0.0

    @pytest.mark.parametrize("kind", [STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET])
    def test_a_step_that_drives_mu_negative_inside_the_box_is_rejected(self, monkeypatch, kind):
        # dx_0 = -1.35 keeps x_0 = 0.5 - 1.35 in the box, e_l,0 = 0.15, and
        # drives mu_r,0 = 1 + (1/0.5)(-1.35) to -1.7
        ws = self._rejected_step(monkeypatch, kind, [0.5, -0.5, 0.0], -0.9 * 1.5)
        assert ws.e.min() > 0.0
        assert ws.mu_r[0] == ws.mu_e.min() < 0.0

    def test_x_on_a_face_is_rounded_where_it_is_handed_out(self):
        # e keeps a distance of 2^-54 to the faces, which x, rounded onto
        # them, cannot; the state keeps both, and x is rounded where it is
        # handed out
        ws = _hand_workspace()
        ws.load(_hand_iterate())
        dz = np.zeros(3 * 3 + 1)
        dz[:2] = [0.5 - 2.0**-54, -0.5 + 2.0**-54]
        self._update(ws, dz)
        assert ws.x.tolist() == [1.0, -1.0, 0.0]
        assert (ws.e_r[0], ws.e_l[1]) == (2.0**-54, 2.0**-54)
        x = ws.rounded_x()
        assert x.tolist() == [_X_MAX, -_X_MAX, 0.0]
        assert ws.x.tolist() == [1.0, -1.0, 0.0]

    def test_an_error_reset_that_drives_mu_negative_is_rejected(self):
        # a reset at x = 0.5 with c set so that the Newton step is
        # dx = -(1 + 1e-9)/2, just past e_r: mu_r = 1e-3 (1 + dx/e_r) reaches
        # -1e-12, while e stays positive.  Resetting mu_r to tau/e_r = 1e-12
        # would leave ||(r1, r2)|| = 2e-12, inside the reset's floor of
        # 8.9e-12, so only the interior test rejects the step.
        mp = make_mp()  # omega = 1
        tau = 1e-12
        z = Iterate(x=[0.5], lam=[0.0], mu_l=[1e-3], mu_r=[1e-3])
        r1 = eval_F(zeros_problem(tol=0.1), mp, z, tau).r1[0]
        G = 1.0 + 1e-3 / 1.5 + 1e-3 / 0.5  # omega + mu_l/(1 + x) + mu_r/(1 - x)
        p = BoxQP(Q=[[0.0]], c=[0.5 * (1.0 + 1e-9) * G - r1], A=[[0.0]], b=[0.0], tol=0.1)
        ws = loaded_workspace(p, mp, z, tau)
        with pytest.raises(StepRejected, match="error_reset step left the interior") as info:
            _step(STEP_ERROR_RESET, ws, tau)
        exc = info.value
        assert (exc.kind, exc.tau, exc.block, exc.limit) == (STEP_ERROR_RESET, tau, "interior", 0.0)
        assert -1.1e-12 < exc.value < -0.9e-12

    def test_a_step_that_drives_mu_negative_is_rejected(self):
        # a crafted right-hand side at a central point: g3 = -2 tau and
        # g1 = -g3/(1+x) give dx = 0 and dmu_l = g3/(1+x) = -2 mu_l.  Its
        # |mu_l (1 + x) - tau| = 2 tau is far outside the half width.
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.25], lam=[0.0], mu_l=[tau / 1.25], mu_r=[tau / 0.75])
        ws = loaded_workspace(p, mp, z, tau)
        ws.F[:] = [-1.0 / 1.25, 0.0, 1.0, 0.0]  # g = (1/1.25, 0, -1, 0)
        with pytest.raises(StepRejected, match="centrality step left the interior") as info:
            _step(STEP_CENTRALITY, ws, tau)
        assert ws.dz[0] == 0.0 and ws.dz[2] == -2.0 * z.mu_l[0]
        exc = info.value
        assert (exc.kind, exc.tau, exc.block, exc.limit) == (STEP_CENTRALITY, tau, "interior", 0.0)
        assert exc.value == ws.mu_l[0] == -z.mu_l[0] < 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_is_rejected(self, monkeypatch, bad):
        p = random_boxqp(np.random.default_rng(4), 3, 1, tol=1e-2)
        mp = compute_params_practical(p)
        z = _hand_iterate()

        def broken(u):
            u[1] = bad

        _edit_solutions(monkeypatch, broken)
        ws = loaded_workspace(p, mp, z, 1.0)
        with pytest.raises(StepRejected, match="non-finite components") as info:
            _step(STEP_PATH, ws, mp.sigma)
        assert (info.value.kind, info.value.tau) == (STEP_PATH, mp.sigma)

    def test_huge_finite_step_is_checked_without_a_warning(self, monkeypatch):
        # dz'dz would overflow, and ndarray.dot warns when it overflows; the
        # step is finite, so it is taken, and it leaves the box: e_r,0 =
        # 0.5 - 1e200.  mu_0 is tiny, so that the dmu_0 = -w∘(dx_0, -dx_0)
        # part of the step stays moderate.
        def huge(u):
            u[0] = 1e200

        _edit_solutions(monkeypatch, huge)
        ws = _hand_workspace()
        ws.load(Iterate(x=[0.5, -0.5, 0.0], lam=[0.1], mu_l=[1e-190, 2.0, 0.5],
                        mu_r=[1e-190, 1.0, 2.0]))
        ws.eval_F(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected, match="centrality step left the interior") as info:
                _step(STEP_CENTRALITY, ws, 1.0)
        assert ws.dz[0] == 1e200
        assert (info.value.block, info.value.value) == ("interior", -1e200)

    def test_infinities_of_both_signs_are_rejected_without_a_warning(self, monkeypatch):
        # a weighted sum of dz would meet inf - inf, and ndarray.dot warns
        # "invalid value" there before the step could be rejected
        def opposite(u):
            u[0], u[1] = np.inf, -np.inf

        _edit_solutions(monkeypatch, opposite)
        ws = _hand_workspace()
        ws.load(_hand_iterate())
        ws.eval_F(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected, match="non-finite components"):
                _step(STEP_CENTRALITY, ws, 1.0)

    def test_rhs_infinities_of_both_signs_name_v_without_a_warning(self):
        ws = _hand_workspace()
        ws.load(_hand_iterate())
        ws.eval_F(1.0)
        ws.F[0], ws.F[1] = np.inf, -np.inf  # the x block: in v for every kind
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRejected, match="Newton system overflowed: v contains non-finite"):
                _step(STEP_CENTRALITY, ws, 1.0)

    @pytest.mark.parametrize("block", ["lam", "mu_l", "mu_r"])
    def test_overflow_to_inf_is_rejected(self, monkeypatch, block):
        # finite + finite = inf: the update passes the finite-dz check, and
        # the residual at the new point must catch it.  z holds a huge entry
        # in the block, and the step adds another: dlam from the solve (as
        # dlam/s, which the step scales back exactly); dmu
        # = g34/e - w∘(dx, -dx) from dx in a reset, whose g34 is 0, and from
        # a crafted g34 with dx = 0 in the other steps; the reset's dx takes
        # x 0.9 of the way to the face, so the step stays in the box, and,
        # from x_j = 0, takes the other multiplier of coordinate j to 0.1
        # of its value, so that no component reaches 0 and the overflow is
        # what the step is rejected for.  (r1, r2) of the right-hand side
        # is zero, so that v stays finite.
        p = BoxQP(Q=np.eye(3), c=np.zeros(3), A=[[0.1, 0.1, 0.1]], b=[0.0], tol=1e-2)
        mp = compute_params_practical(p)
        huge = 1e308
        values = {"x": [0.5, -0.5, 0.0], "lam": [0.0], "mu_l": [1.0] * 3, "mu_r": [1.0] * 3}
        j = 0 if block == "lam" else 2  # x_j = 0: mu_j/(1 +- x_j) stays finite in the reduced matrix
        values[block][j] = huge
        z = Iterate(**values)
        at = {"lam": 3, "mu_l": 4, "mu_r": 7}[block] + j
        solution = np.zeros(4)

        def overflowing(u):
            u[:] = solution

        _edit_solutions(monkeypatch, overflowing)
        with np.errstate(over="ignore", invalid="ignore"):
            for kind in (STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET):
                ws = loaded_workspace(p, mp, z, 1.0)
                ws.F[:] = 0.0
                ws.mue[:] = 1.0  # a path step rewrites (r3, r4) as mu∘e - tau
                solution[:] = 0.0
                if block == "lam":  # the solve returns dlam/s
                    solution[3] = huge / ws.lam_scale
                elif kind == STEP_ERROR_RESET:  # -w_l*dx = 0.9 mu_l, w_r*dx = 0.9 mu_r
                    solution[j] = -0.9 * ws.e_l[j] if block == "mu_l" else 0.9 * ws.e_r[j]
                else:  # g34/e = huge
                    ws.F[at] = -huge * ws.e[at - 4]
                    ws.mue[at - 4] = ws.F[at] + 1.0
                with pytest.raises(StepRejected, match="non-finite iterate") as info:
                    _step(kind, ws, 1.0)
                assert info.value.kind == kind

    def test_matrix_overflow_is_a_rejected_step(self):
        # z is valid, but mu_r/(1 - x) overflows in the reduced matrix
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0), tol=1e-2)
        mp = compute_params_practical(p)
        z = Iterate(x=[0.5, 0.0], lam=[], mu_l=[1.0, 1.0], mu_r=[1e308, 1.0])
        with np.errstate(over="ignore"):
            for kind in (STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET):
                ws = loaded_workspace(p, mp, z, 1.0)
                tau = mp.sigma if kind == STEP_PATH else 1.0
                with pytest.raises(StepRejected, match="Newton system overflowed: G") as info:
                    _step(kind, ws, tau)
                assert (info.value.kind, info.value.tau) == (kind, tau)

    @pytest.mark.parametrize("bad_G, bad_v, message", [
        (np.inf, None, "G"), (None, np.nan, "v"), (np.inf, np.nan, "G"),
    ])
    def test_non_finite_system_names_its_part(self, bad_G, bad_v, message):
        for kind in (STEP_ERROR_RESET, STEP_PATH, STEP_CENTRALITY):
            ws = _hand_workspace()
            ws.load(_hand_iterate())
            ws.eval_F(1.0)
            if bad_G is not None:
                ws.qdiag[1] = bad_G
            if bad_v is not None:
                ws.F[1] = bad_v  # the x block: in v for every kind
            with pytest.raises(
                StepRejected, match=f"Newton system overflowed: {message} contains non-finite"
            ) as info:
                _step(kind, ws, 1.0)
            assert info.value.kind == kind

    @pytest.mark.parametrize("bad_v", [np.nan, np.inf])
    def test_a_path_step_on_the_held_factor_names_v(self, bad_v):
        # after a reset the path step solves on the held factor, whose G was
        # tested when it was factored, so it tests v alone
        p = random_boxqp(np.random.default_rng(4), 3, 1, tol=1e-2)
        mp = compute_params_practical(p)
        ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
        _step(STEP_ERROR_RESET, ws, mp.tau_A)
        tau = mp.sigma * mp.tau_A
        ws.F[1] = bad_v  # the x block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                StepRejected, match="Newton system overflowed: v contains non-finite"
            ) as info:
                _step(STEP_PATH, ws, tau)
        assert info.value.kind == STEP_PATH and ws.factorizations == 1

    def test_finite_system_near_overflow_is_solved_without_a_warning(self):
        # sum(hdiag) and v'v would overflow, and ndarray.dot warns when it
        # overflows; every entry is finite, so the finiteness test passes
        ws = _hand_workspace()
        ws.load(_hand_iterate())
        ws.eval_F(1.0)
        ws.qdiag[:] = 1e308
        ws.F[0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dz = newton_step(ws, 1.0, reset_only=False)
        assert np.isfinite(dz).all()

    def test_rhs_overflow_is_a_rejected_step(self):
        # the matrix is finite, but tau/(1 - x) one ulp from the face
        # overflows in the reduced right-hand side
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0), tol=1e-2)
        mp = compute_params_practical(p)
        z = Iterate(x=[_X_MAX, 0.0], lam=[], mu_l=[1.0, 1.0], mu_r=[1e-300, 1.0])
        with np.errstate(over="ignore"):
            ws = loaded_workspace(p, mp, z, 1e300)
            with pytest.raises(StepRejected, match="Newton system overflowed: v"):
                _step(STEP_PATH, ws, mp.sigma * 1e300)


class TestStructuredRejection:
    def test_failed_post_check_carries_its_context(self):
        rng = np.random.default_rng(1)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        mp = compute_params_practical(p)
        z = random_iterate(rng, 2, 1)  # far from the central path
        ws = loaded_workspace(p, mp, z, 1.0)
        tau_hat = mp.sigma * 1.0
        with pytest.raises(StepRejected, match="path step failed its post-check: comp") as info:
            _step(STEP_PATH, ws, tau_hat)
        exc = info.value
        assert (exc.kind, exc.tau, exc.block) == (STEP_PATH, tau_hat, "comp")
        assert exc.limit == mp.theta * tau_hat * (1.0 + 1e-6)
        assert exc.value > exc.limit
        assert exc.cycle is None  # set by solve() only
        assert list(exc.context()) == ["kind", "tau", "block", "value", "limit"]

    @pytest.mark.parametrize("fail_at, cycle, kind", [
        (1, 0, STEP_ERROR_RESET), (2, 1, STEP_PATH), (6, 2, STEP_CENTRALITY),
    ])
    def test_solve_names_the_cycle(self, monkeypatch, fail_at, cycle, kind):
        # every primal-dual step makes one dsysv or dsytrs call
        calls = {"solve": 0}

        def failing(u):
            calls["solve"] += 1
            if calls["solve"] == fail_at:
                u[0] = np.nan

        _edit_solutions(monkeypatch, failing)
        p = random_boxqp(np.random.default_rng(13), 2, 1, tol=1e-2)
        with pytest.raises(StepRejected, match="non-finite components") as info:
            solve(p, mode="stable")
        mp = compute_params_practical(p)
        exc = info.value
        assert (exc.cycle, exc.kind) == (cycle, kind)
        tau = mp.tau_A
        for _ in range(cycle):
            tau = mp.sigma * tau
        assert exc.tau == tau

    @pytest.mark.parametrize("fail_at, cycle, kind", [
        (1, 0, STEP_ERROR_RESET), (4, 1, STEP_ERROR_RESET), (6, 2, STEP_CENTRALITY),
    ])
    def test_solve_names_the_cycle_of_an_interior_rejection(
        self, monkeypatch, fail_at, cycle, kind
    ):
        # dx_0 = 4 takes x_0 out of the box, on a factoring step or on a
        # cycle's reset, which solves on its centrality step's factor
        calls = {"solve": 0}

        def leaving(u):
            calls["solve"] += 1
            if calls["solve"] == fail_at:
                u[0] = 4.0

        _edit_solutions(monkeypatch, leaving)
        p = random_boxqp(np.random.default_rng(13), 2, 1, tol=1e-2)
        with pytest.raises(StepRejected, match=f"{kind} step left the interior") as info:
            solve(p, mode="stable")
        exc = info.value
        assert (exc.cycle, exc.kind, exc.block, exc.limit) == (cycle, kind, "interior", 0.0)
        assert exc.value < 0.0
        mp = compute_params_practical(p)
        tau = mp.tau_A
        for _ in range(cycle):
            tau = mp.sigma * tau
        assert exc.tau == tau

    @pytest.mark.parametrize("mode", ["stable", "fast"])
    @pytest.mark.parametrize("fail_at", [1, 2, 6, 200])
    def test_traced_solve_is_rejected_as_the_untraced_one(self, monkeypatch, mode, fail_at):
        # a rejection after the trace's first flush (200 steps) included:
        # the same step fails with the same context, and the rows recorded
        # before it raise no warning, as they are never flushed
        calls = {"solve": 0}

        def failing(u):
            calls["solve"] += 1
            if calls["solve"] == fail_at:
                u[0] = np.nan

        _edit_solutions(monkeypatch, failing)
        p = random_boxqp(np.random.default_rng(13), 2, 1, tol=1e-2)
        rejected = []
        for collect_trace in (False, True):
            calls["solve"] = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(StepRejected, match="non-finite components") as info:
                    solve(p, mode=mode, collect_trace=collect_trace)
            exc = info.value
            rejected.append((str(exc), exc.cycle, exc.context()))
        assert rejected[0] == rejected[1]
        # the initial reset is solve 1, then one solve a cycle, or three
        assert rejected[0][1] == (fail_at - 1 if mode == "fast" else (fail_at + 1) // 3)


class TestStructuredFailures:
    """IterationBudgetExceeded and PrimalInitFailed say which bound failed."""

    def test_budget_exceeded_carries_tau_tau_E_and_M(self, monkeypatch):
        p = random_boxqp(np.random.default_rng(13), 2, 1, tol=1e-2)
        mp = dataclasses.replace(compute_params_practical(p), M=2)
        monkeypatch.setattr(boxipm.solver, "compute_params_practical", lambda _: mp)
        with pytest.raises(IterationBudgetExceeded, match="after M = 2 cycles") as info:
            solve(p)
        tau = mp.sigma * (mp.sigma * mp.tau_A)
        assert info.value.context() == {"tau": tau, "tau_E": mp.tau_E, "M": 2}

    def test_primal_gradient_bound(self):
        # the strict cascade's rho = 5.6e-103 is below binary64's gradient floor
        p = random_boxqp(np.random.default_rng(0), 2, 1, tol=0.1)
        mp = compute_params(p)
        with pytest.raises(PrimalInitFailed, match="exceeds rho") as info:
            solve(p, params_mode="strict")
        exc = info.value
        assert list(exc.context()) == ["bound", "value", "limit", "K"]
        assert (exc.bound, exc.limit, exc.K) == ("gradient", mp.rho, mp.K)
        assert exc.value > exc.limit

    def test_primal_x_norm_bound(self):
        # the barrier minimizer of x^2/2 - 2x on the box is x = 0.529...,
        # outside the half ball; K = 6 steps meet rho = 1e-3
        p = BoxQP(Q=[[0.0]], c=[-2.0], A=[[0.0]], b=[0.0], tol=0.1)
        with pytest.raises(PrimalInitFailed, match="exceeds 0.5") as info:
            primal_init(p, make_mp(K=6))
        exc = info.value
        assert (exc.bound, exc.limit, exc.K) == ("x_norm", 0.5, 6)
        assert 0.529 < exc.value < 0.53

    def test_unknown_field_is_an_error(self):
        with pytest.raises(TypeError, match="no fields"):
            IterationBudgetExceeded("budget", cycle=3)


class TestRepairCounters:
    def test_infeasible_instance_clips(self):
        # its x ends on the faces, where one coordinate rounds onto a face
        # and is rounded back into the open box, once, when reported
        rng = np.random.default_rng(7)
        rep = solve(random_boxqp(rng, 3, 2, feasible=False, tol=1e-2))
        assert rep.x_clipped == 1
        assert np.abs(rep.x).max() == _X_MAX

    def test_feasible_instance_does_not(self):
        rng = np.random.default_rng(7)
        rep = solve(random_boxqp(rng, 3, 2, feasible=True, tol=1e-2))
        assert rep.x_clipped == 0


# seed, n, m, feasible, mode: draws at scale 1e4 and tol 1e-4 whose solve
# ended outside tol while a constant allowance C_dF*nu stood on top of the
# width bound (stable: objective 8972.26 against the oracle's 8647.74 on the
# first, a residual 0.18 above the box-minimal 3.4e-12 on the second; fast:
# a residual 825 above on the first), and, held to the width bound alone,
# were rejected or stayed outside tol until the reduced matrix's lam block
# was scaled by s.  Each must now be answered within tol of the oracle.
_SCALED_DRAWS = [
    (1935574272, 2, 5, False, "stable"),
    (1935574272, 2, 5, False, "fast"),
    (2487427991, 3, 5, True, "stable"),
]


class TestScaledDraws:
    @pytest.mark.parametrize(
        "seed, n, m, feasible, mode", _SCALED_DRAWS,
        ids=[f"seed{d[0]}-{d[4]}" for d in _SCALED_DRAWS],
    )
    def test_answer_within_tol(self, seed, n, m, feasible, mode):
        p = random_boxqp(np.random.default_rng(seed), n, m, feasible=feasible, tol=1e-4,
                         scale=1e4)
        rep = solve(p, mode=mode)
        assert float(np.abs(rep.x).max()) < 1.0
        assert rep.objective <= oracle_solve_boxqp(p).objective + p.tol
        assert rep.feas_residual <= oracle_min_residual(p) + p.tol


class TestInteriorInfeasibleTail:
    @pytest.mark.xfail(
        strict=True, raises=StepRejected,
        reason="rejected also when every path and centrality step factors its own "
        "matrix: near tau = 1e-7, with lam near 2.9e11 (omega = 1.2e-12), a step's "
        "complementarity residual exceeds its width bound by 1.02-2.7x "
        "(ROADMAP, Known failures)",
    )
    @pytest.mark.parametrize("mode", ["stable", "fast"])
    def test_n20_tol_1e_4_draw_is_answered(self, mode):
        # solved in 1,058 cycles at tol 1e-2; at tol 1e-4 both modes reject a
        # centrality (stable) or path (fast) step near cycle 1,020 of 1,247
        p = random_boxqp_interior_infeasible(np.random.default_rng([77, 14, 20, 5]), 20, 5,
                                             tol=1e-4)
        solve(p, mode=mode)


@pytest.fixture(scope="module")
def feasible_trace():
    rng = np.random.default_rng(101)
    p = random_boxqp(rng, 2, 1, feasible=True, tol=1e-2)
    return p, solve(p, collect_trace=True)


class TestCondDF:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_exact_kappa_1_of_DF(self, batch):
        # cond_DF is kappa_1 of the full DF at the step's starting point,
        # taken from the factor of the step's reduced matrix, for every
        # point of a batch
        rng = np.random.default_rng(31)
        for n, m in [(1, 0), (2, 0), (3, 2), (5, 7), (12, 5), (20, 8)]:
            for feasible in (True, False):
                p = random_boxqp(rng, n, m, feasible=feasible, tol=1e-2)
                mp = compute_params_practical(p)
                ws = _Workspace(p, mp)  # one workspace for every point
                for _ in range(6 // batch):
                    points = [random_iterate(rng, n, m) for _ in range(batch)]
                    for z, cond in zip(points, batched_cond_DF(ws, 0.5, points)):
                        J = eval_DF(p, mp, z)
                        exact = np.linalg.norm(J, 1) * np.linalg.norm(np.linalg.inv(J), 1)
                        assert cond == pytest.approx(exact, rel=1e-6)

    def test_rows_are_the_exact_kappa_1_where_each_step_starts(self):
        # replay a traced solve step by step, each DF at the (mu, e) that
        # the workspace carries; the lift row shares the initial reset's
        # value.  A row that solves on the held factor takes the value of
        # the row that factored it, the kappa_1 of the DF at that row's
        # start, not at its own: in a stable solve the rows of three cycles
        # share one value, in a fast one the rows of four
        p = random_boxqp(np.random.default_rng(33), 3, 2, feasible=False, tol=1e-2)
        for mode in ("stable", "fast"):
            rep = solve(p, mode=mode, collect_trace=True)
            pd_rows = rep.trace[rep.params.K :]
            mp = rep.params
            ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A, mode)
            tau, held = mp.tau_A, 0
            for row in pd_rows[1:]:
                if row.step_kind == STEP_PATH:
                    tau = row.tau
                J = _DF_of_state(ws)
                factorizations = ws.factorizations
                _step(row.step_kind, ws, tau)
                if ws.factorizations == factorizations:
                    assert row.cond_DF == factored.cond_DF
                    held += 1
                else:
                    exact = np.linalg.norm(J, 1) * np.linalg.norm(np.linalg.inv(J), 1)
                    assert row.cond_DF == pytest.approx(exact, rel=1e-6)
                    factored = row
            assert ws.factorizations == rep.factorizations - mp.K
            assert held == len(pd_rows) - 1 - ws.factorizations
            assert pd_rows[0].cond_DF == pd_rows[1].cond_DF

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, m", [(1, 0), (3, 0), (4, 2), (20, 8)])
    def test_bit_for_bit_with_the_reference_formula(self, family, n, m):
        # the batched cond_DF against the formula on a fresh inverse and a
        # C-contiguous copy of it, from the same factor, point by point and
        # for the three points as one batch; n = 1, m = 0 is d = 1, and
        # degenerate_boxqp raises m to what its family needs
        p = degenerate_boxqp(family, n, m, seed=40 + n, tol=1e-2)
        mp = compute_params_practical(p)
        rng = np.random.default_rng(41 + n + m)
        ws = _Workspace(p, mp)
        for tau, points in [
            (tau, [near_path_iterate(rng, p.n, p.m, gap, tau) for _ in range(3)])
            for gap, tau in [(0.5, 1.0), (1e-3, 1e-3), (1e-9, 1e-8)]
        ]:
            factors, ipivs, _ = step_factors(ws, tau, points)
            ref = [_reference_cond_DF(p, mp, z, f.copy(order="F"), ipiv)
                   for z, f, ipiv in zip(points, factors, ipivs)]
            assert batched_cond_DF(ws, tau, points) == ref
            assert [batched_cond_DF(ws, tau, [z])[0] for z in points] == ref

    def test_primal_rows_estimate_the_hessian_factor(self):
        rng = np.random.default_rng(32)
        p = random_boxqp(rng, 4, 2, feasible=True, tol=1e-2)
        rep = solve(p, collect_trace=True)
        mp = rep.params
        x = np.zeros(p.n)
        for e in rep.trace[: mp.K]:
            H = eval_hess_f(p, mp, x)
            assert e.cond_DF == QRFactor(H).cond_estimate()
            kappa_2 = np.linalg.cond(H)
            assert kappa_2 / p.n <= e.cond_DF <= p.n * kappa_2
            x = x + QRFactor(H).solve(-eval_grad_f(p, mp, x))


def _DF_of_state(ws):
    """DF at a workspace's state, its mu rows read from (mu, e) as the steps
    carry them: T on top of [[diag(mu_l), 0, diag(e_l), 0],
    [-diag(mu_r), 0, 0, diag(e_r)]]."""
    n, nm = ws.n, ws.n + ws.m
    J = np.zeros((nm + 2 * n, nm + 2 * n))
    J[:nm] = ws.T
    J[nm : nm + n, :n] = np.diag(ws.mu_l)
    J[nm + n :, :n] = -np.diag(ws.mu_r)
    J[nm:, nm:] = np.diag(ws.e)
    return J


def _reference_cond_DF(p, mp, z, ldu, ipiv):
    """kappa_1 of DF at z by the formula of ``boxipm.kkt.cond_DF``, written
    array by array for one point: the inverse of H in a new buffer, its lam
    rows and columns scaled back by s, and its row sums taken on a
    C-contiguous copy, so by the gemv kernel of a C matrix."""
    n, nm = p.n, p.n + p.m
    e = np.concatenate([1.0 + z.x, 1.0 - z.x])
    w = np.concatenate([z.mu_l, z.mu_r]) / e
    Y = np.ascontiguousarray(symmetric_inverse(ldu[None], [ipiv])[0])
    s = 2.0 ** round(-0.5 * math.log2(mp.omega))
    Y[n:] *= s
    Y[:, n:] *= s
    wy = w.reshape(2, n) * Y.diagonal()[:n]
    s1 = np.ones(nm)
    s1[:n] = (1.0 + w[:n]) + w[n:]
    inv_cols = np.empty(3 * n + p.m)
    inv_cols[:nm] = np.abs(Y) @ s1
    inv_cols[nm:] = (((inv_cols[:n] - np.abs(wy)) + np.abs(1.0 - wy)) / e.reshape(2, n)).ravel()
    df_cols = np.abs(_affine_rows(p, mp.omega)).sum(axis=0)
    df_cols[:n] = (df_cols[:n] + z.mu_l) + z.mu_r
    df_cols[nm:] += e
    kappa = df_cols.max() * inv_cols.max()
    return float(kappa) if kappa < math.inf else math.inf


# family, seed, n, m: every n in 2..8 once or twice over the four families
_STALE_W_DRAWS = [
    ("feasible", 81, 2, 2), ("feasible", 82, 6, 3),
    ("box_infeasible", 83, 3, 3), ("box_infeasible", 84, 7, 2),
    ("interior_infeasible", 85, 4, 3), ("interior_infeasible", 86, 8, 2),
    ("rank_deficient", 87, 5, 2), ("rank_deficient", 88, 8, 3),
    ("feasible", 89, 20, 8),
]


def _stale_w_problem(family, seed, n, m):
    rng = np.random.default_rng(seed)
    if family == "interior_infeasible":
        return random_boxqp_interior_infeasible(rng, n, m)
    if family == "rank_deficient":
        return random_boxqp(rng, n, m, rank=n // 2)
    return random_boxqp(rng, n, m, feasible=family == "feasible")


def _fresh_workspace(p, mp, ws, tau):
    """A workspace of its own at the state (z, e) of ``ws``, with F_tau in
    ``F``, whose next step factors its own matrix."""
    fresh = _Workspace(p, mp)
    fresh.ze[:] = ws.ze
    fresh.derive_mue()
    fresh.eval_F(tau)
    return fresh


def _held_step_against_a_fresh_one(p, mp, ws, kind, tau):
    """Take the path or centrality step ``kind`` on the held factor of
    ``ws`` and the same step on a fresh factor from the same state, and
    check that only the complementarity blocks move."""
    eq_floor = 100.0 * mp.N * EPS_MACH * mp.C_DF * mp.C_z  # the reset's post-check
    fresh = _fresh_workspace(p, mp, ws, tau)
    _step(kind, fresh, tau)
    w_stale, w, e = ws.w.copy(), ws.mu / ws.e, ws.e.copy()
    factorizations = ws.factorizations
    _step(kind, ws, tau)
    assert ws.factorizations == factorizations
    # (r1, r2) cancel as on a fresh factor: the stationarity row with
    # dmu = g34/e - w_stale∘de is the reduced system with w_stale
    assert max(ws.eq_norm, fresh.eq_norm) <= eq_floor
    # against a fresh factor, the stale w adds e∘(w - w_stale)∘de to
    # (r3, r4), with de = (dx, -dx), and each step leaves its own dmu∘de
    # there; each result's mu∘e - tau also rounds by about eps*|mu_j| per
    # entry
    de, fresh_de = (np.concatenate([s.dz_x, -s.dz_x]) for s in (ws, fresh))
    stale_term = e * (w - w_stale) * de
    second_order = ws.dz_mu * de - fresh.dz_mu * fresh_de
    rounding = 2.0 * EPS_MACH * np.linalg.norm(ws.mu)
    moved = ws.r34 - fresh.r34
    assert np.linalg.norm(moved - stale_term - second_order) <= rounding
    assert np.linalg.norm(moved) <= (
        np.linalg.norm(stale_term) + np.linalg.norm(second_order) + rounding
    )


class TestResetOnTheCentralityFactor:
    """A cycle's error reset solves on the held factor and its w
    (``_step``): the centrality step's in every third stable cycle, an
    earlier step's in the others.  On every cycle of a stable solve, it is
    held against a fresh-factor reset from the same state (z, e), in a
    workspace of its own; so is every centrality step that solves on the
    held factor."""

    @pytest.mark.parametrize(
        "family, seed, n, m", _STALE_W_DRAWS,
        ids=[f"{d[0]}-seed{d[1]}-n{d[2]}-m{d[3]}" for d in _STALE_W_DRAWS],
    )
    def test_stale_w_moves_only_the_complementarity_blocks(self, family, seed, n, m):
        p = _stale_w_problem(family, seed, n, m)
        mp = compute_params_practical(p)
        eq_floor = 100.0 * mp.N * EPS_MACH * mp.C_DF * mp.C_z  # the reset's post-check
        ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
        tau, held_centrality = mp.tau_A, 0
        _step(STEP_ERROR_RESET, ws, tau)
        for _ in range(mp.M):
            tau = mp.sigma * tau
            _step(STEP_PATH, ws, tau)
            if ws.held_steps < ws.held_limit:
                _held_step_against_a_fresh_one(p, mp, ws, STEP_CENTRALITY, tau)
                held_centrality += 1
            else:
                _step(STEP_CENTRALITY, ws, tau)
            fresh = _fresh_workspace(p, mp, ws, tau)
            _step(STEP_ERROR_RESET, fresh, tau)
            w_stale, w, e = ws.w.copy(), ws.mu / ws.e, ws.e.copy()
            _step(STEP_ERROR_RESET, ws, tau)
            assert max(ws.eq_norm, fresh.eq_norm) <= eq_floor
            # against a fresh factor, the stale w adds e∘(w - w_stale)∘de to
            # (r3, r4), with de = (dx, -dx); each result's mu∘e - tau also
            # rounds by about eps*|mu_j| per entry
            dx = ws.dz_x
            stale_term = np.linalg.norm(e * (w - w_stale) * np.concatenate([dx, -dx]))
            rounding = 2.0 * EPS_MACH * np.linalg.norm(ws.mu)
            moved = np.linalg.norm(ws.r34 - fresh.r34)
            assert moved <= stale_term + rounding
            if tau <= mp.tau_E:
                break
        assert tau <= mp.tau_E * (1.0 + 1e-10)
        assert held_centrality > 0


class TestPathOnTheResetFactor:
    """A path step solves on the held factor and its w (``_step``) until
    that factor has served ``HELD_STEPS[mode]`` steps other than resets:
    every path step of a stable solve, and three of every four of a fast
    one.  Each is held against a fresh-factor path step from the same state
    (z, e), in a workspace of its own: on every cycle of a stable solve and
    of a fast one, whose held steps include the last one a factor serves."""

    @pytest.mark.parametrize(
        "family, seed, n, m", _STALE_W_DRAWS,
        ids=[f"{d[0]}-seed{d[1]}-n{d[2]}-m{d[3]}" for d in _STALE_W_DRAWS],
    )
    def test_stale_w_moves_only_the_complementarity_blocks(self, family, seed, n, m):
        p = _stale_w_problem(family, seed, n, m)
        mp = compute_params_practical(p)
        for mode in ("stable", "fast"):
            ws = loaded_workspace(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A, mode)
            tau, last_held = mp.tau_A, 0
            _step(STEP_ERROR_RESET, ws, tau)
            for _ in range(mp.M):
                tau = mp.sigma * tau
                if ws.held_steps < ws.held_limit:
                    _held_step_against_a_fresh_one(p, mp, ws, STEP_PATH, tau)
                    last_held += ws.held_steps == ws.held_limit
                else:
                    factorizations = ws.factorizations
                    _step(STEP_PATH, ws, tau)
                    assert ws.factorizations == factorizations + 1
                if mode == "stable":
                    _step(STEP_CENTRALITY, ws, tau)
                    _step(STEP_ERROR_RESET, ws, tau)
                if tau <= mp.tau_E:
                    break
            assert tau <= mp.tau_E * (1.0 + 1e-10)
            assert last_held > 0


# rng seed, n, m, feasible, scale, tol: draws of a 960-solve sweep over n in
# {1, 3, 8, 20}, m in {0, 2, 5}, three families, scales 1, 1e4 and 1e-4 and
# tol 1e-2 and 1e-4.  On the first, box-infeasible, a step on a held factor
# uses the most of its width bound, 0.39 of it (stable) and 0.45 (fast);
# the second is the sweep's largest at n = 3, on scale-1e4 data.
_MARGIN_DRAWS = [
    ([9700, 0, 1, 5, 1, 0, 1], 1, 5, False, 1.0, 1e-4),
    ([9700, 1, 3, 2, 1, 1, 1], 3, 2, False, 1e4, 1e-4),
    ([9700, 0, 8, 2, 0, 0, 0], 8, 2, True, 1.0, 1e-2),
]


class TestHeldStepMargin:
    """A step on a held factor carries an error term (``_step``) that its
    post-check judges.  On these draws no path or centrality step uses more
    than three quarters of its width bound, so a ``HELD_STEPS`` large enough
    to eat that margin fails here before it rejects a solve."""

    @pytest.mark.parametrize("mode", ["stable", "fast"])
    @pytest.mark.parametrize(
        "key, n, m, feasible, scale, tol", _MARGIN_DRAWS,
        ids=[f"n{d[1]}-m{d[2]}-scale{d[4]:g}-tol{d[5]:g}" for d in _MARGIN_DRAWS],
    )
    def test_steps_use_at_most_three_quarters_of_the_width_bound(
        self, key, n, m, feasible, scale, tol, mode
    ):
        p = random_boxqp(np.random.default_rng(key), n, m, feasible=feasible, tol=tol, scale=scale)
        rep = solve(p, mode=mode, collect_trace=True)
        theta = rep.params.theta
        used = max(
            row.residual_comp / ((theta if row.step_kind == STEP_PATH else 0.5 * theta) * row.tau)
            for row in rep.trace if row.step_kind in (STEP_PATH, STEP_CENTRALITY)
        )
        assert used <= 0.75


class TestTraceDoesNotChangeTheSolve:
    @pytest.mark.parametrize("mode", ["stable", "fast"])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_traced_and_untraced_solves_are_bit_identical(self, mode, feasible):
        rng = np.random.default_rng(71)
        p = random_boxqp(rng, 6, 3, feasible=feasible, tol=1e-2)
        plain, traced = solve(p, mode=mode), solve(p, mode=mode, collect_trace=True)
        assert plain.trace == [] and len(traced.trace) == traced.linear_solves + 1
        assert plain.x.tobytes() == traced.x.tobytes()
        for name in ("tau_final", "linear_solves", "iterations_pd", "x_clipped"):
            assert getattr(plain, name) == getattr(traced, name), name


def _packed_trace(trace):
    """Every value of every row, numbers as binary64 bytes, so that equal
    traces mean equal bits, NaN included."""
    return [
        tuple(v if isinstance(v, str) else struct.pack("<d", v)
              for v in (getattr(row, name) for name in TRACE_FIELDS))
        for row in trace
    ]


class TestTraceBatches:
    """Trace rows are built per batch of TRACE_BATCH factors; the batch
    boundaries do not move a bit of any row."""

    @staticmethod
    def _spy_batches(monkeypatch):
        # the step kinds of the rows of each flush, and its factor count
        batches = []
        flush = _Recorder.flush

        def spied(self):
            batches.append(([row[0] for row in self.rows], len(self.ipivs)))
            flush(self)

        monkeypatch.setattr(_Recorder, "flush", spied)
        return batches

    @pytest.mark.parametrize("mode", ["stable", "fast"])
    def test_batch_size_does_not_change_the_trace(self, monkeypatch, mode):
        p = random_boxqp(np.random.default_rng(74), 5, 3, feasible=False, tol=1e-2)
        ref = solve(p, mode=mode, collect_trace=True)
        assert len(ref.trace) == ref.linear_solves + 1
        batches = self._spy_batches(monkeypatch)
        for batch in (1, 2, 3):
            monkeypatch.setattr(boxipm.solver, "TRACE_BATCH", batch)
            batches.clear()
            rep = solve(p, mode=mode, collect_trace=True)
            assert _packed_trace(rep.trace) == _packed_trace(ref.trace)
            kinds, factors = zip(*batches)
            # every flush but the end of the solve's batches TRACE_BATCH
            # factors: the row buffers never fill first
            assert len(batches) > 1 and set(factors[:-1]) == {batch}
            if mode == "stable":
                # a path row that solves on the factor of a centrality row
                # flushed before it, with the reset between them
                assert any(a[-1] == STEP_CENTRALITY and b[:2] == [STEP_ERROR_RESET, STEP_PATH]
                           for a, b in zip(kinds, kinds[1:]))

    def test_each_pi_trial_records_its_own_trace(self, monkeypatch):
        # x~* = 3 forces trials pi = 1, 2, 4; the report keeps the trace of
        # the accepted one
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        ref = solve_standard(sp, tol=1e-2, pi="auto", collect_trace=True)
        assert ref.trials == 3
        recorders = []
        build = _Recorder.__init__

        def init(self, *args, **kwargs):
            build(self, *args, **kwargs)
            recorders.append(self)

        monkeypatch.setattr(_Recorder, "__init__", init)
        for batch in (1, 2, 3):
            monkeypatch.setattr(boxipm.solver, "TRACE_BATCH", batch)
            recorders.clear()
            rep = solve_standard(sp, tol=1e-2, pi="auto", collect_trace=True)
            assert len(recorders) == rep.trials == 3
            assert recorders[-1].trace is rep.box_report.trace
            assert _packed_trace(rep.box_report.trace) == _packed_trace(ref.box_report.trace)


class TestTraceRowTypes:
    @pytest.mark.parametrize("mode", ["stable", "fast"])
    def test_fields_are_python_scalars(self, mode):
        # the CLI writes floats by repr, and repr(np.float64(x)) is not a
        # number under numpy 2
        p = random_boxqp(np.random.default_rng(72), 4, 2, feasible=False, tol=1e-2)
        rep = solve(p, mode=mode, collect_trace=True)
        kinds = {STEP_PRIMAL, STEP_LIFT, STEP_ERROR_RESET, STEP_PATH}
        if mode == "stable":
            kinds.add(STEP_CENTRALITY)
        assert {row.step_kind for row in rep.trace} == kinds
        for row in rep.trace:
            types = [type(getattr(row, name)) for name in TRACE_FIELDS]
            assert types == [int, float, str] + [float] * (len(TRACE_FIELDS) - 3), row


class TestTraceProperties:
    def test_loop_count_law(self, feasible_trace):
        p, rep = feasible_trace
        mp = rep.params
        ceiling = math.ceil((math.log(mp.tau_E) - math.log(mp.tau_A)) / math.log(mp.sigma))
        assert rep.iterations_pd == min(mp.M, ceiling)

    def test_centrality_strictly_reduces_comp_residual(self, feasible_trace):
        # whenever the incoming residual is above the noise floor
        p, rep = feasible_trace
        rows = [e for e in rep.trace if e.step_kind in (STEP_PATH, STEP_CENTRALITY)]
        checked = 0
        for a, b in zip(rows, rows[1:]):
            if a.step_kind == STEP_PATH and b.step_kind == STEP_CENTRALITY:
                if a.residual_comp > 1e-13 * a.tau:
                    assert b.residual_comp < a.residual_comp
                    checked += 1
        assert checked > 0

    def test_error_reset_pins_eq_residual_to_noise_floor(self, feasible_trace):
        # with a reset every cycle, the equality blocks never climb above
        # linear-solve noise relative to the iterate scale; genuine reductions
        # from perturbed points are covered in TestErrorResetStep
        p, rep = feasible_trace
        for e in rep.trace:
            if e.step_kind != STEP_PRIMAL:
                assert e.residual_eq <= 1e-12 * (1.0 + e.z_norm)

    def test_fast_mode_contracts_without_slack(self, feasible_trace):
        # well-conditioned instance: the path-step guarantee holds with no
        # envelope allowance at all
        p, _ = feasible_trace
        rep = solve(p, mode="fast", collect_trace=True)
        mp = rep.params
        for e in rep.trace:
            if e.step_kind == STEP_PATH:
                assert e.residual_comp <= mp.theta * e.tau * (1.0 + 1e-6)

    def test_min_comp_product_and_gap_along_iterates(self, monkeypatch):
        # solve()'s own step loop, seen after every step: mu∘e and (mu, e)
        # as the workspace carries them
        from boxipm.neighborhoods import complementarity_gap

        p = random_boxqp(np.random.default_rng(55), 3, 2, feasible=True, tol=1e-2)
        mp = compute_params_practical(p)
        kinds = []

        def checked(kind, ws, tau):
            _step(kind, ws, tau)
            kinds.append(kind)
            assert ws.mue.min() >= (1.0 - mp.theta - 1e-8) * tau
            gap = complementarity_gap(ws.mu_e[None])[0]
            assert gap <= 2 * p.n * (1 + mp.theta) * tau * (1 + 1e-8)

        monkeypatch.setattr(boxipm.solver, "_step", checked)
        rep = solve(p, mode="stable")
        assert len(kinds) == rep.linear_solves - mp.K == 1 + 3 * rep.iterations_pd > 60


class TestSolveStandard:
    def test_lp_corner(self):
        sp = StandardQP(Qt=np.zeros((2, 2)), ct=[-1.0, 0.0], At=[[1.0, 1.0]], bt=[1.0])
        rep = solve_standard(sp, tol=1e-3, pi=2.0)
        assert_allclose(rep.x, [1.0, 0.0], atol=1e-2)
        assert rep.feas_residual <= 1e-3

    def test_pi_two_back_map(self):
        rng = np.random.default_rng(8)
        sp, u_star = random_standard_with_optimum(rng, 2, 1)
        rep = solve_standard(sp, tol=1e-3, pi=2.0)
        assert_allclose(rep.x, 0.5 * 2.0 * (rep.box_report.x + 1.0), rtol=1e-12)
        assert rep.objective <= sp.objective(u_star) + 1e-3

    def test_auto_schedule_known_norm(self):
        # x~* = 3 forces trials pi = 1, 2, 4: first accepted bound is 4
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        rep = solve_standard(sp, tol=1e-2, pi="auto")
        assert rep.trials == 3
        assert rep.pi == 4.0
        assert_allclose(rep.x, [3.0], atol=1e-2)

    def test_a_given_bound_is_one_trial(self, monkeypatch):
        # x~* = 3 lies beyond pi = 2, so the trial is not accepted; a given
        # bound is still solved once and returned
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        calls, box_solve = [], boxipm.solver.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return box_solve(*args, **kwargs)

        monkeypatch.setattr(boxipm.solver, "solve", counted)
        rep = solve_standard(sp, tol=1e-2, pi=2.0)
        assert (len(calls), rep.trials, rep.pi) == (1, 1, 2.0)
        assert rep.box_report.x.max() >= 0.9

    def test_auto_schedule_cap(self, monkeypatch):
        # x~* = 3 needs pi = 4; a schedule capped at 2 runs out first
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        monkeypatch.setattr(
            boxipm.solver, "grow_pi_schedule", lambda start: grow_pi_schedule(start, cap=2.0)
        )
        with pytest.raises(PiCapExceeded):
            solve_standard(sp, tol=1e-2, pi="auto")

    @pytest.mark.parametrize("pi", ["Auto", "", "2.0", "inf"])
    def test_pi_strings_other_than_auto_are_invalid(self, pi):
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        with pytest.raises(InvalidProblem, match="pi must be a number or 'auto'"):
            solve_standard(sp, tol=1e-2, pi=pi)

    @pytest.mark.parametrize(
        "pi", [None, [2.0], object(), True, False, np.True_],
        ids=["None", "list", "object", "True", "False", "np.True_"],
    )
    def test_pi_that_is_not_a_number_is_invalid(self, pi):
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        with pytest.raises(InvalidProblem, match="pi must be a number or 'auto'"):
            solve_standard(sp, tol=1e-2, pi=pi)

    @pytest.mark.parametrize("pi", [0.0, -2.0, math.nan, math.inf, np.float64(-1.0)])
    def test_nonpositive_and_non_finite_pi_keep_the_transform_message(self, pi):
        sp = StandardQP(Qt=np.zeros((1, 1)), ct=[0.0], At=[[1.0]], bt=[3.0])
        with pytest.raises(InvalidProblem, match="pi must be a positive finite real"):
            solve_standard(sp, tol=1e-2, pi=pi)
