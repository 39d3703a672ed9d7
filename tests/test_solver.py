import dataclasses
import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
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
from boxipm.kkt import _Workspace, eval_DF, eval_F, eval_grad_f, eval_hess_f
from boxipm.linalg import QRFactor
from boxipm.neighborhoods import check_step
from boxipm.solver import (
    _X_MAX,
    TRACE_FIELDS,
    _advance,
    _step,
    STEP_CENTRALITY,
    STEP_ERROR_RESET,
    STEP_LIFT,
    STEP_PATH,
    STEP_PRIMAL,
    centrality_step,
    error_reset_step,
    lift,
    path_step,
    primal_init,
)
from support import random_boxqp, random_iterate, random_standard_with_optimum
from test_kkt import make_mp, zeros_problem


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
        z2 = error_reset_step(p, mp, z, tau)
        assert_allclose(z2.as_array(), z.as_array(), atol=1e-15)

    def test_restores_equality_block_linearly(self):
        # perturbing lam only enters block 2 linearly, so one reset zeroes it
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.0], lam=[0.25], mu_l=[tau], mu_r=[tau])
        z2 = error_reset_step(p, mp, z, tau)
        F = eval_F(p, mp, z2, tau)
        assert abs(F.r2[0]) <= 1e-15

    def test_never_increases_equality_residual(self):
        rng = np.random.default_rng(3)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        x = primal_init(p, mp)
        z = lift(p, mp, x)
        before = eval_F(p, mp, z, mp.tau_A).eq_norm
        z2 = error_reset_step(p, mp, z, mp.tau_A)
        after = eval_F(p, mp, z2, mp.tau_A).eq_norm
        assert after <= before + 1e-12 * (1.0 + before)


class TestPathStep:
    def test_pure_barrier_hand_solution(self):
        # from the exact central point the step lands exactly on the path at
        # tau_hat: x stays 0, both multipliers become tau_hat
        p = zeros_problem()
        mp = make_mp(omega=1.0, sigma=0.75)
        tau = 1.0
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau])
        z2, tau_hat = path_step(p, mp, z, tau)
        assert tau_hat == 0.75
        assert_allclose(z2.x, [0.0], atol=1e-15)
        assert_allclose(z2.mu_l, [tau_hat], rtol=1e-14)
        assert_allclose(z2.mu_r, [tau_hat], rtol=1e-14)

    def test_tau_update_exact(self):
        rng = np.random.default_rng(4)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        mp = compute_params_practical(p)
        z = lift(p, mp, primal_init(p, mp))
        z = error_reset_step(p, mp, z, mp.tau_A)
        _, tau_hat = path_step(p, mp, z, mp.tau_A)
        assert tau_hat == mp.sigma * mp.tau_A


class TestCentralityStep:
    def test_noop_at_central_point(self):
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau])
        z2 = centrality_step(p, mp, z, tau)
        assert_allclose(z2.as_array(), z.as_array(), atol=1e-15)

    def test_halves_width_from_boundary(self):
        # start on the width-theta boundary of a pure-barrier instance
        mp = make_mp(theta=0.25, beta=0.25)
        tau = 1.0
        mu_l = 1.25
        p = BoxQP(Q=np.zeros((1, 1)), c=[0.25], A=np.zeros((1, 1)), b=[0.0], tol=0.1)
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[mu_l], mu_r=[tau])
        before = eval_F(p, mp, z, tau).comp_norm
        z2 = centrality_step(p, mp, z, tau, slack=0.0)
        after = eval_F(p, mp, z2, tau).comp_norm
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
        # near-trivial data at large tol; exercises the zero-slack fast path
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

    def test_interiority_throughout(self):
        rng = np.random.default_rng(7)
        p = random_boxqp(rng, 3, 2, feasible=False, tol=1e-2)
        rep = solve(p, collect_trace=True)
        margins = [e.interior_margin for e in rep.trace if e.step_kind != STEP_PRIMAL]
        assert min(margins) > 0.0


def _drive_steps(p, mode, params_mode="practical", path_slack=None):
    """solve() spelled out with the public step functions."""
    mp = compute_params(p) if params_mode == "strict" else compute_params_practical(p)
    z = error_reset_step(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
    tau = mp.tau_A
    for _ in range(mp.M):
        z, tau = path_step(p, mp, z, tau, slack=path_slack)
        if mode == "stable":
            z = centrality_step(p, mp, z, tau)
            z = error_reset_step(p, mp, z, tau)
        if tau <= mp.tau_E:
            break
    return z.x, tau


class TestSolveComposition:
    @pytest.mark.parametrize("mode", ["stable", "fast"])
    def test_step_functions_reproduce_solve(self, mode):
        # feasible, so x keeps interior coordinates that record the step
        # order (infeasible instances clip every coordinate to the box)
        rng = np.random.default_rng(13)
        p = random_boxqp(rng, 4, 2, feasible=True, tol=1e-2)
        rep = solve(p, mode=mode)
        x, tau = _drive_steps(p, mode)
        assert x.tobytes() == rep.x.tobytes()
        assert tau == rep.tau_final

    def test_strict_fast_path_has_zero_slack(self):
        p = BoxQP(Q=[[0.0]], c=[0.01], A=[[0.0]], b=[0.0], tol=10.0)
        rep = solve(p, params_mode="strict", mode="fast")
        x, tau = _drive_steps(p, "fast", params_mode="strict", path_slack=0.0)
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
    (61, 3, 2, True, "stable", True, "bd8fd757b33d9396"),
    (62, 5, 2, True, "fast", False, "62c928f8b60c022e"),
    (63, 8, 3, True, "stable", False, "9c71384067d4ad25"),
    (64, 5, 2, False, "stable", True, "a9fb36e332870ac6"),
    (65, 3, 1, False, "fast", True, "a1e2ad0cf34b869c"),
    (66, 8, 3, False, "stable", False, "8d5acd3641fa06ef"),
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
    functions and ufuncs through it, and the shapes of the arrays they
    return; types and submodules pass through."""

    def __init__(self):
        self.calls = 0
        self.shapes = set()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.shapes.add(out.shape)
            return out
        return counted


class TestStepLoopStructure:
    """Counts calls, not time: validation, a second F evaluation, a per-step
    workspace, a concatenation or any other numpy call creeping back into
    the step loop fails here."""

    def test_calls_per_solve(self, monkeypatch):
        calls = dict.fromkeys(
            ["eval_F", "post_init", "workspace", "check_step", "factor", "symmetric_solve",
             "symmetric_inverse"], 0
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
        monkeypatch.setattr(
            boxipm.kkt, "solve_symmetric",
            _counted(calls, "symmetric_solve", boxipm.kkt.solve_symmetric),
        )
        monkeypatch.setattr(
            boxipm.kkt, "symmetric_inverse",
            _counted(calls, "symmetric_inverse", boxipm.kkt.symmetric_inverse),
        )
        rng = np.random.default_rng(13)
        rep = solve(random_boxqp(rng, 4, 2, feasible=True, tol=1e-2), mode="stable")
        pd_steps = rep.linear_solves - rep.params.K  # the initial reset plus 3 per cycle
        assert pd_steps > 100
        assert calls["factor"] == rep.params.K  # the primal Hessian steps only
        assert calls["symmetric_solve"] == pd_steps  # one LAPACK call per primal-dual step
        assert calls["eval_F"] == pd_steps + 1  # + F at the lift point
        assert calls["post_init"] == 1  # the lift point
        assert calls["workspace"] == 1
        assert calls["check_step"] == pd_steps  # one rule, once per step
        assert calls["symmetric_inverse"] == 0  # only traced solves take cond(DF)

    def test_numpy_calls_per_step_kind(self, monkeypatch):
        # numpy module calls in kkt, solver and linalg, per step as solve()
        # makes it (a path step includes its retarget), on steps that make
        # no repair; method calls such as ndarray.dot are not counted
        p = random_boxqp(np.random.default_rng(13), 4, 2, feasible=True, tol=1e-2)
        mp = compute_params_practical(p)
        ws = _Workspace(p, mp)
        ws.load(lift(p, mp, primal_init(p, mp)))
        ws.eval_F(mp.tau_A)
        counter = _CountingNumpy()
        for module in (boxipm.kkt, boxipm.solver, boxipm.linalg):
            monkeypatch.setattr(module, "np", counter)
        tau, calls = mp.tau_A, {}
        for kind in (STEP_ERROR_RESET, STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET):
            counter.calls = 0
            if kind == STEP_PATH:
                tau = mp.sigma * tau
                ws.retarget(tau)
            _step(kind, ws, tau)
            assert calls.setdefault(kind, counter.calls) == counter.calls
        assert (ws.x_clipped, ws.mu_reset) == (0, 0)
        assert calls == {STEP_ERROR_RESET: 17, STEP_PATH: 18, STEP_CENTRALITY: 17}

    def test_traced_solve_builds_no_N_by_N_DF(self, monkeypatch):
        # cond_DF comes from the factor of the (n+m) reduced matrix that the
        # step's one symmetric solve made: one dsytri per primal-dual step,
        # no LU, and no N x N array made through numpy or LAPACK in kkt,
        # solver or linalg
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

        calls = {"workspace": 0, "symmetric_solve": 0}
        counter = _CountingNumpy()
        monkeypatch.setattr(boxipm.linalg, "lapack", SpyLapack())
        for module in (boxipm.kkt, boxipm.solver, boxipm.linalg):
            monkeypatch.setattr(module, "np", counter)
        monkeypatch.setattr(
            _Workspace, "__init__", _counted(calls, "workspace", _Workspace.__init__)
        )
        monkeypatch.setattr(
            boxipm.kkt, "solve_symmetric",
            _counted(calls, "symmetric_solve", boxipm.kkt.solve_symmetric),
        )
        rng = np.random.default_rng(13)
        rep = solve(random_boxqp(rng, n, m, feasible=True, tol=1e-2), collect_trace=True)
        pd_steps = rep.linear_solves - rep.params.K
        assert len(rep.trace) == rep.linear_solves + 1
        assert calls == {"workspace": 1, "symmetric_solve": pd_steps}
        assert lapack_calls == {
            "dgeqp3": rep.params.K, "dormqr": rep.params.K, "dtrtrs": rep.params.K,
            "dtrcon": rep.params.K, "dsysv": pd_steps, "dsytri": pd_steps,
        }
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

    def test_public_steps_build_one_workspace_each(self, monkeypatch):
        p = random_boxqp(np.random.default_rng(13), 2, 1, tol=1e-2)
        # error_reset_step, then path, centrality and error reset per cycle
        public_steps = 1 + 3 * solve(p).iterations_pd
        calls = {"workspace": 0, "eval_F": 0}
        monkeypatch.setattr(
            _Workspace, "__init__", _counted(calls, "workspace", _Workspace.__init__)
        )
        monkeypatch.setattr(_Workspace, "eval_F", _counted(calls, "eval_F", _Workspace.eval_F))
        _drive_steps(p, "stable")
        # each builds a workspace and evaluates F before and after its step
        assert calls == {"workspace": public_steps, "eval_F": 2 * public_steps}


def _hand_iterate():
    return Iterate(x=[0.5, -0.5, 0.0], lam=[0.1], mu_l=[1.0, 2.0, 0.5], mu_r=[0.5, 1.0, 2.0])


def _hand_workspace():
    p = random_boxqp(np.random.default_rng(4), 3, 1, tol=1e-2)
    return _Workspace(p, compute_params_practical(p))


class TestAdvanceInvariants:
    """_advance writes the next state unchecked; these are the invariants it
    establishes instead.  Steps are injected at the workspace's seam,
    ``_Workspace.newton``."""

    def test_x_outside_the_box_is_clipped_and_counted(self):
        ws = _hand_workspace()
        ws.load(_hand_iterate())
        dz = np.zeros(3 * 3 + 1)
        dz[:3] = [0.75, -0.5 - _X_MAX, 1.0]  # 1.25, -1 - eps, 1.0: all leave the open box
        clipped, reset = _advance(ws, dz, 0.5)
        z_new = ws.iterate()
        assert np.abs(z_new.x).max() <= _X_MAX
        assert z_new.x.tolist() == [_X_MAX, -_X_MAX, _X_MAX]
        assert (clipped, reset) == (3, 0)
        assert z_new.mu_l.min() > 0.0 and z_new.mu_r.min() > 0.0
        # e and mu∘e are derived from the clipped x
        assert ws.e.tobytes() == np.concatenate([1.0 + z_new.x, 1.0 - z_new.x]).tobytes()
        assert ws.mue.tobytes() == (ws.mu * ws.e).tobytes()

    def test_nonpositive_mu_reset_bit_for_bit_and_counted(self):
        z = _hand_iterate()
        ws = _hand_workspace()
        ws.load(z)
        tau = 0.3
        dz = np.zeros(3 * 3 + 1)
        dz[:3] = [0.25, -0.125, 0.0]
        dz[4:7] = [-1.0, -3.0, 0.25]  # mu_l -> 0.0, -1.0, 0.75
        dz[7:] = [0.0, -1.0, -2.5]  # mu_r -> 0.5, 0.0, -0.5
        clipped, reset = _advance(ws, dz, tau)
        z_new = ws.iterate()
        x_new = z.x + dz[:3]
        assert clipped == 0 and reset == 4
        assert z_new.mu_l[:2].tobytes() == (tau / (1.0 + x_new[:2])).tobytes()
        assert z_new.mu_l[2] == 0.75
        assert z_new.mu_r[1:].tobytes() == (tau / (1.0 - x_new[1:])).tobytes()
        assert z_new.mu_r[0] == 0.5
        assert z_new.mu_l.min() > 0.0 and z_new.mu_r.min() > 0.0
        # the unchecked result is a valid Iterate
        Iterate(x=z_new.x, lam=z_new.lam, mu_l=z_new.mu_l, mu_r=z_new.mu_r)

    def test_a_step_that_drives_mu_negative_is_repaired_and_counted(self, monkeypatch):
        # at a central point the centrality step is zero; push its mu_l past 0
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.25], lam=[0.0], mu_l=[tau / 1.25], mu_r=[tau / 0.75])
        newton = _Workspace.newton

        def pushed(self, reset_only):
            dz = newton(self, reset_only)
            dz[2] = -2.0 * z.mu_l[0]
            return dz

        monkeypatch.setattr(_Workspace, "newton", pushed)
        ws = _Workspace(p, mp)
        ws.load(z)
        ws.eval_F(tau)
        _step(STEP_CENTRALITY, ws, tau)
        assert ws.mu_reset == 1 and ws.x_clipped == 0
        assert ws.mu_l[0] == tau / (1.0 + ws.x[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_is_rejected(self, monkeypatch, bad):
        p = random_boxqp(np.random.default_rng(4), 3, 1, tol=1e-2)
        mp = compute_params_practical(p)
        z = _hand_iterate()
        newton = _Workspace.newton

        def broken(self, reset_only):
            dz = newton(self, reset_only)
            dz[1] = bad
            return dz

        monkeypatch.setattr(_Workspace, "newton", broken)
        with pytest.raises(StepRejected, match="non-finite components") as info:
            path_step(p, mp, z, 1.0)
        assert (info.value.kind, info.value.tau) == (STEP_PATH, mp.sigma)

    def test_huge_finite_step_is_checked_without_a_warning(self, monkeypatch):
        # dz'dz would overflow, and ndarray.dot warns when it overflows; the
        # step is finite, so it is taken, and x is clipped back into the box
        newton = _Workspace.newton

        def huge(self, reset_only):
            dz = newton(self, reset_only)
            dz[0] = 1e200
            return dz

        monkeypatch.setattr(_Workspace, "newton", huge)
        ws = _hand_workspace()
        ws.load(_hand_iterate())
        ws.eval_F(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _step(STEP_CENTRALITY, ws, 1.0)
        assert ws.x_clipped == 1 and ws.x[0] == _X_MAX

    @pytest.mark.parametrize("block", ["lam", "mu_l", "mu_r"])
    def test_overflow_to_inf_is_rejected(self, monkeypatch, block):
        # finite + finite = inf: the update passes the finite-dz check, and
        # the residual at the new point must catch it
        p = BoxQP(Q=np.eye(3), c=np.zeros(3), A=[[0.1, 0.1, 0.1]], b=[0.0], tol=1e-2)
        mp = compute_params_practical(p)
        huge = 1e308
        values = {"x": [0.5, -0.5, 0.0], "lam": [0.0], "mu_l": [1.0] * 3, "mu_r": [1.0] * 3}
        j = 2 if block == "mu_r" else 0  # where mu/(1 +- x) stays finite in the reduced matrix
        values[block][j] = huge
        z = Iterate(**values)
        at = {"lam": 3, "mu_l": 4, "mu_r": 7}[block] + j

        def overflowing(self, reset_only):
            self.dz[:] = 0.0
            self.dz[at] = huge
            return self.dz

        monkeypatch.setattr(_Workspace, "newton", overflowing)
        returned = []
        with np.errstate(over="ignore", invalid="ignore"):
            for step in (
                lambda: path_step(p, mp, z, 1.0),
                lambda: centrality_step(p, mp, z, 1.0),
                lambda: error_reset_step(p, mp, z, 1.0),
            ):
                with pytest.raises(StepRejected, match="non-finite iterate"):
                    returned.append(step())
        assert returned == []

    def test_matrix_overflow_is_a_rejected_step(self):
        # z is valid, but mu_r/(1 - x) overflows in the reduced matrix
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0), tol=1e-2)
        mp = compute_params_practical(p)
        z = Iterate(x=[0.5, 0.0], lam=[], mu_l=[1.0, 1.0], mu_r=[1e308, 1.0])
        with np.errstate(over="ignore"):
            for step, kind in (
                (path_step, STEP_PATH),
                (centrality_step, STEP_CENTRALITY),
                (error_reset_step, STEP_ERROR_RESET),
            ):
                with pytest.raises(StepRejected, match="Newton system overflowed: G") as info:
                    step(p, mp, z, 1.0)
                assert info.value.kind == kind
                assert info.value.tau == (mp.sigma if kind == STEP_PATH else 1.0)

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
            dz = ws.newton(False)
        assert np.isfinite(dz).all()

    def test_rhs_overflow_is_a_rejected_step(self):
        # the matrix is finite, but tau/(1 - x) one ulp from the face
        # overflows in the reduced right-hand side
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0), tol=1e-2)
        mp = compute_params_practical(p)
        z = Iterate(x=[_X_MAX, 0.0], lam=[], mu_l=[1.0, 1.0], mu_r=[1e-300, 1.0])
        with np.errstate(over="ignore"):
            with pytest.raises(StepRejected, match="Newton system overflowed: v"):
                path_step(p, mp, z, 1e300)


class TestStructuredRejection:
    def test_failed_post_check_carries_its_context(self):
        rng = np.random.default_rng(1)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        mp = compute_params_practical(p)
        z = random_iterate(rng, 2, 1)  # far from the central path
        with pytest.raises(StepRejected, match="path step failed its post-check: comp") as info:
            path_step(p, mp, z, 1.0, slack=0.0)
        exc = info.value
        tau_hat = mp.sigma * 1.0
        assert (exc.kind, exc.tau, exc.block) == (STEP_PATH, tau_hat, "comp")
        assert exc.limit == mp.theta * tau_hat * (1.0 + 1e-6)
        assert exc.value > exc.limit
        assert exc.cycle is None  # set by solve() only
        assert list(exc.context()) == ["kind", "tau", "block", "value", "limit"]

    @pytest.mark.parametrize("fail_at, cycle, kind", [
        (1, 0, STEP_ERROR_RESET), (2, 1, STEP_PATH), (6, 2, STEP_CENTRALITY),
    ])
    def test_solve_names_the_cycle(self, monkeypatch, fail_at, cycle, kind):
        calls = {"newton": 0}
        newton = _Workspace.newton

        def failing(self, reset_only):
            dz = newton(self, reset_only)
            calls["newton"] += 1
            if calls["newton"] == fail_at:
                dz[0] = np.nan
            return dz

        monkeypatch.setattr(_Workspace, "newton", failing)
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
        rng = np.random.default_rng(7)
        rep = solve(random_boxqp(rng, 3, 2, feasible=False, tol=1e-2))
        assert rep.x_clipped > 0
        assert rep.mu_reset == 0

    def test_feasible_instance_does_not(self):
        rng = np.random.default_rng(7)
        rep = solve(random_boxqp(rng, 3, 2, feasible=True, tol=1e-2))
        assert rep.x_clipped == 0
        assert rep.mu_reset == 0


@pytest.fixture(scope="module")
def feasible_trace():
    rng = np.random.default_rng(101)
    p = random_boxqp(rng, 2, 1, feasible=True, tol=1e-2)
    return p, solve(p, collect_trace=True)


class TestCondDF:
    def test_exact_kappa_1_of_DF(self):
        # cond_DF is kappa_1 of the full DF at the step's starting point,
        # taken from the factor of the step's reduced matrix
        rng = np.random.default_rng(31)
        for n, m in [(1, 0), (2, 0), (3, 2), (5, 7), (12, 5), (20, 8)]:
            for feasible in (True, False):
                p = random_boxqp(rng, n, m, feasible=feasible, tol=1e-2)
                mp = compute_params_practical(p)
                ws = _Workspace(p, mp, traced=True)  # one workspace for every point
                for _ in range(5):
                    z = random_iterate(rng, n, m)
                    ws.load(z)
                    ws.eval_F(0.5)
                    ws.newton(reset_only=False)
                    J = eval_DF(p, mp, z)
                    exact = np.linalg.norm(J, 1) * np.linalg.norm(np.linalg.inv(J), 1)
                    assert ws.cond == pytest.approx(exact, rel=1e-6)

    def test_rows_are_the_exact_kappa_1_where_each_step_starts(self):
        # replay a traced solve step by step; the lift row shares the
        # initial reset's value
        p = random_boxqp(np.random.default_rng(33), 3, 2, feasible=False, tol=1e-2)
        rep = solve(p, collect_trace=True)
        pd_rows = rep.trace[rep.params.K :]
        mp = rep.params
        ws = _Workspace(p, mp)
        ws.load(lift(p, mp, primal_init(p, mp)))
        ws.eval_F(mp.tau_A)
        tau = mp.tau_A
        for row in pd_rows[1:]:
            if row.step_kind == STEP_PATH:
                tau = row.tau
                ws.retarget(tau)
            J = eval_DF(p, mp, ws.iterate())
            exact = np.linalg.norm(J, 1) * np.linalg.norm(np.linalg.inv(J), 1)
            assert row.cond_DF == pytest.approx(exact, rel=1e-6)
            _step(row.step_kind, ws, tau)
        assert pd_rows[0].cond_DF == pd_rows[1].cond_DF

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


class TestTraceDoesNotChangeTheSolve:
    @pytest.mark.parametrize("mode", ["stable", "fast"])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_traced_and_untraced_solves_are_bit_identical(self, mode, feasible):
        rng = np.random.default_rng(71)
        p = random_boxqp(rng, 6, 3, feasible=feasible, tol=1e-2)
        plain, traced = solve(p, mode=mode), solve(p, mode=mode, collect_trace=True)
        assert plain.trace == [] and len(traced.trace) == traced.linear_solves + 1
        assert plain.x.tobytes() == traced.x.tobytes()
        for name in ("tau_final", "linear_solves", "iterations_pd", "x_clipped", "mu_reset"):
            assert getattr(plain, name) == getattr(traced, name), name


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

    def test_min_comp_product_and_gap_along_iterates(self):
        # drive the three-step cycle by hand to see the iterates themselves
        from boxipm.neighborhoods import complementarity_gap

        rng = np.random.default_rng(55)
        p = random_boxqp(rng, 3, 2, feasible=True, tol=1e-2)
        mp = compute_params_practical(p)
        z = error_reset_step(p, mp, lift(p, mp, primal_init(p, mp)), mp.tau_A)
        tau = mp.tau_A
        for _ in range(60):
            z, tau = path_step(p, mp, z, tau)
            z = centrality_step(p, mp, z, tau)
            z = error_reset_step(p, mp, z, tau)
            products = np.concatenate([(1.0 + z.x) * z.mu_l, (1.0 - z.x) * z.mu_r])
            assert products.min() >= (1.0 - mp.theta - 1e-8) * tau
            assert complementarity_gap(z) <= 2 * p.n * (1 + mp.theta) * tau * (1 + 1e-8)


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
