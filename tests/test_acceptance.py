"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The traced pool mixes
feasible instances (one with singular Q) and infeasible instances whose
least-squares point is interior to the box; infeasible instances whose LS
solution lies on the box faces develop multipliers ~1/omega and are
exercised here through the final-solution criterion (1); the per-step
width bounds of criteria 4 and 5 are held on them by the property tests
of ``tests/test_properties.py``.  See test_scalar_product_noise_floor for the
one stated tolerance that binary64 provably cannot honor on infeasible
tails.
"""

import math

import numpy as np
import pytest

import boxipm as bx
from boxipm import BoxQP, StandardQP
from boxipm.errors import StepRejected
from boxipm.kkt import Iterate, eval_DF, eval_F, eval_f, eval_grad_f, eval_hess_f
from boxipm.linalg import EPS_MACH
from boxipm.neighborhoods import COMP_CHECK_RTOL, check_step
from boxipm.solver import (
    STEP_CENTRALITY,
    STEP_ERROR_RESET,
    STEP_PATH,
    STEP_PRIMAL,
    primal_init,
)
from boxipm.problem import transform_standard

from support import iterate_from_array, random_boxqp, random_boxqp_interior_infeasible


def _pass(num, desc):
    print(f"ACCEPTANCE {num:>2}: PASS  {desc}")


# ---------------------------------------------------------------------------
# shared pools


@pytest.fixture(scope="module")
def pool50():
    """50 random instances, mixed feasible/infeasible, tol in {1e-2, 1e-3}."""
    rng = np.random.default_rng(20260810)
    out = []
    for i in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        feasible = i % 2 == 0
        tol = 1e-2 if i % 4 < 2 else 1e-3
        p = random_boxqp(rng, n, m, feasible=feasible, tol=tol)
        rep = bx.solve(p)
        ref = bx.oracle_solve_boxqp(p)
        chi = bx.oracle_min_residual(p)
        out.append((p, rep, ref.objective, chi))
    return out


TRACED_SPECS = (
    ("feasible", 101, 2, 1),
    ("interior_infeasible", 102, 3, 2),
    ("feasible", 103, 4, 2),
    ("interior_infeasible", 104, 4, 3),
    ("feasible_singular_q", 105, 3, 1),
)


@pytest.fixture(scope="module")
def traced():
    out = []
    for kind, seed, n, m in TRACED_SPECS:
        rng = np.random.default_rng(seed)
        if kind == "feasible":
            p = random_boxqp(rng, n, m, feasible=True, tol=1e-2)
        elif kind == "interior_infeasible":
            p = random_boxqp_interior_infeasible(rng, n, m, tol=1e-2)
        else:
            p = random_boxqp(rng, n, m, feasible=True, tol=1e-2, rank=n - 1)
        out.append((kind, p, bx.solve(p, collect_trace=True)))
    return out


def _pd_rows(rep):
    return [e for e in rep.trace if e.step_kind != STEP_PRIMAL]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_solution_conditions_vs_oracle(pool50):
    passed = 0
    for p, rep, q_ref, chi in pool50:
        ok = (
            float(np.abs(rep.x).max()) < 1.0
            and rep.objective <= q_ref + p.tol
            and rep.feas_residual <= chi + p.tol
        )
        passed += ok
    assert passed == 50
    _pass(1, f"solution conditions vs oracle on {passed}/50 instances")


def test_criterion_02_iteration_count_formulas():
    rng = np.random.default_rng(2)
    for i in range(20):
        p = random_boxqp(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)),
                         feasible=bool(i % 2), tol=10.0 ** -rng.integers(1, 4))
        mp = bx.compute_params_practical(p)
        k_expect = math.ceil(math.log2(1.0 + math.log2(mp.C_Hf / mp.rho)))
        m_expect = math.ceil((math.log(mp.tau_E) - math.log(mp.tau_A)) / math.log(mp.sigma))
        assert mp.K == k_expect
        assert mp.M == m_expect
        if math.log2(mp.C_Hf / mp.rho) <= 2.0**10:  # C_Hf/rho <= 2^(2^10)
            assert mp.K <= 10
    _pass(2, "K and M match their closed forms on 20 instances; K <= 10")


def test_criterion_03_primal_init_guarantee(traced):
    rng = np.random.default_rng(3)
    problems = [p for _, p, _ in traced]
    problems += [random_boxqp(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)),
                              feasible=bool(i % 2), tol=1e-2) for i in range(10)]
    for p in problems:
        mp = bx.compute_params_practical(p)
        x_k = primal_init(p, mp)
        assert float(np.linalg.norm(eval_grad_f(p, mp, x_k))) <= mp.rho
        assert float(np.linalg.norm(x_k)) <= 0.41 + 3.0 * mp.rho
    _pass(3, f"||grad f(x_K)|| <= rho and ||x_K|| <= 0.41 + 3 rho on {len(problems)} instances")


def test_criterion_04_path_step_contraction(traced):
    steps = 0
    for _, p, rep in traced:
        mp = rep.params
        for e in rep.trace:
            if e.step_kind == STEP_PATH:
                assert e.residual_comp <= mp.theta * e.tau * (1.0 + COMP_CHECK_RTOL)
                steps += 1
        for e in _pd_rows(rep):
            assert e.interior_margin > 0.0
    _pass(4, f"contraction and strict interiority on {steps} path steps of 5 traces")


def test_criterion_05_centrality_halving(traced):
    steps = 0
    for _, p, rep in traced:
        mp = rep.params
        for e in rep.trace:
            if e.step_kind == STEP_CENTRALITY:
                assert e.residual_comp <= 0.5 * mp.theta * e.tau * (1.0 + COMP_CHECK_RTOL)
                steps += 1
    assert steps > 0
    _pass(5, f"half-width bound on {steps} centrality steps")


def test_criterion_06_error_reset_linearity(traced):
    steps = 0
    for _, p, rep in traced:
        mp = rep.params
        bound = 100.0 * mp.N * EPS_MACH * mp.C_DF * mp.C_z
        for e in rep.trace:
            if e.step_kind == STEP_ERROR_RESET:
                assert e.residual_eq <= bound
                steps += 1
    _pass(6, f"equality blocks rezeroed on {steps} error-reset steps")


def test_criterion_07_conditioning_and_boundedness(traced):
    rows = 0
    for _, p, rep in traced:
        mp = rep.params
        for e in _pd_rows(rep):
            assert e.cond_DF <= mp.kappa_DF
            assert e.z_norm <= mp.C_z
            rows += 1
    _pass(7, f"cond(DF) <= kappa_DF and ||z|| <= C_z on {rows} traced iterates")


def test_criterion_08_duality_gap_envelope(traced):
    rows = 0
    for _, p, rep in traced:
        mp = rep.params
        for e in _pd_rows(rep):
            assert e.comp_gap <= 2.0 * p.n * (1.0 + mp.theta) * e.tau * (1.0 + 1e-6)
            rows += 1
    _pass(8, f"complementarity gap within 2n(1+theta)tau on {rows} iterates")


def test_criterion_09_derivative_consistency():
    rng = np.random.default_rng(9)
    p = random_boxqp(rng, 4, 2, feasible=True, tol=1e-2)
    mp = bx.compute_params_practical(p)
    n, m = p.n, p.m
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, n)
        g = eval_grad_f(p, mp, x)
        H = eval_hess_f(p, mp, x)
        fd_g = np.empty(n)
        fd_h = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1e-6
            fd_g[j] = (eval_f(p, mp, x + e) - eval_f(p, mp, x - e)) / 2e-6
            e[j] = 1e-5
            fd_h[:, j] = (eval_grad_f(p, mp, x + e) - eval_grad_f(p, mp, x - e)) / 2e-5
        assert np.linalg.norm(g - fd_g) <= 1e-6 * (1.0 + np.linalg.norm(g))
        assert np.linalg.norm(H - fd_h) <= 1e-5 * (1.0 + np.linalg.norm(H))
    # Jacobian of F against directional differences (F is bilinear: central
    # differences are exact up to roundoff)
    for _ in range(100):
        z = Iterate(x=rng.uniform(-0.6, 0.6, n), lam=rng.normal(size=m),
                    mu_l=rng.uniform(0.2, 3.0, n), mu_r=rng.uniform(0.2, 3.0, n))
        J = eval_DF(p, mp, z)
        v = rng.normal(size=3 * n + m)
        h = 1e-3
        za = iterate_from_array(z.as_array() + h * v, n, m)
        zb = iterate_from_array(z.as_array() - h * v, n, m)
        fd = (eval_F(p, mp, za, 1.0).as_array() - eval_F(p, mp, zb, 1.0).as_array()) / (2.0 * h)
        assert np.linalg.norm(J @ v - fd) <= 1e-6 * (1.0 + np.linalg.norm(J @ v))
    _pass(9, "gradient/Hessian/Jacobian match finite differences at 100 points")


def test_criterion_10_scalar_product_sign(traced):
    # Asserted on the feasible traces: for infeasible instances the computed
    # product's noise floor (~eps * chi * ||dlam||, via lambda ~ chi/omega)
    # provably exceeds the stated quadratic allowance near the practical tau
    # floor; see test_scalar_product_noise_floor below.
    steps = 0
    for kind, p, rep in traced:
        if kind != "feasible" and kind != "feasible_singular_q":
            continue
        for e in rep.trace:
            if e.step_kind == STEP_PATH:
                assert e.newton_dot >= -1e-10 * e.step_norm**2
                steps += 1
    assert steps > 0
    _pass(10, f"dx'(dmu_l - dmu_r) >= -1e-10 ||dz||^2 on {steps} path steps")


@pytest.mark.xfail(
    strict=True,
    reason="binary64 noise floor: with chi > 0 the dual scale chi/omega makes "
    "the computed scalar product's error linear in ||dz|| while the stated "
    "allowance is quadratic; violations are reproducible near tau ~ 1e-12",
)
def test_scalar_product_noise_floor():
    rng = np.random.default_rng(102)
    p = random_boxqp_interior_infeasible(rng, 3, 2, tol=1e-2)
    rep = bx.solve(p, collect_trace=True)
    for e in rep.trace:
        if e.step_kind == STEP_PATH:
            assert e.newton_dot >= -1e-10 * e.step_norm**2


@pytest.mark.xfail(
    strict=True,
    reason="the error-reset limit 100 N eps C_DF C_z is a constant of the "
    "a-priori bounds, not a binary64 floor: on this draw it is 3.5e17 times "
    "the largest ||(r1, r2)|| that a reset leaves",
)
def test_error_reset_limit_is_near_the_residuals_it_bounds():
    # The limit as check_step applies it, read off the rejection of an
    # infinite residual, against every post-reset ||(r1, r2)|| of a solve.
    p = random_boxqp(np.random.default_rng(0), 20, 8, tol=1e-2)
    rep = bx.solve(p, collect_trace=True)
    with pytest.raises(StepRejected) as exc:
        check_step(STEP_ERROR_RESET, rep.params, rep.tau_final, math.inf, 0.0)
    worst = max(e.residual_eq for e in rep.trace if e.step_kind == STEP_ERROR_RESET)
    assert 0.0 < worst and exc.value.limit <= 1e6 * worst


def test_criterion_11_standard_form_round_trip():
    from support import random_standard_with_optimum

    rng = np.random.default_rng(11)
    tol = 1e-2
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        sp, u_star = random_standard_with_optimum(rng, n, m)
        rep = bx.solve_standard(sp, tol=tol, pi=2.0)
        box, back = transform_standard(sp, 2.0, tol)
        ref = bx.oracle_solve_boxqp(box)
        q_ref = sp.objective(back(ref.x))
        assert rep.objective <= q_ref + tol
        assert rep.objective <= sp.objective(u_star) + tol
        assert rep.feas_residual <= tol
    # pathological instance: solution norm 1/eps; the geometric schedule must
    # stop within ceil(log2(1000)) + 2 trials
    sp = StandardQP(Qt=np.zeros((2, 2)), ct=[-1.0, 0.0], At=[[1e-3, 1.0]], bt=[1.0])
    rep = bx.solve_standard(sp, tol=tol, pi="auto")
    assert rep.trials <= math.ceil(math.log2(1000.0)) + 2
    assert abs(rep.x[0] - 1000.0) <= 1000.0 * tol
    _pass(11, f"10 round trips at pi=2; pathological schedule took {rep.trials} trials")


def test_criterion_12_fast_vs_stable():
    rng = np.random.default_rng(12)
    tol = 1e-2
    for _ in range(5):
        p = random_boxqp(rng, int(rng.integers(2, 5)), 2, feasible=True, tol=tol)
        rs = bx.solve(p, mode="stable")
        rf = bx.solve(p, mode="fast")
        assert abs(rs.objective - rf.objective) <= 10.0 * tol
        # init: K primal solves + 1 reset; then 3 (stable) or 1 (fast) per cycle
        assert rs.linear_solves - rs.params.K - 1 == 3 * rs.iterations_pd
        assert rf.linear_solves - rf.params.K - 1 == 1 * rf.iterations_pd
    _pass(12, "modes agree within 10 tol; 3 vs 1 linear solves per cycle")


def test_criterion_13_eps_mach_cascade_boundary():
    # deliberately ill-scaled instance (||A|| ~ 1e8): the strict cascade must
    # either emit in full or raise ParamOverflow; the practical mode solves
    p = BoxQP(Q=np.eye(2), c=[0.0, 0.0], A=[[1e8, 1e8]], b=[1e8], tol=1e-2)
    try:
        mp = bx.compute_params(p)
        assert bx.validate_params(mp, p) == []
        strict_outcome = "emitted the full cascade"
    except bx.ParamOverflow:
        strict_outcome = "raised ParamOverflow"
    rep = bx.solve(p)
    # hand optimum of min 0.5||x||^2 s.t. x1 + x2 = 1 on the box: (0.5, 0.5)
    assert float(np.abs(rep.x).max()) < 1.0
    assert rep.objective <= 0.25 + p.tol
    assert rep.feas_residual <= p.tol
    _pass(13, f"strict cascade {strict_outcome}; practical mode solved")
