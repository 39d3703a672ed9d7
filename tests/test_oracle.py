import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxipm import BoxQP, TooLarge, compute_params_practical, eval_q, solve
from boxipm.oracle import LOWER, UPPER, oracle_min_residual, oracle_min_box, oracle_solve_boxqp
from boxipm.problem import residual_norm

from support import random_boxqp


class TestMinBox:
    def test_clipped_scalar(self):
        sol = oracle_min_box([[2.0]], [-3.0])
        assert_allclose(sol.x, [1.0])
        assert sol.active_pattern == (UPPER,)
        assert_allclose(sol.objective, -2.0)

    def test_identity_origin(self):
        sol = oracle_min_box(np.eye(2), np.zeros(2))
        assert_allclose(sol.x, [0.0, 0.0])
        assert sol.objective == 0.0

    def test_linear_corner(self):
        sol = oracle_min_box([[0.0]], [1.0])
        assert_allclose(sol.x, [-1.0])
        assert sol.active_pattern == (LOWER,)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            oracle_min_box(np.eye(11), np.zeros(11))

    def test_first_order_optimality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            B = rng.normal(size=(n, n))
            H = B.T @ B + 0.1 * np.eye(n)
            g = rng.normal(size=n)
            sol = oracle_min_box(H, g)
            grad = H @ sol.x + g
            # projected gradient: zero out components pushing outward at faces
            proj = grad.copy()
            at_lo = sol.x <= -1.0 + 1e-12
            at_hi = sol.x >= 1.0 - 1e-12
            proj[at_lo & (grad > 0)] = 0.0
            proj[at_hi & (grad < 0)] = 0.0
            assert np.linalg.norm(proj) <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_random_feasible_perturbations_increase_objective(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(4, 4))
        H = B.T @ B + 0.5 * np.eye(4)
        g = rng.normal(size=4)
        sol = oracle_min_box(H, g)
        obj = sol.objective
        for _ in range(100):
            d = rng.normal(size=4)
            step = rng.uniform(1e-4, 0.1)
            y = np.clip(sol.x + step * d, -1.0, 1.0)
            val = 0.5 * y @ (H @ y) + g @ y
            assert val >= obj - 1e-12 * max(1.0, abs(obj))

    def test_deterministic_tie_break(self):
        # flat objective: every pattern with consistent KKT ties at 0; the
        # lexicographically first (all-lower) corner must win.
        sol = oracle_min_box(np.zeros((2, 2)), np.zeros(2))
        assert sol.active_pattern == (LOWER, LOWER)
        sol2 = oracle_min_box(np.zeros((2, 2)), np.zeros(2))
        assert np.array_equal(sol.x, sol2.x)


class TestBoRes:
    def test_zero_rhs(self):
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=[[1.0, 2.0]], b=[0.0], tol=0.1)
        assert oracle_min_residual(p) <= 1e-12

    def test_unreachable_scalar(self):
        p = BoxQP(Q=np.zeros((1, 1)), c=np.zeros(1), A=[[1.0]], b=[2.0], tol=0.1)
        assert_allclose(oracle_min_residual(p), 1.0, rtol=1e-12)

    def test_reachable_scalar(self):
        p = BoxQP(Q=np.zeros((1, 1)), c=np.zeros(1), A=[[1.0]], b=[0.5], tol=0.1)
        assert oracle_min_residual(p) <= 1e-12

    def test_lower_bound_property(self):
        rng = np.random.default_rng(3)
        for feasible in (True, False):
            p = random_boxqp(rng, 4, 2, feasible=feasible, tol=1e-2)
            chi = oracle_min_residual(p)
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, 4)
                assert chi <= residual_norm(p, x) + 1e-9 * (1.0 + chi)


class TestSolveBoxQP:
    def test_flat_objective(self):
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=[[1.0, 1.0]], b=[1.0], tol=0.1)
        sol = oracle_solve_boxqp(p)
        assert sol.objective <= 1e-10
        assert residual_norm(p, sol.x) <= 1e-6

    def test_symmetric_projection(self):
        p = BoxQP(Q=2.0 * np.eye(2), c=np.zeros(2), A=[[1.0, 1.0]], b=[1.0], tol=1e-3)
        sol = oracle_solve_boxqp(p)
        assert_allclose(sol.x, [0.5, 0.5], atol=1e-6)

    def test_infeasible_forced_to_face(self):
        p = BoxQP(Q=[[2.0]], c=[0.0], A=[[1.0]], b=[2.0], tol=1e-3)
        sol = oracle_solve_boxqp(p)
        assert_allclose(sol.x, [1.0], atol=1e-9)
        assert_allclose(sol.objective, 1.0, atol=1e-8)

    def test_regularized_relation_bounds(self):
        # solving the regularized quadratic with the solver's own omega stays
        # within tol/2 of the true optimum in both objective and residual
        rng = np.random.default_rng(4)
        for feasible in (True, False):
            p = random_boxqp(rng, 3, 2, feasible=feasible, tol=1e-2)
            mp = compute_params_practical(p)
            chi = oracle_min_residual(p)
            ref = oracle_solve_boxqp(p)
            H = p.Q + mp.omega * np.eye(p.n) + (p.A.T @ p.A) / mp.omega
            g = p.c - (p.A.T @ p.b) / mp.omega
            sol = oracle_min_box(H, g)
            assert eval_q(p, sol.x) <= ref.objective + p.tol / 2.0
            assert residual_norm(p, sol.x) <= chi + p.tol / 2.0

    def test_min_residual_is_stage_1s(self):
        # chi is the residual at the box least-squares point, not at the
        # returned point, whose residual can only be larger
        rng = np.random.default_rng(5)
        for feasible in (True, False):
            p = random_boxqp(rng, 3, 2, feasible=feasible, tol=1e-2)
            assert oracle_solve_boxqp(p).min_residual == oracle_min_residual(p)

    def test_scaled_feasible_draw_is_no_worse_than_the_solver(self):
        # the penalized oracle returned 30433.57 here, a feasible point 3e4
        # above the solver's, without raising
        _judge_both_ways(random_boxqp(np.random.default_rng([0, 2, 1, 100000000, 4]), 2, 1,
                                      tol=1e-4, scale=1e4))

    def test_scaled_feasible_draw_that_broke_the_penalty_continuation(self):
        # the penalized oracle raised BracketFailed here: its objectives at
        # the weights w and 10 w did not agree to within tol/5
        _judge_both_ways(random_boxqp(np.random.default_rng([9200, 4, 2, 0]), 4, 2, tol=1e-2,
                                      scale=1e4))


def _judge_both_ways(p):
    """The solver meets the oracle's residual, and the objectives agree to
    within tol."""
    rep = solve(p)
    ref = oracle_solve_boxqp(p)
    assert rep.feas_residual <= ref.min_residual + p.tol
    assert abs(ref.objective - rep.objective) <= p.tol
