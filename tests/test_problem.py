import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxipm import (
    BoxQP,
    InvalidProblem,
    PiCapExceeded,
    StandardQP,
    eval_q,
    eval_q_omega,
    grow_pi_schedule,
    problem_factor,
    transform_standard,
)
from boxipm.problem import SYMMETRY_RTOL, residual_norm


def zeros_box(n=1, m=1, tol=1.0):
    return BoxQP(Q=np.zeros((n, n)), c=np.zeros(n), A=np.zeros((m, n)), b=np.zeros(m), tol=tol)


class TestValidation:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(InvalidProblem):
            BoxQP(Q=[[1.0, 0.5], [0.0, 1.0]], c=[0.0, 0.0], A=np.zeros((1, 2)), b=[0.0], tol=1.0)

    def test_rejects_indefinite_q(self):
        with pytest.raises(InvalidProblem):
            BoxQP(Q=[[-1.0]], c=[0.0], A=np.zeros((1, 1)), b=[0.0], tol=1.0)

    def test_accepts_psd_singular_q(self):
        p = BoxQP(Q=[[1.0, 1.0], [1.0, 1.0]], c=[0.0, 0.0], A=np.zeros((1, 2)), b=[0.0], tol=1.0)
        assert p.n == 2

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidProblem):
                zeros_box(tol=tol)

    def test_rejects_non_finite_data(self):
        with pytest.raises(InvalidProblem):
            BoxQP(Q=[[1.0]], c=[np.inf], A=[[0.0]], b=[0.0], tol=1.0)

    def test_rejects_empty_problems(self):
        # n = 0 would reach solve() and divide by zero in the sigma rule
        with pytest.raises(InvalidProblem, match="n = 0"):
            BoxQP(Q=np.zeros((0, 0)), c=[], A=np.zeros((0, 0)), b=[], tol=1.0)
        with pytest.raises(InvalidProblem, match="n = 0"):
            BoxQP(Q=np.zeros((0, 0)), c=[], A=np.zeros((2, 0)), b=[0.0, 0.0], tol=1.0)
        with pytest.raises(InvalidProblem, match="n = 0"):
            StandardQP(Qt=np.zeros((0, 0)), ct=[], At=np.zeros((0, 0)), bt=[])

    def test_rejects_non_square_q(self):
        with pytest.raises(InvalidProblem, match="Q must be square"):
            BoxQP(Q=np.ones((2, 3)), c=[0.0, 0.0], A=np.zeros((1, 2)), b=[0.0], tol=1.0)
        with pytest.raises(InvalidProblem, match="Qt must be square"):
            StandardQP(Qt=np.ones((2, 3)), ct=[0.0, 0.0], At=np.zeros((1, 2)), bt=[0.0])

    def test_q_is_stored_exactly_symmetric(self):
        # one symmetric Q for every reader: an exactly symmetric Q is kept bit
        # for bit, signed zeros included; one that is symmetric only to
        # within SYMMETRY_RTOL is stored as its upper triangle mirrored
        n = 4
        upper = np.triu(np.ones((n, n), dtype=bool))
        G = np.random.default_rng(7).normal(size=(n, n))
        Q = np.where(upper, G @ G.T, (G @ G.T).T) + np.eye(n)
        Q[0, 3] = Q[3, 0] = -0.0
        near = Q.copy()
        delta = 0.2 * SYMMETRY_RTOL * np.linalg.norm(Q)  # ||near - near'|| = 2 delta
        near[2, 0] += delta
        near[1, 3] -= delta
        assert not np.array_equal(near, near.T)
        for make in (
            lambda Q: BoxQP(Q=Q, c=np.zeros(n), A=np.ones((1, n)), b=[0.0], tol=1.0).Q,
            lambda Q: StandardQP(Qt=Q, ct=np.zeros(n), At=np.ones((1, n)), bt=[0.0]).Qt,
        ):
            assert make(Q).tobytes() == Q.tobytes()
            stored = make(near)
            assert stored.tobytes() == np.where(upper, near, near.T).tobytes()
            assert np.array_equal(stored, stored.T)
            assert stored[2, 0] == Q[0, 2] and stored[3, 1] == near[1, 3]

    def test_immutable_arrays(self):
        p = zeros_box(n=2, m=1)
        with pytest.raises(ValueError):
            p.Q[0, 0] = 1.0


class TestEvalQ:
    def test_zero_data(self):
        p = zeros_box(n=3, m=1)
        assert eval_q(p, [0.5, -0.5, 0.1]) == 0.0

    def test_hand_case_2d(self):
        p = BoxQP(Q=2.0 * np.eye(2), c=[1.0, 0.0], A=np.zeros((1, 2)), b=[0.0], tol=1.0)
        assert_allclose(eval_q(p, [1.0, 1.0]), 3.0)

    def test_hand_case_1d(self):
        p = BoxQP(Q=[[1.0]], c=[-1.0], A=np.zeros((1, 1)), b=[0.0], tol=1.0)
        assert_allclose(eval_q(p, [0.5]), -0.375)


class TestEvalQOmega:
    def test_all_zero(self):
        p = zeros_box(n=2, m=1)
        assert eval_q_omega(p, 1.0, [0.0, 0.0]) == 0.0

    def test_residual_term(self):
        p = BoxQP(Q=[[0.0]], c=[0.0], A=[[1.0]], b=[1.0], tol=1.0)
        assert_allclose(eval_q_omega(p, 1.0, [0.0]), 0.5)

    def test_regularizer_and_residual(self):
        p = BoxQP(Q=[[0.0]], c=[0.0], A=[[1.0]], b=[0.0], tol=1.0)
        assert_allclose(eval_q_omega(p, 0.5, [1.0]), 1.25)

    def test_lower_bounds_q_plus_penalty(self):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(3, 3))
        p = BoxQP(Q=B.T @ B, c=rng.normal(size=3), A=rng.normal(size=(2, 3)),
                  b=rng.normal(size=2), tol=1.0)
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, 3)
            omega = float(rng.uniform(0.01, 2.0))
            lhs = eval_q_omega(p, omega, x)
            rhs = eval_q(p, x) + residual_norm(p, x) ** 2 / (2.0 * omega)
            assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


class TestTransformStandard:
    def test_pi_two_identities(self):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(2, 2))
        sp = StandardQP(Qt=B.T @ B, ct=rng.normal(size=2), At=rng.normal(size=(1, 2)),
                        bt=rng.normal(size=1))
        box, back = transform_standard(sp, 2.0, tol=1e-2)
        e = np.ones(2)
        assert_allclose(box.A, sp.At)
        assert_allclose(box.b, sp.bt - sp.At @ e)
        assert_allclose(box.Q, sp.Qt)
        assert_allclose(box.c, sp.ct + sp.Qt @ e)
        assert_allclose(back(np.zeros(2)), e)

    def test_all_zero(self):
        sp = StandardQP(Qt=np.zeros((2, 2)), ct=np.zeros(2), At=np.zeros((1, 2)), bt=np.zeros(1))
        box, _ = transform_standard(sp, 7.0, tol=1.0)
        assert not box.Q.any() and not box.c.any() and not box.A.any() and not box.b.any()

    def test_pathological_pi_four(self):
        eps = 1e-3
        sp = StandardQP(Qt=np.zeros((2, 2)), ct=[-1.0, 0.0], At=[[eps, 1.0]], bt=[1.0])
        box, _ = transform_standard(sp, 4.0, tol=1e-2)
        assert_allclose(box.A, [[2.0 * eps, 2.0]])
        assert_allclose(box.b, [1.0 - 2.0 * eps - 2.0])
        assert_allclose(box.c, [-2.0, 0.0])

    def test_affine_exactness_and_back_map_range(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            B = rng.normal(size=(n, n))
            sp = StandardQP(Qt=B.T @ B, ct=rng.normal(size=n), At=rng.normal(size=(m, n)),
                            bt=rng.normal(size=m))
            pi = float(rng.uniform(0.5, 8.0))
            box, back = transform_standard(sp, pi, tol=1e-2)
            const = sp.objective(back(np.zeros(n)))  # q~(0.5 pi e) - q(0)
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, n)
                u = back(x)
                assert np.all(u >= -1e-12) and np.all(u <= pi + 1e-12)
                lhs = sp.objective(u)
                rhs = eval_q(box, x) + const
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
                # equality residuals are preserved exactly
                r_std = np.linalg.norm(sp.At @ u - sp.bt)
                assert_allclose(residual_norm(box, x), r_std, rtol=1e-10, atol=1e-12)


class TestProblemFactor:
    def test_zero_data(self):
        assert_allclose(problem_factor(zeros_box(n=1, m=1, tol=1.0)), math.log(2.0))

    def test_zero_data_n3_m1(self):
        assert_allclose(problem_factor(zeros_box(n=3, m=1, tol=0.1)),
                        math.log(4.0) + math.log(10.0), rtol=1e-12)

    def test_norms_and_small_tol(self):
        # data norms summing to 9, n + m = 10, tol = 1e-6
        p = BoxQP(Q=np.zeros((7, 7)), c=np.zeros(7), A=np.zeros((3, 7)), b=[9.0, 0.0, 0.0],
                  tol=1e-6)
        assert_allclose(problem_factor(p), math.log(10.0) + math.log(10.0) + 6.0 * math.log(10.0),
                        rtol=1e-12)

    def test_monotone_in_tol_and_norms(self):
        rng = np.random.default_rng(8)
        B = rng.normal(size=(3, 3))
        base = dict(Q=B.T @ B, c=rng.normal(size=3), A=rng.normal(size=(2, 3)),
                    b=rng.normal(size=2))
        l1 = problem_factor(BoxQP(tol=1e-2, **base))
        l2 = problem_factor(BoxQP(tol=1e-4, **base))
        assert l2 >= l1
        bigger = dict(base, c=3.0 * base["c"])
        assert problem_factor(BoxQP(tol=1e-2, **bigger)) >= l1


class TestGrowPiSchedule:
    def test_doubling(self):
        gen = grow_pi_schedule(1.0)
        assert [next(gen) for _ in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_cap(self):
        got = []
        with pytest.raises(PiCapExceeded):
            for pi in grow_pi_schedule(10.0, cap=50.0):
                got.append(pi)
        assert got == [10.0, 20.0, 40.0]

    def test_invalid_start(self):
        with pytest.raises(InvalidProblem):
            next(grow_pi_schedule(0.0))
