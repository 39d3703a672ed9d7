import math

import numpy as np
import pytest
import scipy.linalg.lapack
from numpy.testing import assert_allclose

from boxipm import (
    BoxQP, DimensionError, InvalidProblem, Iterate, OutOfDomain, StepRejected,
    compute_params_practical,
)
from boxipm.kkt import _Workspace, eval_DF, eval_F, eval_grad_f, eval_hess_f
from boxipm.linalg import EPS_MACH
from boxipm.neighborhoods import STEP_PATH
from boxipm.params import MethodParams
from boxipm.solver import _step, lift

from support import (
    eval_f, iterate_from_array, loaded_workspace, newton_step, random_boxqp, random_iterate,
    solve_symmetric,
)


def make_mp(**overrides):
    """Hand-built parameter record for unit tests of the evaluation formulas."""
    base = dict(
        theta=0.3, beta=0.3, sigma=0.85, N=4, C_Hf=10.0, C_q=1.0, omega=1.0,
        C_lambda=1.0, C_dmu=1.0, tau_A=1.0, tau_E=1e-6, C_mu=1.0, C_z=10.0,
        c_gap=1e-8, C_DF=10.0, C_DFinv=10.0, kappa_DF=100.0, C_dF=10.0,
        C_dDF=2.0, C_ddz=200.0, C_nu=10.0, nu_2=1e-3, nu_1=1e-4, nu_0=1e-5,
        rho=1e-3, K=4, M=10, C_Df=10.0, C_F=10.0, C_dz=100.0, C_x=1.0,
    )
    base.update(overrides)
    return MethodParams(**base)


def zeros_problem(n=1, m=1, tol=0.1):
    return BoxQP(Q=np.zeros((n, n)), c=np.zeros(n), A=np.zeros((m, n)), b=np.zeros(m), tol=tol)


class TestIterate:
    def test_rejects_boundary_x(self):
        with pytest.raises(InvalidProblem):
            Iterate(x=[1.0], lam=[0.0], mu_l=[1.0], mu_r=[1.0])

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(InvalidProblem):
            Iterate(x=[0.0], lam=[0.0], mu_l=[0.0], mu_r=[1.0])

    def test_rejects_empty_x(self):
        # n = 0 is no iterate of any problem: BoxQP rejects it too
        with pytest.raises(DimensionError):
            Iterate(x=[], lam=[1.0], mu_l=[], mu_r=[])

    def test_round_trip_array(self):
        z = Iterate(x=[0.1, -0.2], lam=[3.0], mu_l=[1.0, 2.0], mu_r=[0.5, 0.25])
        assert z.as_array().tolist() == [0.1, -0.2, 3.0, 1.0, 2.0, 0.5, 0.25]
        z2 = iterate_from_array(z.as_array(), n=2, m=1)
        assert_allclose(z2.x, z.x)
        assert_allclose(z2.mu_r, z.mu_r)

    def test_owns_its_blocks(self):
        # the caller's arrays, even one passed twice, are copied in
        x, mu = np.array([0.5, -0.5]), np.ones(2)
        z = Iterate(x=x, lam=np.zeros(1), mu_l=mu, mu_r=mu)
        x[0] = 7.0
        mu[1] = -3.0
        assert z.x.tolist() == [0.5, -0.5]
        assert z.mu_l.tolist() == [1.0, 1.0] and z.mu_r.tolist() == [1.0, 1.0]
        assert z.mu_l is not z.mu_r

    def test_blocks_are_read_only_and_as_array_is_a_copy(self):
        z = Iterate(x=[0.5, -0.5], lam=[0.0], mu_l=[1.0, 1.0], mu_r=[1.0, 1.0])
        for block in (z.x, z.lam, z.mu_l, z.mu_r):
            with pytest.raises(ValueError):
                block[0] = 0.25
        a = z.as_array()
        a[0] = 0.25
        assert z.x[0] == 0.5


class TestPrimalFunction:
    def test_value_at_zero_is_penalty_only(self):
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=[[1.0, 0.0]], b=[2.0], tol=0.1)
        mp = compute_params_practical(p)
        expect = (np.linalg.norm(p.b) ** 2 / (2.0 * mp.omega)) / mp.tau_A
        assert_allclose(eval_f(p, mp, np.zeros(2)), expect, rtol=1e-12)

    def test_all_zero_data_hand_value(self):
        # quadratic part contributes (omega/2) x^2 / tau_A on zero data
        p = zeros_problem()
        mp = compute_params_practical(p)
        expect = (mp.omega / 8.0) / mp.tau_A - (math.log(1.5) + math.log(0.5))
        assert_allclose(eval_f(p, mp, [0.5]), expect, rtol=1e-12)

    def test_domain_guard(self):
        p = zeros_problem()
        mp = compute_params_practical(p)
        with pytest.raises(OutOfDomain):
            eval_f(p, mp, [1.0 - 1e-17])
        with pytest.raises(OutOfDomain):
            eval_grad_f(p, mp, [-1.0])


class TestGradient:
    def test_zero_at_origin_for_zero_data(self):
        p = zeros_problem(n=3)
        mp = compute_params_practical(p)
        assert_allclose(eval_grad_f(p, mp, np.zeros(3)), np.zeros(3))

    def test_value_at_origin(self):
        rng = np.random.default_rng(2)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        g0 = eval_grad_f(p, mp, np.zeros(3))
        expect = (p.c - p.A.T @ p.b / mp.omega) / mp.tau_A
        assert_allclose(g0, expect, rtol=1e-12)
        # the path start tau_A is chosen to make this small
        assert np.linalg.norm(g0) < 0.25

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = random_boxqp(rng, 4, 2, tol=1e-2)
        mp = compute_params_practical(p)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 4)
            g = eval_grad_f(p, mp, x)
            fd = np.empty(4)
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (eval_f(p, mp, x + e) - eval_f(p, mp, x - e)) / (2.0 * h)
            assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


class TestHessian:
    def test_all_zero_data_hand_value(self):
        p = zeros_problem()
        mp = compute_params_practical(p)
        h = eval_hess_f(p, mp, [0.0])
        assert_allclose(h, [[mp.omega / mp.tau_A + 2.0]], rtol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        p = random_boxqp(rng, 5, 3, tol=1e-2)
        mp = compute_params_practical(p)
        h = eval_hess_f(p, mp, rng.uniform(-0.5, 0.5, 5))
        assert np.array_equal(h, h.T)

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(5)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        x = rng.uniform(-0.4, 0.4, 3)
        H = eval_hess_f(p, mp, x)
        h = 1e-5
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (eval_grad_f(p, mp, x + e) - eval_grad_f(p, mp, x - e)) / (2.0 * h)
        assert_allclose(H, fd, rtol=1e-5, atol=1e-7)

    def test_identity_lower_bound_on_half_ball(self):
        rng = np.random.default_rng(6)
        p = random_boxqp(rng, 4, 2, tol=1e-2)
        mp = compute_params_practical(p)
        for _ in range(20):
            x = rng.normal(size=4)
            x *= rng.uniform(0.0, 0.5) / np.linalg.norm(x)
            lam_min = np.linalg.eigvalsh(eval_hess_f(p, mp, x)).min()
            assert lam_min >= 1.0 - 1e-8

    def test_c_hf_upper_bound_on_half_ball(self):
        rng = np.random.default_rng(7)
        p = random_boxqp(rng, 4, 2, tol=1e-2)
        mp = compute_params_practical(p)
        for _ in range(20):
            x = rng.normal(size=4)
            x *= rng.uniform(0.0, 0.5) / np.linalg.norm(x)
            assert np.linalg.norm(eval_hess_f(p, mp, x), 2) <= mp.C_Hf

    def test_gradient_bound_on_half_ball(self):
        rng = np.random.default_rng(17)
        p = random_boxqp(rng, 4, 2, tol=1e-2)
        mp = compute_params_practical(p)
        for _ in range(50):
            x = rng.normal(size=4)
            x *= rng.uniform(0.0, 0.5) / np.linalg.norm(x)
            assert np.linalg.norm(eval_grad_f(p, mp, x)) <= mp.C_Df


class TestOptimalityFunction:
    def test_pure_barrier_central_point(self):
        p = zeros_problem()
        mp = make_mp()
        tau = 0.7
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau])
        F = eval_F(p, mp, z, tau)
        for block in (F.r1, F.r2, F.r3, F.r4):
            assert_allclose(block, 0.0, atol=1e-15)

    def test_lift_identity(self):
        # at a lifted point: r2 = r3 = r4 = 0 (to eps) and r1 = tau_A grad f
        rng = np.random.default_rng(8)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        x = rng.uniform(-0.4, 0.4, 3)
        z = lift(p, mp, x)
        F = eval_F(p, mp, z, mp.tau_A)
        scale = mp.tau_A * max(1.0, float(np.abs(z.lam).max()))
        assert np.abs(F.r2).max() <= 1e-12 * scale
        assert np.abs(F.r3).max() <= 1e-12 * scale
        assert np.abs(F.r4).max() <= 1e-12 * scale
        assert_allclose(F.r1, mp.tau_A * eval_grad_f(p, mp, x), rtol=1e-9, atol=1e-9 * scale)

    def test_mu_l_perturbation_linearity(self):
        p = zeros_problem()
        mp = make_mp()
        tau = 0.5
        z = Iterate(x=[0.2], lam=[0.0], mu_l=[1.0], mu_r=[1.0])
        F = eval_F(p, mp, z, tau)
        delta = 0.125
        z2 = Iterate(x=[0.2], lam=[0.0], mu_l=[1.0 + delta], mu_r=[1.0])
        F2 = eval_F(p, mp, z2, tau)
        assert_allclose(F2.r1 - F.r1, [-delta])
        assert_allclose(F2.r3 - F.r3, [delta * 1.2])
        assert_allclose(F2.r2, F.r2)
        assert_allclose(F2.r4, F.r4)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tau_that_is_not_positive_and_finite(self, tau):
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[1.0], mu_r=[1.0])
        with pytest.raises(InvalidProblem, match="tau must be a positive finite real"):
            eval_F(zeros_problem(), make_mp(), z, tau)


def eval_DF_blocks(p, mp, z):
    """DF assembled block by block from identity and diagonal matrices: the
    reference that eval_DF, which writes its diagonals in place, must equal."""
    n, m = p.n, p.m
    I, Z = np.eye(n), np.zeros
    return np.block([
        [p.Q + mp.omega * I, -p.A.T, -I, I],
        [p.A, mp.omega * np.eye(m), Z((m, n)), Z((m, n))],
        [np.diag(z.mu_l), Z((n, m)), np.diag(1.0 + z.x), Z((n, n))],
        [-np.diag(z.mu_r), Z((n, m)), Z((n, n)), np.diag(1.0 - z.x)],
    ])


class TestJacobian:
    def test_hand_block_matrix(self):
        p = zeros_problem()
        mp = make_mp(omega=1.0)
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[1.0], mu_r=[1.0])
        J = eval_DF(p, mp, z)
        expect = np.array([
            [1.0, 0.0, -1.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ])
        assert_allclose(J, expect)

    def test_independent_of_tau(self):
        rng = np.random.default_rng(9)
        p = random_boxqp(rng, 2, 1, tol=1e-2)
        mp = compute_params_practical(p)
        z = Iterate(x=[0.1, -0.3], lam=[0.5], mu_l=[1.0, 2.0], mu_r=[0.5, 1.5])
        F_a = eval_F(p, mp, z, 1.0)
        F_b = eval_F(p, mp, z, 2.0)
        # complementarity blocks shift by the tau difference; Jacobian is shared
        assert_allclose(F_a.r3 - F_b.r3, np.ones(2))
        J = eval_DF(p, mp, z)
        assert np.array_equal(J, eval_DF(p, mp, z))

    @pytest.mark.parametrize("n, m", [(2, 1), (1, 2)])
    def test_rejects_an_iterate_of_other_dimensions(self, n, m):
        z = Iterate(x=[0.0] * n, lam=[0.0] * m, mu_l=[1.0] * n, mu_r=[1.0] * n)
        with pytest.raises(DimensionError, match="iterate dimensions"):
            eval_DF(zeros_problem(), make_mp(), z)

    @pytest.mark.parametrize("n,m", [(1, 0), (1, 1), (4, 2), (20, 8)])
    def test_equals_the_block_built_reference(self, n, m):
        rng = np.random.default_rng(40 + 10 * n + m)
        p = random_boxqp(rng, n, m, tol=1e-2)
        mp = compute_params_practical(p)
        z = random_iterate(rng, n, m)
        assert np.array_equal(eval_DF(p, mp, z), eval_DF_blocks(p, mp, z))

    def test_matches_directional_differences(self):
        # F is at most bilinear, so central differences are exact up to roundoff
        rng = np.random.default_rng(10)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        z = Iterate(x=rng.uniform(-0.5, 0.5, 3), lam=rng.normal(size=2),
                    mu_l=rng.uniform(0.5, 2.0, 3), mu_r=rng.uniform(0.5, 2.0, 3))
        J = eval_DF(p, mp, z)
        tau = 1.0
        N = 3 * 3 + 2
        for _ in range(5):
            v = rng.normal(size=N)
            h = 1e-3
            za = iterate_from_array(z.as_array() + h * v, 3, 2)
            zb = iterate_from_array(z.as_array() - h * v, 3, 2)
            fd = (eval_F(p, mp, za, tau).as_array() - eval_F(p, mp, zb, tau).as_array()) / (2.0 * h)
            scale = max(1.0, np.linalg.norm(J @ v))
            assert np.linalg.norm(J @ v - fd) <= 1e-6 * scale


def near_path_iterate(rng, n, m, gap, tau):
    """Interior point with 1 - |x_0| = gap and mu within 10% of tau/(e +- x)."""
    x = rng.uniform(-0.9, 0.9, size=n)
    x[0] = (1.0 - gap) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return Iterate(
        x=x,
        lam=rng.normal(size=m),
        mu_l=tau / (1.0 + x) * rng.uniform(0.9, 1.1, size=n),
        mu_r=tau / (1.0 - x) * rng.uniform(0.9, 1.1, size=n),
    )


def backward_error(J, dz, rhs):
    """Normwise backward error of dz as a solution of J dz = rhs."""
    res = np.linalg.norm(J @ dz - rhs)
    return res / (np.linalg.norm(J) * np.linalg.norm(dz) + np.linalg.norm(rhs))


def assert_step_equals_reference(p, mp, z, tau, reset_only):
    """The reduction written array by array, as in the _Workspace docstring,
    is the reference the in-place step must equal bit for bit, signed zeros
    included: the symmetric H has the equality rows negated and the lam rows
    and columns scaled by s, the power of two nearest 1/sqrt(omega), the
    right-hand side is (g1 + g3/(e+x) - g4/(e-x), -s g2), or (g1, -s g2) for
    a reset, whose g34 is 0, the solution's lam block is scaled by s, the Q
    block's diagonal is (Q_jj + omega) + w_l + w_r and
    dmu = g34/e - w∘(dx, -dx), with w = mu/e.  A second step of the same
    kind, from the state and residual that the first left, solves on the
    first one's factor (LAPACK dsytrs) with its w and the carried e, and
    each step moves (z, e) to (z + dz, e + (dx, -dx)), byte for byte."""
    n, m = p.n, p.m
    N = 3 * n + m
    e_plus_x, e_minus_x = 1.0 + z.x, 1.0 - z.x
    w_l, w_r = z.mu_l / e_plus_x, z.mu_r / e_minus_x
    s = 2.0 ** round(-0.5 * math.log2(mp.omega))
    H = np.zeros((n + m, n + m))
    H[:n, :n] = p.Q
    H[:n, n:] = -p.A.T * s
    H[n:, :n] = -p.A * s
    H[n:, n:] = -mp.omega * s * s * np.eye(m)
    H[np.diag_indices(n)] = (np.diag(p.Q) + mp.omega) + w_l + w_r
    ws = loaded_workspace(p, mp, z, tau)
    assert ws.F.tobytes() == eval_F(p, mp, z, tau).as_array().tobytes()
    assert ws.e.tobytes() == np.concatenate([e_plus_x, e_minus_x]).tobytes()
    factor = None
    for _ in range(2):
        F, ze = ws.F.copy(), ws.ze.copy()
        e_plus_x, e_minus_x = ze[N : N + n], ze[N + n :]
        comp = np.zeros(2 * n) if reset_only else F[n + m :]
        g = -np.concatenate([F[: n + m], comp])
        g1, g2, g3, g4 = g[:n], g[n : n + m], g[n + m : 2 * n + m], g[2 * n + m :]
        v = g1 if reset_only else g1 + g3 / e_plus_x - g4 / e_minus_x
        rhs = np.concatenate([v, -s * g2])
        if factor is None:
            u, ldu, ipiv = solve_symmetric(H, rhs)
            factor = ldu, ipiv
        else:
            u, info = scipy.linalg.lapack.dsytrs(*factor, rhs)
            assert info == 0
        u[n:] *= s
        dx = u[:n]
        ref = np.concatenate([u, g3 / e_plus_x - w_l * dx, g4 / e_minus_x - w_r * -dx])
        assert newton_step(ws, tau, reset_only).tobytes() == ref.tobytes()
        moved = np.concatenate([ze[:N] + ref, e_plus_x + dx, e_minus_x - dx])
        assert ws.ze.tobytes() == moved.tobytes()
    assert ws.factorizations == 1
    assert ws.H.tobytes(order="C") == H.tobytes()


class TestReducedDF:
    """The step workspace's reduced Newton system against the full DF."""

    def test_reduced_matrix_hand_values(self):
        # n = 1, m = 1: mu_l/(1+x) + mu_r/(1-x) = 2/1.5 + 1/0.5 joins Q + omega,
        # and the equality row is negated, which makes H symmetric
        p = BoxQP(Q=[[3.0]], c=[0.0], A=[[2.0]], b=[0.0], tol=0.1)
        mp = make_mp(omega=0.5)
        z = Iterate(x=[0.5], lam=[0.0], mu_l=[2.0], mu_r=[1.0])
        ws = loaded_workspace(p, mp, z, 1.0)
        newton_step(ws, 1.0, reset_only=False)
        assert_allclose(ws.H, [[3.5 + 2.0 / 1.5 + 2.0, -2.0], [-2.0, -0.5]], rtol=1e-15)

    @pytest.mark.parametrize("n,m", [(1, 0), (3, 0), (4, 2), (2, 5), (20, 8)])
    @pytest.mark.parametrize("gap", [0.5, 1e-6, 1e-12])
    @pytest.mark.parametrize("reset_only", [False, True])
    def test_matches_full_qr_backward_error(self, n, m, gap, reset_only):
        rng = np.random.default_rng(1000 * n + m)
        p = random_boxqp(rng, n, m, tol=1e-2)
        mp = compute_params_practical(p)
        N = 3 * n + m
        tau = 1e-3
        ws = _Workspace(p, mp)  # one workspace for every point, as in a solve
        for _ in range(3):
            z = near_path_iterate(rng, n, m, gap, tau)
            F = eval_F(p, mp, z, tau)
            comp = np.zeros(2 * n) if reset_only else np.concatenate([F.r3, F.r4])
            rhs = -np.concatenate([F.r1, F.r2, comp])
            J = eval_DF(p, mp, z)
            ref = np.linalg.solve(J, rhs)  # LU with partial pivoting
            ws.load(z)
            ws.eval_F(tau)
            dz = newton_step(ws, tau, reset_only)
            assert dz.shape == (N,)
            bound = 10.0 * N * EPS_MACH
            assert backward_error(J, ref, rhs) <= bound
            assert backward_error(J, dz, rhs) <= bound

    @pytest.mark.parametrize("n,m", [(1, 0), (4, 2), (20, 8)])
    @pytest.mark.parametrize("reset_only", [False, True])
    def test_in_place_step_equals_the_array_formulas(self, n, m, reset_only):
        rng = np.random.default_rng(90 + n + m)
        p = random_boxqp(rng, n, m, tol=1e-2)
        mp = compute_params_practical(p)
        z = near_path_iterate(rng, n, m, 1e-6, 1e-3)
        assert_step_equals_reference(p, mp, z, 1e-3, reset_only)

    @pytest.mark.parametrize("reset_only", [False, True])
    def test_signed_zeros_at_a_central_point(self, reset_only):
        # F = 0 exactly, so the step is made of zeros whose signs come from
        # -F (a reset's right-hand side is its (g1, -s g2) alone) and from
        # the products of the solve and of dmu
        p = zeros_problem(n=2, m=1)
        z = Iterate(x=[0.0, 0.0], lam=[0.0], mu_l=[0.5, 0.5], mu_r=[0.5, 0.5])
        assert_step_equals_reference(p, make_mp(), z, 0.5, reset_only)

    def test_rejects_mismatched_iterate(self):
        p = zeros_problem(n=2, m=1)
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[1.0], mu_r=[1.0])
        with pytest.raises(DimensionError):
            _Workspace(p, make_mp()).load(z)


def F_blocks(p, mp, z, tau):
    """F_tau block by block, left to right as in the kkt module docstring:
    the reference the one-gemv residual is held to."""
    r1 = p.Q @ z.x + mp.omega * z.x + p.c - p.A.T @ z.lam - z.mu_l + z.mu_r
    r2 = p.A @ z.x - p.b + mp.omega * z.lam
    return r1, r2, z.mu_l * (1.0 + z.x) - tau, z.mu_r * (1.0 - z.x) - tau


class TestWorkspaceResidual:
    """The workspace's in-place F is eval_F's, bit for bit, and the numpy
    formula's that its BLAS level-1 calls stand for."""

    @pytest.mark.parametrize("n,m,scale", [
        pytest.param(1, 0, 1.0, id="1-0"),
        pytest.param(4, 2, 1.0, id="4-2"),
        pytest.param(20, 8, 1.0, id="20-8"),
        pytest.param(32, 13, 1.0, id="32-13"),
        pytest.param(6, 3, 1e4, id="6-3-scale1e4"),
    ])
    def test_equals_eval_F_and_a_path_step_retargets_it(self, n, m, scale):
        # a path step writes (r3, r4) at its own tau, so its step from a
        # residual at another tau is the step from one at its own, bit for
        # bit; the step is taken before the post-check, which a random
        # iterate may fail
        rng = np.random.default_rng(70 + n + m)
        p = random_boxqp(rng, n, m, tol=1e-2, scale=scale)
        mp = compute_params_practical(p)
        z = random_iterate(rng, n, m)
        ws = loaded_workspace(p, mp, z, 0.75)
        F = eval_F(p, mp, z, 0.75)
        assert ws.F.tobytes() == F.as_array().tobytes()
        # daxpy with a = 1, a copy and a daxpy of ones with a = -tau round
        # as the ufuncs of the formula do
        r12 = np.add(ws.T.dot(ws.z), ws.cb)
        r34 = np.subtract(np.multiply(ws.mu, ws.e), 0.75)
        assert ws.F.tobytes() == np.concatenate([r12, r34]).tobytes()
        # each norm is one dot over its stacked blocks, BLAS ddot as
        # ndarray.dot makes it
        norms = (math.sqrt(r12.dot(r12)), math.sqrt(r34.dot(r34)))
        assert (ws.eq_norm, ws.comp_norm) == (F.eq_norm, F.comp_norm) == norms
        steps = []
        for tau in (0.75, 0.25):
            ws = loaded_workspace(p, mp, z, tau)
            try:
                _step(STEP_PATH, ws, 0.25)
            except StepRejected:  # the post-check does not matter here
                pass
            steps.append((ws.dz.tobytes(), ws.ze.tobytes()))
        assert steps[0] == steps[1]

    @pytest.mark.parametrize("n,m", [(1, 0), (4, 2), (20, 8)])
    @pytest.mark.parametrize("face", [0.0, 1.0, -1.0])
    def test_within_the_gemv_bound_of_the_block_formula(self, n, m, face):
        # (r1, r2) = T z + (c, -b) sums in the BLAS kernel's order, so it is
        # held to the block formula within (N + 2) eps (|T||z| + |(c, -b)|),
        # componentwise; (r3, r4) = mu∘e - tau is the block formula exactly
        rng = np.random.default_rng(80 + n + m)
        p = random_boxqp(rng, n, m, tol=1e-2)
        mp = compute_params_practical(p)
        z = random_iterate(rng, n, m)
        if face:  # x_0 one ulp from a face
            v = z.as_array()
            v[0] = face * np.nextafter(1.0, 0.0)
            z = iterate_from_array(v, n, m)
        F = eval_F(p, mp, z, 0.75)
        r1, r2, r3, r4 = F_blocks(p, mp, z, 0.75)
        T = eval_DF(p, mp, z)[: n + m]
        cb = np.concatenate([p.c, -p.b])
        bound = (3 * n + m + 2) * EPS_MACH * (np.abs(T) @ np.abs(z.as_array()) + np.abs(cb))
        err = np.abs(np.concatenate([F.r1, F.r2]) - np.concatenate([r1, r2]))
        assert (err <= bound).all()
        assert np.concatenate([F.r3, F.r4]).tobytes() == np.concatenate([r3, r4]).tobytes()

    def test_interior_margin_is_read_off_e(self):
        # 1 - |x_j| is min(1 + x_j, 1 - x_j) bit for bit
        x = np.random.default_rng(5).uniform(-1.0, 1.0, 1000)
        assert (1.0 - np.abs(x)).tobytes() == np.minimum(1.0 + x, 1.0 - x).tobytes()
