import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxipm.errors import DimensionError, InvalidProblem, SingularSystem
from boxipm.linalg import EPS_MACH, QRFactor, as_matrix, as_vector, cond_estimate, norm2_upper, solve_linear


class TestSolveLinear:
    def test_identity(self):
        assert_allclose(solve_linear(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        assert_allclose(solve_linear(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    def test_hand_elimination(self):
        G = np.array([[1.0, 1.0], [1.0, 2.0]])
        v = np.array([3.0, 5.0])
        u = solve_linear(G, v)
        assert_allclose(u, [1.0, 2.0], rtol=1e-14)
        assert_allclose(G @ u, v, rtol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])
        with pytest.raises(SingularSystem):
            solve_linear(np.zeros((2, 2)), [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear(np.eye(3), [1.0, 2.0])
        with pytest.raises(DimensionError):
            solve_linear(np.ones((2, 3)), [1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidProblem):
            solve_linear(np.array([[np.nan, 0.0], [0.0, 1.0]]), [1.0, 1.0])

    def test_residual_bound_random_well_conditioned(self):
        rng = np.random.default_rng(42)
        for d in (2, 5, 12, 30, 50):
            G = rng.normal(size=(d, d)) + 3.0 * np.sqrt(d) * np.eye(d)
            v = rng.normal(size=d)
            u = solve_linear(G, v)
            kappa = np.linalg.cond(G)
            res = np.linalg.norm(G @ u - v) / np.linalg.norm(v)
            assert res <= 100.0 * kappa * EPS_MACH

    def test_recovery_bound(self):
        rng = np.random.default_rng(1)
        for d in (3, 10, 25, 50):
            G = rng.normal(size=(d, d)) + 3.0 * np.sqrt(d) * np.eye(d)
            u_true = rng.normal(size=d)
            u = solve_linear(G, G @ u_true)
            kappa = np.linalg.cond(G)
            err = np.linalg.norm(u - u_true) / np.linalg.norm(u_true)
            assert err <= 100.0 * kappa * EPS_MACH

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        v = rng.normal(size=8)
        u1 = solve_linear(G, v)
        u2 = solve_linear(G, v)
        assert np.array_equal(u1, u2)


class TestCondEstimate:
    def test_identity(self):
        est = cond_estimate(np.eye(4))
        assert 0.1 <= est <= 10.0

    def test_diagonal_exact_values(self):
        est = cond_estimate(np.diag([1.0, 1000.0]))
        assert 100.0 <= est <= 10000.0

    def test_spd_known_spectrum(self):
        rng = np.random.default_rng(11)
        lams = np.linspace(1.0, 100.0, 5)
        W, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        G = W @ np.diag(lams) @ W.T
        est = cond_estimate(G)
        assert 10.0 <= est <= 1000.0

    def test_singular_propagates(self):
        with pytest.raises(SingularSystem):
            cond_estimate(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestNorm2Upper:
    def test_zero(self):
        assert norm2_upper(np.zeros((3, 3))) == 0.0

    def test_diag_between_spectral_and_frobenius(self):
        val = norm2_upper(np.diag([3.0, 4.0]))
        assert 4.0 <= val <= 5.0

    def test_nilpotent(self):
        assert_allclose(norm2_upper(np.array([[0.0, 1.0], [0.0, 0.0]])), 1.0)

    def test_upper_bounds_spectral_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            G = rng.normal(size=(d, d))
            assert norm2_upper(G) >= np.linalg.norm(G, 2) - 1e-12


class TestValidators:
    def test_as_vector_shape(self):
        with pytest.raises(DimensionError):
            as_vector(np.ones((2, 2)))
        with pytest.raises(DimensionError):
            as_vector([1.0, 2.0], dim=3)

    def test_as_matrix_checks(self):
        with pytest.raises(DimensionError):
            as_matrix(np.ones((2, 3)), rows=3)
        with pytest.raises(InvalidProblem):
            as_matrix([[np.inf]])

    def test_qr_factor_matrix_rhs(self):
        rng = np.random.default_rng(10)
        G = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        V = rng.normal(size=(6, 3))
        fac = QRFactor(G)
        U = fac.solve(V)
        assert U.shape == (6, 3)
        for j in range(3):
            assert_allclose(U[:, j], fac.solve(V[:, j]), rtol=1e-13)
        assert_allclose(fac.inverse(), np.linalg.inv(G), rtol=1e-12, atol=1e-14)
        with pytest.raises(DimensionError):
            fac.solve(np.ones((5, 3)))
