import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxipm import BoxQP, Iterate, compute_params_practical
from boxipm.errors import StepRejected
from boxipm.kkt import eval_F
from boxipm.linalg import EPS_MACH
from boxipm.neighborhoods import (
    STEP_CENTRALITY,
    STEP_ERROR_RESET,
    STEP_PATH,
    check_step,
    complementarity_gap,
)

from support import random_boxqp
from test_kkt import make_mp, near_path_iterate, zeros_problem


def passes(kind, mp, tau, F):
    """Whether the residual F at a new iterate meets the rule for ``kind``."""
    try:
        check_step(kind, mp, tau, F.eq_norm, F.comp_norm)
    except StepRejected:
        return False
    return True


class TestClassify:
    """Residuals classified by the post-check rule, one step kind at a time."""

    def test_pure_barrier_central_point(self):
        p = zeros_problem()
        mp = make_mp()
        tau = 0.7
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[tau], mu_r=[tau])
        F = eval_F(p, mp, z, tau)
        assert F.eq_norm == 0.0 and F.comp_norm == 0.0
        for kind in (STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET):
            assert passes(kind, mp, tau, F)

    def test_boundary_of_width_theta(self):
        # r1..r2 vanish by choosing c = mu_l - mu_r; comp residual hits
        # theta*tau exactly (theta chosen binary-exact), so the full width
        # holds on the boundary while the half width fails.
        mp = make_mp(theta=0.25, beta=0.25)
        tau = 1.0
        mu_l = 1.25
        mu_r = tau
        p = BoxQP(Q=np.zeros((1, 1)), c=[mu_l - mu_r], A=np.zeros((1, 1)), b=[0.0], tol=0.1)
        z = Iterate(x=[0.0], lam=[0.0], mu_l=[mu_l], mu_r=[mu_r])
        F = eval_F(p, mp, z, tau)
        assert F.eq_norm == 0.0
        assert F.comp_norm == mp.theta * tau
        assert passes(STEP_PATH, mp, tau, F)
        with pytest.raises(StepRejected, match="centrality step failed its post-check: comp"):
            check_step(STEP_CENTRALITY, mp, tau, F.eq_norm, F.comp_norm)

    def test_half_width_implies_full_width(self):
        rng = np.random.default_rng(2)
        p = random_boxqp(rng, 3, 2, tol=1e-2)
        mp = compute_params_practical(p)
        held = 0
        for _ in range(200):
            tau = float(rng.uniform(1e-6, 10.0))
            z = near_path_iterate(rng, 3, 2, 0.5, tau)  # mu∘e within 10% of tau
            F = eval_F(p, mp, z, tau)
            if passes(STEP_CENTRALITY, mp, tau, F):
                held += 1
                assert passes(STEP_PATH, mp, tau, F)
        assert 0 < held < 200

    def test_error_reset_floor(self):
        # the (r1, r2) bound ignores the complementarity blocks
        mp = make_mp()
        floor = 100.0 * mp.N * EPS_MACH * mp.C_DF * mp.C_z
        check_step(STEP_ERROR_RESET, mp, 1.0, floor, 1e300)
        with pytest.raises(StepRejected, match="error_reset step failed its post-check: eq"):
            check_step(STEP_ERROR_RESET, mp, 1.0, 2.0 * floor, 0.0)


class TestComplementarityGap:
    def test_central_point(self):
        tau = 0.3
        z = Iterate(x=np.zeros(4), lam=np.zeros(2), mu_l=tau * np.ones(4), mu_r=tau * np.ones(4))
        assert_allclose(complementarity_gap(z), 2 * 4 * tau)

    def test_hand_case(self):
        tau = 0.9
        z = Iterate(x=[0.5], lam=[0.0], mu_l=[2.0 * tau / 3.0], mu_r=[2.0 * tau])
        assert_allclose(complementarity_gap(z), 2.0 * tau)

    def test_neighborhood_bound(self):
        # any point with comp residual <= theta*tau has gap <= 2n(1+theta)tau
        rng = np.random.default_rng(3)
        theta = 0.3
        n = 3
        for _ in range(100):
            tau = float(rng.uniform(0.01, 5.0))
            x = rng.uniform(-0.8, 0.8, n)
            # perturb the central multipliers within the allowed band
            d = rng.uniform(-1.0, 1.0, 2 * n)
            d *= theta * tau / max(np.linalg.norm(d), 1e-12)
            mu_l = (tau + d[:n]) / (1.0 + x)
            mu_r = (tau + d[n:]) / (1.0 - x)
            z = Iterate(x=x, lam=np.zeros(1), mu_l=mu_l, mu_r=mu_r)
            assert complementarity_gap(z) <= 2 * n * (1 + theta) * tau * (1 + 1e-12)


class TestMinCompProduct:
    def test_central_point(self):
        tau = 0.25
        z = Iterate(x=np.zeros(2), lam=np.zeros(1), mu_l=tau * np.ones(2), mu_r=tau * np.ones(2))
        assert_allclose(np.concatenate([(1.0 + z.x) * z.mu_l, (1.0 - z.x) * z.mu_r]), tau)

    def test_min_selection(self):
        theta, tau = 0.3, 1.0
        z = Iterate(x=[0.0, 0.0], lam=[0.0],
                    mu_l=[(1 - theta) * tau, tau], mu_r=[tau, tau])
        products = np.concatenate([(1.0 + z.x) * z.mu_l, (1.0 - z.x) * z.mu_r])
        assert_allclose(products.min(), (1 - theta) * tau)

    def test_lower_bound_inside_neighborhood(self):
        # componentwise |mu (1 +- x) - tau| <= theta tau forces >= (1-theta) tau
        rng = np.random.default_rng(4)
        theta = 0.3
        n = 4
        for _ in range(100):
            tau = float(rng.uniform(0.01, 2.0))
            x = rng.uniform(-0.7, 0.7, n)
            d = rng.uniform(-1.0, 1.0, 2 * n)
            d *= theta * tau / max(np.linalg.norm(d), 1e-12)
            z = Iterate(x=x, lam=np.zeros(1),
                        mu_l=(tau + d[:n]) / (1.0 + x), mu_r=(tau + d[n:]) / (1.0 - x))
            products = np.concatenate([(1.0 + z.x) * z.mu_l, (1.0 - z.x) * z.mu_r])
            assert products.min() >= (1 - theta) * tau * (1 - 1e-12)
