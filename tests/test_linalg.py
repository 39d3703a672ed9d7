import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from boxipm.errors import DimensionError, InvalidProblem, SingularSystem
from boxipm.linalg import (
    EPS_MACH, QRFactor, _check_info, as_matrix, as_vector, mirror_upper, norm2_upper,
    solve_symmetric, symmetric_inverse,
)


def _graded(rng, d):
    """Random d x d matrix with rows scaled across 1e-4 .. 1e4.

    QRFactor rejects a pivot at or below d eps ||G||_inf: rows graded across
    1e-8 .. 1e8 fall below it from d = 5 on, across 1e-4 .. 1e4 they stay
    above."""
    return rng.normal(size=(d, d)) * np.logspace(-4.0, 4.0, d)[rng.permutation(d), None]


class TestSolveLinear:
    """Square systems G u = v solved with QRFactor(G).solve(v)."""

    def test_identity(self):
        assert_allclose(QRFactor(np.eye(3)).solve([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        assert_allclose(QRFactor(np.diag([2.0, 4.0])).solve([2.0, 8.0]), [1.0, 2.0])

    def test_hand_elimination(self):
        G = np.array([[1.0, 1.0], [1.0, 2.0]])
        v = np.array([3.0, 5.0])
        u = QRFactor(G).solve(v)
        assert_allclose(u, [1.0, 2.0], rtol=1e-14)
        assert_allclose(G @ u, v, rtol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            QRFactor(np.array([[1.0, 2.0], [2.0, 4.0]])).solve([1.0, 1.0])
        with pytest.raises(SingularSystem):
            QRFactor(np.zeros((2, 2))).solve([1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            QRFactor(np.eye(3)).solve([1.0, 2.0])
        with pytest.raises(DimensionError):
            QRFactor(np.ones((2, 3))).solve([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidProblem):
            QRFactor(np.array([[np.nan, 0.0], [0.0, 1.0]])).solve([1.0, 1.0])

    def test_residual_bound_random_well_conditioned(self):
        rng = np.random.default_rng(42)
        for d in (2, 5, 12, 30, 50):
            G = rng.normal(size=(d, d)) + 3.0 * np.sqrt(d) * np.eye(d)
            v = rng.normal(size=d)
            u = QRFactor(G).solve(v)
            kappa = np.linalg.cond(G)
            res = np.linalg.norm(G @ u - v) / np.linalg.norm(v)
            assert res <= 100.0 * kappa * EPS_MACH

    def test_recovery_bound(self):
        rng = np.random.default_rng(1)
        for d in (3, 10, 25, 50):
            G = rng.normal(size=(d, d)) + 3.0 * np.sqrt(d) * np.eye(d)
            u_true = rng.normal(size=d)
            u = QRFactor(G).solve(G @ u_true)
            kappa = np.linalg.cond(G)
            err = np.linalg.norm(u - u_true) / np.linalg.norm(u_true)
            assert err <= 100.0 * kappa * EPS_MACH

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        v = rng.normal(size=8)
        u1 = QRFactor(G).solve(v)
        u2 = QRFactor(G).solve(v)
        assert np.array_equal(u1, u2)


class TestQRFactorCondEstimate:
    """QRFactor.cond_estimate: dtrcon on R, where kappa_2(R) = kappa_2(G)."""

    @pytest.mark.parametrize("d", [1, 5, 12, 28, 45])
    def test_within_a_factor_d_of_kappa_2(self, d):
        rng = np.random.default_rng(300 + d)
        spd = rng.normal(size=(d, d))
        for G in (rng.normal(size=(d, d)), _graded(rng, d), spd @ spd.T + np.eye(d)):
            kappa_2 = np.linalg.cond(G)
            est = QRFactor(G).cond_estimate()
            assert kappa_2 / d <= est <= d * kappa_2

    def test_exact_on_diagonals(self):
        assert QRFactor(np.eye(3)).cond_estimate() == 1.0
        assert QRFactor(np.diag([1.0, 1000.0])).cond_estimate() == 1000.0

    def test_empty_and_singular(self):
        with pytest.raises(DimensionError):  # LAPACK has no d = 0 factor
            QRFactor(np.zeros((0, 0)))
        with pytest.raises(SingularSystem):  # a singular G has no factor to estimate
            QRFactor(np.zeros((2, 2)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        v = np.array([1.0, bad, 2.0])
        G = np.eye(3)
        G[1, 2] = bad
        for call in (
            lambda: as_vector(v),
            lambda: as_vector(np.float64(bad)),
            lambda: as_matrix(G),
            lambda: as_matrix(v),  # 1-D input is promoted to one row, then checked
            lambda: QRFactor(G),
            lambda: QRFactor(np.eye(3)).solve(v),
        ):
            with pytest.raises(InvalidProblem):
                call()

    def test_wrong_ndim_and_length_rejected(self):
        for call in (
            lambda: as_vector(np.ones((2, 2))),
            lambda: as_vector(np.ones((1, 1, 1))),
            lambda: as_vector([1.0, 2.0], dim=3),
            lambda: as_matrix(np.ones((2, 2, 2))),
            lambda: as_matrix(np.ones((2, 3)), rows=3),
            lambda: as_matrix(np.ones((2, 3)), cols=2),
            lambda: QRFactor(np.ones((2, 3))),
            lambda: QRFactor(np.ones((2, 2, 2))),
            lambda: QRFactor(np.eye(3)).solve(np.ones(2)),
            lambda: QRFactor(np.eye(3)).solve(np.ones((3, 1))),  # vectors only
        ):
            with pytest.raises(DimensionError):
                call()

    def test_scalars_and_lists_are_promoted(self):
        assert as_vector(2.0).shape == (1,)
        assert as_matrix(2.0).shape == (1, 1)
        assert as_matrix([1.0, 2.0]).shape == (1, 2)
        a = np.arange(3.0)
        assert as_vector(a) is a  # a float64 vector is returned as is, not copied


def _quasi_definite(rng, d):
    """Random symmetric d x d matrix [[P, B'], [B, -C]] with P and C
    positive definite, the shape of the reduced Newton system."""
    n = (d + 1) // 2
    X, Y = rng.normal(size=(n, n)), rng.normal(size=(d - n, d - n))
    G = np.empty((d, d))
    G[:n, :n] = X @ X.T / n + np.eye(n)
    G[n:, n:] = -(Y @ Y.T / max(d - n, 1) + np.eye(d - n))
    G[n:, :n] = rng.normal(size=(d - n, n))
    G[:n, n:] = G[n:, :n].T
    return G


class TestSolveSymmetric:
    """solve_symmetric: Bunch-Kaufman LDL' through one dsysv call."""

    @pytest.mark.parametrize("d", [1, 5, 28, 45, 109])
    def test_backward_error(self, d):
        rng = np.random.default_rng(400 + d)
        n = (d + 1) // 2
        for _ in range(5):
            scale = np.logspace(-4.0, 4.0, d)[rng.permutation(d)]
            newton_like = _quasi_definite(rng, d)  # diagonal as near the box faces
            newton_like[np.diag_indices(n)] += np.logspace(-8.0, 12.0, n)
            newton_like[n:, n:] *= 1e-6
            plain = _quasi_definite(rng, d)
            for G in (plain, scale[:, None] * plain * scale, newton_like):
                v = rng.normal(size=d)
                u, _, _ = solve_symmetric(G, v.copy())
                bound = 10.0 * d * EPS_MACH * np.linalg.norm(G, 2) * np.linalg.norm(u)
                assert np.linalg.norm(G @ u - v) <= bound

    def test_exactly_singular_raises(self):
        for G in (np.zeros((2, 2)), np.ones((3, 3)), np.array([[0.0, 0.0], [0.0, 1.0]])):
            with pytest.raises(SingularSystem, match="LAPACK dsysv"):
                solve_symmetric(G, np.ones(G.shape[0]))

    def test_reads_only_the_upper_triangle(self):
        G = _quasi_definite(np.random.default_rng(8), 6)
        v = np.arange(1.0, 7.0)
        junk = G.copy()
        junk[np.tril_indices(6, -1)] = np.nan
        assert np.array_equal(solve_symmetric(junk, v.copy())[0], solve_symmetric(G, v.copy())[0])

    def test_caller_arrays(self):
        rng = np.random.default_rng(9)
        G = _quasi_definite(rng, 7)
        vbig = rng.normal(size=(7, 2))
        ref = solve_symmetric(G, vbig[:, 0].copy())[0]
        G_f, G_ro = np.asfortranarray(G), G.copy()
        G_ro.flags.writeable = False
        for M in (G, G_f, G_ro):
            M0, v0 = M.copy(), vbig.copy()
            # a strided or read-only v is left unchanged, and so is G
            assert np.array_equal(solve_symmetric(M, vbig[:, 0])[0], ref)
            frozen = vbig[:, 0].copy()
            frozen.flags.writeable = False
            assert np.array_equal(solve_symmetric(M, frozen)[0], ref)
            assert np.array_equal(M, M0) and np.array_equal(vbig, v0)
            # a contiguous float64 v is overwritten with u, and returned
            v = vbig[:, 0].copy()
            assert solve_symmetric(M, v)[0] is v
            assert np.array_equal(v, ref)


def _factor_stack(k, d):
    """An empty stack of k Fortran-ordered d x d matrices, as a trace
    recorder holds its factors."""
    return np.empty((k, d, d)).transpose(0, 2, 1)


class TestSymmetricInverse:
    """symmetric_inverse: dsytri on each factor that solve_symmetric
    returned, in place in the caller's stack."""

    @pytest.mark.parametrize("d", [1, 2, 5, 28, 45])
    def test_matches_the_explicit_inverse(self, d):
        # quasi-definite matrices need 2 x 2 pivots, so both block kinds of D
        # are inverted; each inverse is full and exactly symmetric, written
        # over its factor's slot, and the factors dsysv returned are left as
        # they were
        rng = np.random.default_rng(500 + d)
        Gs = [_quasi_definite(rng, d) for _ in range(5)]
        factors = [solve_symmetric(G, rng.normal(size=d))[1:] for G in Gs]
        kept = [ldu.copy(order="F") for ldu, _ in factors]
        stack = _factor_stack(5, d)
        for slot, (ldu, _) in zip(stack, factors):
            np.copyto(slot, ldu)
        Y = symmetric_inverse(stack, [ipiv for _, ipiv in factors])
        assert Y is stack
        for G, (ldu, _), factor, Yi in zip(Gs, factors, kept, Y):
            assert ldu.tobytes(order="F") == factor.tobytes(order="F")
            assert np.array_equal(Yi, Yi.T)
            ref = np.linalg.inv(G)
            assert np.abs(Yi - ref).max() <= 1e3 * d * EPS_MACH * np.abs(ref).max()

    def test_a_batch_gives_each_factor_the_bits_it_gives_alone(self):
        rng = np.random.default_rng(12)
        factors = [solve_symmetric(_quasi_definite(rng, 7), np.ones(7))[1:] for _ in range(3)]
        stack = _factor_stack(3, 7)
        for slot, (ldu, _) in zip(stack, factors):
            np.copyto(slot, ldu)
        symmetric_inverse(stack, [ipiv for _, ipiv in factors])
        for Yi, (ldu, ipiv) in zip(stack, factors):
            alone = _factor_stack(1, 7)
            np.copyto(alone[0], ldu)
            assert symmetric_inverse(alone, [ipiv])[0].tobytes() == Yi.tobytes()

    def test_reads_the_factor_of_the_upper_triangle(self):
        G = _quasi_definite(np.random.default_rng(10), 6)
        junk = G.copy()
        junk[np.tril_indices(6, -1)] = np.nan
        Y, ref = _factor_stack(1, 6), _factor_stack(1, 6)
        (ldu, ipiv), (ref_ldu, ref_ipiv) = (solve_symmetric(a, np.ones(6))[1:] for a in (junk, G))
        np.copyto(Y[0], ldu)
        np.copyto(ref[0], ref_ldu)
        assert np.array_equal(symmetric_inverse(Y, [ipiv]), symmetric_inverse(ref, [ref_ipiv]))


def _mirrored(G):
    """The upper triangle of the last two axes of ``G`` mirrored, by np.where."""
    d = G.shape[-1]
    return np.where(np.triu(np.ones((d, d), dtype=bool)), G, np.swapaxes(G, -1, -2))


class TestMirrorUpper:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_selects_the_upper_triangle_in_place(self, order):
        # by selection, as np.where would: signed zeros and the diagonal keep
        # their bits, and nothing of the strict lower triangle is read
        G = np.array(np.random.default_rng(11).normal(size=(5, 5)), order=order)
        G[0, 3] = -0.0
        ref = _mirrored(G)
        G[np.tril_indices(5, -1)] = np.nan
        buf = G
        mirror_upper(G)
        assert G is buf and G.flags[f"{order}_CONTIGUOUS"]
        assert G.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_mirrors_every_matrix_of_a_stack(self, order, k):
        # C-ordered matrices, or Fortran-ordered ones as a trace recorder's
        # factor slots, a leading part of the stack only
        stack = np.random.default_rng(12).normal(size=(4, 6, 6))
        if order == "F":
            stack = stack.transpose(0, 2, 1)
        ref = _mirrored(stack[:k])
        rest = stack[k:].copy()
        stack[:k][:, *np.tril_indices(6, -1)] = np.nan
        mirror_upper(stack[:k])
        assert np.array_equal(stack[:k], ref) and np.array_equal(stack[k:], rest)

    def test_other_layouts_are_refused(self):
        with pytest.raises(ValueError, match="C- or Fortran-ordered"):
            mirror_upper(np.zeros((6, 6))[::2, ::2])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_peak_memory_is_below_one_matrix(self, order):
        # the gather of the strict upper triangle, 28 * 27 / 2 entries, is
        # the only temporary: the mask selection that this replaced copied
        # the whole transpose, as G.T overlaps G
        import tracemalloc

        d = 28
        G = np.zeros((d, d), order=order)
        mirror_upper(G)  # the index pairs of the size are cached
        tracemalloc.start()
        try:
            mirror_upper(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < G.nbytes


class TestQRFactorContract:
    """The factor matches scipy.linalg.qr(pivoting=True), which it replaced."""

    @pytest.mark.parametrize("d", [1, 5, 28, 45, 109])
    def test_diag_r_and_pivots_match_scipy_qr(self, d):
        rng = np.random.default_rng(100 + d)
        for G in (rng.normal(size=(d, d)), _graded(rng, d)):
            _, R, piv = scipy.linalg.qr(G, pivoting=True)
            fac = QRFactor(G)
            assert np.array_equal(np.abs(np.diag(fac._qr)), np.abs(np.diag(R)))
            assert np.array_equal(fac._piv, piv)

    def test_singular_on_the_same_inputs_as_scipy_qr(self):
        rng = np.random.default_rng(7)
        B = rng.normal(size=(6, 3))
        zero_col = rng.normal(size=(5, 5))
        zero_col[:, 2] = 0.0
        cases = [
            zero_col,
            B @ rng.normal(size=(3, 6)),  # rank 3
            np.array([[1.0, 2.0], [2.0, 4.0]]),
            np.diag([1.0, 1e-300]),
            rng.normal(size=(6, 6)) + 6.0 * np.eye(6),
        ]
        for G in cases:
            d = G.shape[0]
            diag_min = np.abs(np.diag(scipy.linalg.qr(G, pivoting=True)[1])).min()
            if diag_min <= d * EPS_MACH * np.abs(G).sum(axis=1).max():
                with pytest.raises(SingularSystem):
                    QRFactor(G)
            else:
                QRFactor(G)
        with pytest.raises(SingularSystem):
            QRFactor(zero_col)
        with pytest.raises(SingularSystem):
            QRFactor(cases[1])

    def test_lapack_info_is_checked(self):
        with pytest.raises(SingularSystem, match="LAPACK dtrtrs: pivot 1 "):
            _check_info("dtrtrs", 2)
        with pytest.raises(ValueError, match="argument 3 of LAPACK dormqr"):
            _check_info("dormqr", -3)
        _check_info("dgeqp3", 0)

    @pytest.mark.parametrize("d", [1, 5, 28, 45, 109])
    def test_backward_error(self, d):
        rng = np.random.default_rng(200 + d)
        for G in (_graded(rng, d), _graded(rng, d).T):
            fac = QRFactor(G)
            for v in (rng.normal(size=d), G @ rng.normal(size=d)):
                u = fac.solve(v)
                assert u.shape == v.shape
                bound = 10.0 * d * EPS_MACH * np.linalg.norm(G, 2) * np.linalg.norm(u)
                assert np.linalg.norm(G @ u - v) <= bound


class TestQRFactorInputs:
    def test_empty_system(self):
        with pytest.raises(DimensionError, match="d >= 1"):
            QRFactor(np.zeros((0, 0)))

    def test_layouts_give_the_c_contiguous_result_and_leave_inputs_unchanged(self):
        rng = np.random.default_rng(12)
        big = rng.normal(size=(14, 14)) + 7.0 * np.eye(14)
        vbig = rng.normal(size=(14, 6))
        frozen_G, frozen_v = big[:7, :7].copy(), vbig[:7, 0].copy()
        frozen_G.flags.writeable = False
        frozen_v.flags.writeable = False
        cases = [
            (frozen_G, frozen_v),
            (big[:7, :7].T, vbig[:7, 1]),
            (np.asfortranarray(big[:7, :7]), vbig[:7, 2]),
            (big[::2, ::2], vbig[::2, 0]),
            (big[1::2, 1::2], vbig[1::2, 3]),
        ]
        for G, v in cases:
            G0, v0 = G.copy(), v.copy()
            fac = QRFactor(G)
            u = fac.solve(v)
            ref = QRFactor(np.ascontiguousarray(G)).solve(np.ascontiguousarray(v))
            assert np.array_equal(u, ref)
            assert fac.cond_estimate() == QRFactor(np.ascontiguousarray(G)).cond_estimate()
            assert np.array_equal(G, G0) and np.array_equal(v, v0)
