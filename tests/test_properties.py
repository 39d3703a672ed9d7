"""Property tests against the enumeration oracle over degenerate families.

Each example draws a family, the dimensions (n <= 6, so the 3^n oracle
stays cheap) and a seed for the data; the solve must return a strictly
interior x whose objective and equality residual are within tol of the
oracle's, as in acceptance criterion 1, on data scaled by 1e-4, 1 or
1e4.  The trace's condition number of DF, taken from the factor of the
step's reduced matrix, must be the exact kappa_1 of DF on the same
families.  Every path and centrality step of a
traced solve must meet the width bound of its kind, with no allowance
beyond the post-check's roundoff grace, at a strictly interior point.  A
solve factors the K Hessians, the initial reset's matrix, and once per
three stable or four fast cycles.
The compiled step (``boxipm.solver._step``) must give, after every step
of a solve, the bytes that the Python reference step of
``tests/support.py`` gives on the same families.
``derandomize=True`` makes the examples the same on every run.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxipm import BoxQP, StepRejected, compute_params_practical, oracle_solve_boxqp, solve
from boxipm.kkt import _Workspace, eval_DF
from boxipm.neighborhoods import COMP_CHECK_RTOL, STEP_CENTRALITY, STEP_ERROR_RESET, STEP_PATH
from boxipm.solver import HELD_STEPS, _step, lift, primal_init

from support import (
    ReferenceWorkspace,
    batched_cond_DF,
    random_boxqp_interior_infeasible,
    reference_step,
)
from test_kkt import near_path_iterate

FAMILIES = ("rank_deficient_Q", "rank_deficient_A", "infeasible_b", "interior_infeasible",
            "all_zero")


def degenerate_boxqp(family: str, n: int, m: int, seed: int, tol: float) -> BoxQP:
    """One instance of ``family``: Q of rank < n, A of rank < m (m >= 1, b in
    the range of A), b outside A(box) (m >= 1), A of rank m - 1 with b off
    its range and an interior least-squares point (m >= 2), or Q, c, A, b
    all zero; or, outside ``FAMILIES``, ``"feasible"``: Q of full rank and
    b in A(box)."""
    if family == "all_zero":
        return BoxQP(Q=np.zeros((n, n)), c=np.zeros(n), A=np.zeros((m, n)), b=np.zeros(m), tol=tol)
    rng = np.random.default_rng(seed)
    if family == "interior_infeasible":
        return random_boxqp_interior_infeasible(rng, n, max(m, 2), tol=tol)
    rank_Q = int(rng.integers(0, n)) if family == "rank_deficient_Q" else n
    B = rng.normal(size=(rank_Q, n))
    Q = B.T @ B / n
    c = rng.normal(size=n)
    if family in ("feasible", "rank_deficient_Q"):
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(-0.8, 0.8, size=n)
    elif family == "rank_deficient_A":
        m = max(m, 1)
        r = int(rng.integers(0, m))
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        b = A @ rng.uniform(-0.8, 0.8, size=n)
    else:  # infeasible_b: ||A(x - x0)|| <= 2 sqrt(n) ||A|| on the box
        m = max(m, 1)
        A = rng.normal(size=(m, n))
        u = rng.normal(size=m)
        b = A @ rng.uniform(-0.8, 0.8, size=n) + 3.0 * np.sqrt(n) * np.linalg.norm(A) * u / np.linalg.norm(u)
    return BoxQP(Q=Q, c=c, A=A, b=b, tol=tol)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 6),
    m=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-1, 1e-2]),
    mode=st.sampled_from(["stable", "fast"]),
    scale=st.sampled_from([1e-4, 1.0, 1e4]),
)
# n = 1 and m = 0 in every family that allows them
@example(family="all_zero", n=1, m=0, seed=0, tol=1e-2, mode="stable", scale=1.0)
@example(family="rank_deficient_Q", n=1, m=0, seed=1, tol=1e-2, mode="stable", scale=1.0)
@example(family="rank_deficient_A", n=1, m=1, seed=2, tol=1e-2, mode="fast", scale=1.0)
@example(family="infeasible_b", n=1, m=1, seed=3, tol=1e-2, mode="stable", scale=1.0)
@example(family="interior_infeasible", n=1, m=2, seed=4, tol=1e-2, mode="stable", scale=1.0)
def test_solution_conditions_vs_oracle(family, n, m, seed, tol, mode, scale):
    _check_vs_oracle(family, n, m, seed, tol, mode, scale)


@pytest.mark.xfail(
    strict=True,
    reason="interior-infeasible data scaled by 1e4 (chi = 5000): the solve ends 4.7 tol "
    "(stable) and 3.5 tol (fast) above the oracle's objective, with the residual at chi "
    "(ROADMAP, Known failures)",
)
@pytest.mark.parametrize("mode", ["stable", "fast"])
def test_scaled_interior_infeasible_draw_vs_oracle(mode):
    _check_vs_oracle("interior_infeasible", 2, 0, 1, 1e-2, mode, 1e4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 6),
    m=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["stable", "fast"]),
    scale=st.sampled_from([1e-4, 1.0, 1e4]),
)
@example(family="rank_deficient_Q", n=1, m=0, seed=7, mode="stable", scale=1.0)
@example(family="rank_deficient_Q", n=1, m=0, seed=8, mode="fast", scale=1e4)
@example(family="interior_infeasible", n=2, m=2, seed=1, mode="fast", scale=1e4)
def test_compiled_step_is_the_reference_step_bit_for_bit(family, n, m, seed, mode, scale):
    # both step from the lift point as solve() does, one workspace each;
    # after every step the state, the step, F, the norms and the factor
    # count agree byte for byte, and a rejection is the same rejection
    p = degenerate_boxqp(family, n, m, seed, 1e-2)
    p = BoxQP(Q=scale * p.Q, c=scale * p.c, A=scale * p.A, b=scale * p.b, tol=1e-2)
    mp = compute_params_practical(p)
    z = lift(p, mp, primal_init(p, mp))
    sides = [(_Workspace(p, mp, HELD_STEPS[mode]), _step),
             (ReferenceWorkspace(p, mp, HELD_STEPS[mode]), reference_step)]
    for ws, _ in sides:
        ws.load(z)
        ws.eval_F(mp.tau_A)
    cycle = (STEP_PATH,) if mode == "fast" else (STEP_PATH, STEP_CENTRALITY, STEP_ERROR_RESET)
    steps = [(STEP_ERROR_RESET, mp.tau_A)]
    tau = mp.tau_A
    for _ in range(mp.M):
        tau = mp.sigma * tau
        steps += [(kind, tau) for kind in cycle]
        if tau <= mp.tau_E:
            break
    for kind, tau in steps:
        states = []
        for ws, step in sides:
            try:
                step(kind, ws, tau)
                rejected = None
            except StepRejected as exc:
                rejected = (str(exc), exc.context())
            states.append((rejected, ws.ze.tobytes(), ws.dz.tobytes(), ws.F.tobytes(),
                           struct.pack("<2d", ws.eq_norm, ws.comp_norm), ws.factorizations))
        assert states[0] == states[1]
        if rejected is not None:
            break


def _check_vs_oracle(family, n, m, seed, tol, mode, scale):
    # judged both ways: the objective is within tol of the oracle's, above
    # or below, on data scaled by ``scale``
    p = degenerate_boxqp(family, n, m, seed, tol)
    p = BoxQP(Q=scale * p.Q, c=scale * p.c, A=scale * p.A, b=scale * p.b, tol=tol)
    rep = solve(p, mode=mode)
    ref = oracle_solve_boxqp(p)
    assert float(np.abs(rep.x).max()) < 1.0
    assert abs(rep.objective - ref.objective) <= p.tol
    assert rep.feas_residual <= ref.min_residual + p.tol


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 6),
    m=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    gap=st.sampled_from([0.5, 1e-3, 1e-9]),
    tau=st.sampled_from([1.0, 1e-3, 1e-8]),
)
def test_traced_cond_DF_is_the_exact_kappa_1(family, n, m, seed, gap, tau):
    p = degenerate_boxqp(family, n, m, seed, 1e-2)
    mp = compute_params_practical(p)
    z = near_path_iterate(np.random.default_rng(seed), p.n, p.m, gap, tau)
    (cond,) = batched_cond_DF(_Workspace(p, mp), tau, [z])
    J = eval_DF(p, mp, z)
    exact = np.linalg.norm(J, 1) * np.linalg.norm(np.linalg.inv(J), 1)
    assert abs(cond - exact) <= 1e-6 * exact


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    family=st.sampled_from(("feasible",) + FAMILIES),
    n=st.integers(1, 6),
    m=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["stable", "fast"]),
)
@example(family="all_zero", n=1, m=0, seed=0, mode="fast")
@example(family="feasible", n=1, m=0, seed=5, mode="stable")
@example(family="infeasible_b", n=5, m=2, seed=6, mode="stable")
@example(family="infeasible_b", n=3, m=1, seed=7, mode="fast")
def test_every_step_meets_the_width_bound(family, n, m, seed, mode):
    p = degenerate_boxqp(family, n, m, seed, 1e-2)
    rep = solve(p, mode=mode, collect_trace=True)
    theta = rep.params.theta
    steps = 0
    for e in rep.trace:
        if e.step_kind in (STEP_PATH, STEP_CENTRALITY):
            width = theta if e.step_kind == STEP_PATH else 0.5 * theta
            assert e.residual_comp <= width * e.tau * (1.0 + COMP_CHECK_RTOL)
            assert e.interior_margin > 0.0
            steps += 1
    assert steps >= rep.iterations_pd > 0


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    family=st.sampled_from(("feasible",) + FAMILIES),
    n=st.integers(1, 6),
    m=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["stable", "fast"]),
)
@example(family="all_zero", n=1, m=0, seed=0, mode="fast")
@example(family="interior_infeasible", n=4, m=2, seed=8, mode="stable")
def test_one_factorization_per_three_stable_or_four_fast_cycles(family, n, m, seed, mode):
    # the K Hessians, the initial reset, and one step per factor's cycles:
    # under the Shamanskii rule of _step a factor serves the path and
    # centrality steps of three stable cycles, with their resets, or four
    # fast path steps
    p = degenerate_boxqp(family, n, m, seed, 1e-2)
    rep = solve(p, mode=mode)
    K, cycles = rep.params.K, rep.iterations_pd
    if mode == "stable":
        assert rep.linear_solves == K + 1 + 3 * cycles
        assert rep.factorizations == K + 1 + cycles // 3
    else:
        assert rep.linear_solves == K + 1 + cycles
        assert rep.factorizations == K + 1 + cycles // 4
    assert cycles > 0
