import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxipm import (BoxQP, MethodParams, ParamOverflow, StandardQP, compute_params,
                    compute_params_practical, transform_standard, validate_params)
from boxipm.params import _RULES, format_params, iteration_count_pd, iteration_count_primal
from boxipm.probfile import parse_problem
from boxipm.problem import problem_factor

from support import random_boxqp
from test_cli import BOX_TEXT


def unit_box(tol=0.5):
    return BoxQP(Q=np.eye(2), c=[0.5, -0.3], A=[[1.0, 1.0]], b=[0.5], tol=tol)


def ill_scaled():
    return BoxQP(Q=np.eye(2), c=[0.0, 0.0], A=[[1e8, 1e8]], b=[1e8], tol=1e-2)


def named(violations):
    """Field names that validate_params reports as violated."""
    return {v.split(":")[0] for v in violations if ":" in v}


class TestClosedForms:
    def test_sigma_example_n2(self):
        mp = compute_params_practical(unit_box())
        assert_allclose(mp.sigma, 0.85, rtol=1e-12)
        assert mp.sigma >= 1.0 - mp.beta / math.sqrt(4.0)

    def test_dimension_n1_m1(self):
        p = BoxQP(Q=[[0.0]], c=[0.0], A=[[0.0]], b=[0.0], tol=1.0)
        assert compute_params_practical(p).N == 4

    def test_primal_count_formula(self):
        # C_Hf = 10, rho = 0.01: log2(1000) ~ 9.966 -> ceil(log2(10.966)) = 4
        assert iteration_count_primal(10.0, 0.01) == 4

    def test_pd_count_formula(self):
        assert iteration_count_pd(100.0, 1e-6, 0.9) == 175


class TestCascadeConsistency:
    def test_strict_record_validates(self):
        for tol in (0.5, 0.25, 0.1):
            p = unit_box(tol=tol)
            mp = compute_params(p)
            assert validate_params(mp, p) == []
            assert mp.floors_applied == ()

    def test_practical_record_validates(self):
        rng = np.random.default_rng(21)
        for i in range(10):
            p = random_boxqp(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)),
                             feasible=bool(i % 2), tol=10.0 ** -rng.integers(1, 4))
            mp = compute_params_practical(p)
            assert validate_params(mp, p) == []

    def test_iteration_counts_match_closed_forms(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p = random_boxqp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)), tol=1e-2)
            mp = compute_params_practical(p)
            assert mp.K == iteration_count_primal(mp.C_Hf, mp.rho)
            assert mp.M == iteration_count_pd(mp.tau_A, mp.tau_E, mp.sigma)

    def test_contraction_inequalities_at_defaults(self):
        mp = compute_params_practical(unit_box())
        assert 0.36 * (mp.beta + mp.theta) ** 2 / (1.0 - mp.theta) <= mp.theta * mp.sigma
        assert mp.theta**2 / (1.0 - mp.theta) <= 0.5 * mp.theta
        assert mp.theta <= 0.3 and mp.beta <= mp.theta
        assert 0.0 < mp.sigma < 1.0

    def test_envelope_ordering_and_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = random_boxqp(rng, 3, 2, tol=1e-2)
            mp = compute_params_practical(p)
            assert 0.0 < mp.nu_0 <= mp.nu_1 <= mp.nu_2
            assert mp.c_gap > 0.0 and mp.tau_E < mp.tau_A
            assert mp.K >= 1 and mp.M >= 1


class TestFloors:
    def test_floors_active_on_ordinary_instance(self):
        rng = np.random.default_rng(24)
        p = random_boxqp(rng, 4, 2, tol=1e-3)
        mp = compute_params_practical(p)
        assert "nu_0" in mp.floors_applied
        assert mp.nu_0 == 1e-13 * mp.C_z

    def test_unfloored_fields_match_strict(self):
        # The envelope radii sit below their floors for every representable
        # instance (nu_2 <= c_gap^3 / (4 C_z^2) << 1e-13 C_z), so "no floors"
        # is unattainable; everything upstream of the floored quantities must
        # agree with the strict cascade bit for bit.
        p = unit_box(tol=0.5)
        mp_s = compute_params(p)
        mp_p = compute_params_practical(p)
        assert set(mp_p.floors_applied) == {"nu_2", "nu_1", "nu_0", "rho"}
        for name in ("theta", "beta", "sigma", "N", "C_Hf", "C_q", "omega",
                     "C_lambda", "C_dmu", "tau_A", "tau_E", "C_mu", "C_z",
                     "c_gap", "C_DF", "C_DFinv", "kappa_DF", "C_nu", "M"):
            assert getattr(mp_s, name) == getattr(mp_p, name), name
        assert mp_p.nu_2 == 1e-13 * mp_p.C_z
        assert mp_p.rho == 1e-12

    def test_practical_tau_e_floor(self):
        rng = np.random.default_rng(25)
        p = random_boxqp(rng, 4, 2, tol=1e-3)
        mp = compute_params_practical(p)
        assert mp.tau_E == 1e-12
        assert "tau_E" in mp.floors_applied

    def test_tau_e_floor_inactive_on_tiny_instance(self):
        # zero-data 2x2 at tol 1e-2: omega = tol^2/(2*16) and the theoretical
        # tau_E = tol^2 * omega / (48 * 2) ~ 3.3e-12 sits above the floor
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((1, 2)), b=np.zeros(1),
                  tol=1e-2)
        mp = compute_params_practical(p)
        assert "tau_E" not in mp.floors_applied
        assert mp.tau_E >= 1e-12
        expect = p.tol**2 * mp.omega / (48.0 * 2.0 * 1.0)
        assert_allclose(mp.tau_E, expect, rtol=1e-12)


class TestMonotonicity:
    def test_strict_cascade_monotone_in_tol(self):
        p_data = dict(Q=np.eye(2), c=[0.5, -0.3], A=[[1.0, 1.0]], b=[0.5])
        records = [compute_params(BoxQP(tol=t, **p_data)) for t in (0.5, 0.4, 0.3)]
        for hi, lo in zip(records, records[1:]):
            # decreasing tol never increases tau_E, nu_0, rho ...
            assert lo.tau_E <= hi.tau_E
            assert lo.nu_0 <= hi.nu_0
            assert lo.rho <= hi.rho
            # ... and never decreases K, M
            assert lo.K >= hi.K
            assert lo.M >= hi.M


class TestOverflow:
    def test_ill_scaled_strict_raises(self):
        p = BoxQP(Q=np.eye(2), c=[0.0, 0.0], A=[[1e8, 1e8]], b=[1e8], tol=1e-2)
        with pytest.raises(ParamOverflow):
            compute_params(p)

    def test_ill_scaled_practical_emits(self):
        p = BoxQP(Q=np.eye(2), c=[0.0, 0.0], A=[[1e8, 1e8]], b=[1e8], tol=1e-2)
        mp = compute_params_practical(p)
        assert validate_params(mp, p) == []

    def test_practical_raises_when_the_floored_cascade_still_overflows(self):
        # the floors keep the envelope radii representable, not every rule:
        # on modest standard-form data scaled by a large pi, C_nu and then
        # tau_A leave binary64
        sp = StandardQP(Qt=[[16.0, 4.0], [4.0, 16.0]], ct=[1.0, -1.0], At=[[1.0, 2.0]], bt=[1.0])
        box = transform_standard(sp, 1e10, 1e-2)[0]
        assert validate_params(compute_params_practical(box), box) == []
        for pi, rule in [(1e15, "C_nu"), (1e40, "tau_A")]:
            with pytest.raises(ParamOverflow, match=f"at: {rule}$"):
                compute_params_practical(transform_standard(sp, pi, 1e-2)[0])

    def test_norms_of_huge_c_and_b_do_not_overflow(self):
        # the cascade and problem_factor norm c and b scaled by a power of
        # 4, as norm2_upper norms Q: on the standard-form problem at pi =
        # 1e80 .. 1e150, whose scaled c and b pass 1e154, the cascade raises
        # ParamOverflow with no overflow warning from a norm on the way
        sp = StandardQP(Qt=[[16.0, 4.0], [4.0, 16.0]], ct=[1.0, -1.0], At=[[1.0, 2.0]], bt=[1.0])
        for pi in (1e80, 1e100, 1e150):
            box = transform_standard(sp, pi, 1e-2)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert math.isfinite(problem_factor(box))
                with pytest.raises(ParamOverflow):
                    compute_params_practical(box)

    def test_zero_data_instances_emit(self):
        p = BoxQP(Q=np.zeros((2, 2)), c=np.zeros(2), A=np.zeros((1, 2)), b=np.zeros(1), tol=0.1)
        for mp in (compute_params(p), compute_params_practical(p)):
            assert validate_params(mp, p) == []


class TestRuleTable:
    def test_rules_cover_every_field_in_order(self):
        expect = [f.name for f in fields(MethodParams) if f.name != "floors_applied"]
        assert [rule.name for rule in _RULES] == expect

    @pytest.mark.parametrize("make, compute", [
        (unit_box, compute_params),
        (unit_box, compute_params_practical),  # nu_2, nu_1, nu_0, rho floored
        (ill_scaled, compute_params_practical),  # every floor active
    ])
    def test_each_perturbed_field_is_named(self, make, compute):
        p = make()
        mp = compute(p)
        assert validate_params(mp, p) == []
        for rule in _RULES:
            value = getattr(mp, rule.name)
            if rule.sense == ">=":
                moved = [value * (1.0 - 1e-9)]
            elif rule.sense == "<=":
                moved = [value * (1.0 + 1e-9)]
            elif isinstance(value, int):
                moved = [value - 1, value + 1]
            else:
                moved = [value * (1.0 - 1e-9), value * (1.0 + 1e-9)]
            for v in moved:
                bad = validate_params(replace(mp, **{rule.name: v}), p)
                assert rule.name in named(bad), (rule.name, v, bad)

    def test_tau_e_cap_and_c_x_are_checked(self):
        p = BoxQP(Q=[[0.0]], c=[0.01], A=[[0.0]], b=[0.0], tol=10)
        mp = compute_params_practical(p)
        assert validate_params(mp, p) == []
        # tau_E above its sigma*tau_A cap but still below tau_A, M consistent
        tau_E = 0.5 * (mp.sigma * mp.tau_A + mp.tau_A)
        above_cap = replace(mp, tau_E=tau_E, M=iteration_count_pd(mp.tau_A, tau_E, mp.sigma))
        assert "tau_E" in named(validate_params(above_cap, p))
        assert "C_x" in named(validate_params(replace(mp, C_x=0.5), p))


class TestRecordBytes:
    # First 12 hex digits of sha256(format_params(record)), the CLI params_digest.
    @pytest.mark.parametrize("make, compute, digest", [
        (lambda: parse_problem(BOX_TEXT).to_boxqp(), compute_params, "952a9b143223"),
        (lambda: parse_problem(BOX_TEXT).to_boxqp(), compute_params_practical, "548041a39958"),
        (unit_box, compute_params, "8b51e9dde273"),
        (unit_box, compute_params_practical, "8285718b90a2"),
        (ill_scaled, compute_params_practical, "911bba4e8571"),
    ])
    def test_format_params_digest(self, make, compute, digest):
        text = format_params(compute(make()))
        assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest

    def test_ill_scaled_strict_names_first_quantity_out_of_range(self):
        with pytest.raises(ParamOverflow, match=r"range at: nu_1$"):
            compute_params(ill_scaled())
