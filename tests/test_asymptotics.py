"""Case formulas for large-index roots and eigenfunction shapes."""

import numpy as np
import pytest
from scipy.optimize import brentq

import sltrans as st
from sltrans.asymptotics import (
    asymptotics_report,
    eigenfunction_estimate,
    eigenvalue_estimate,
    leading_omega,
    nearest_index,
)
from sltrans.characteristic import omega
from sltrans.problem import AsymptoticCase, OutOfDomain, classify_case
from conftest import (make_canonical, make_case1_linear, make_case2_linear,
                      make_case3_linear)

import oracles


def linear_q_no_interfaces(alpha, beta, beta_prime):
    """q = 1 + x (int q = 2) on [-1, 1] with the given boundary data."""
    return st.ProblemSpec(
        potential=st.PiecewisePotential.polynomial((1.0, 1.0)),
        interfaces=(), jumps=(),
        alpha=alpha, beta=beta, beta_prime=beta_prime,
    )


# One boundary-data triple per case, in case order, all with rho = 1.
EVERY_CASE = [
    pytest.param(((1.0, 1.0), (0.0, 1.0), (1.0, 0.3)), AsymptoticCase.CASE1, id="case1"),
    pytest.param(((1.0, 0.0), (0.0, 1.0), (1.0, 0.3)), AsymptoticCase.CASE2, id="case2"),
    pytest.param(((1.0, 1.0), (0.5, 1.0), (1.0, 0.0)), AsymptoticCase.CASE3, id="case3"),
    pytest.param(((1.0, 0.0), (0.5, 1.0), (1.0, 0.0)), AsymptoticCase.CASE4, id="case4"),
]


class TestLeadingOmega:
    def test_case4_form_and_zero_grid(self, canonical):
        s = np.linspace(0.3, 12.0, 97)
        want = -1.0 * 1.0 * s * np.sin(2 * s)
        assert np.allclose(leading_omega(canonical, s), want, rtol=1e-14)
        k = np.arange(1, 8)
        assert np.allclose(leading_omega(canonical, k * np.pi / 2), 0.0, atol=1e-12)

    def test_case1_form(self, case1_linear):
        s = np.linspace(0.3, 12.0, 97)
        want = 0.3 * 1.0 * s**3 * 1.5**2 * np.sin(2 * s)
        assert np.allclose(leading_omega(case1_linear, s), want, rtol=1e-14)

    @pytest.mark.parametrize("data, case", EVERY_CASE)
    def test_ratio_to_omega_tends_to_plus_one(self, data, case):
        spec = linear_q_no_interfaces(*data)
        assert classify_case(spec) is case
        b, a = case.value
        devs = []
        for k in (40, 80, 160):  # extrema of the leading sine or cosine
            s = (k + (0.5 if a == b else 0.0)) * np.pi / 2
            devs.append(abs(omega(spec, s * s) / leading_omega(spec, s) - 1.0))
        assert devs[2] < devs[0] / 5
        assert devs[2] < 1e-3

    def test_relative_error_shrinks_without_jumps(self):
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.polynomial((1.0, 1.0)),
            interfaces=(), jumps=(),
            alpha=(1.0, 1.0), beta=(0.5, 1.0), beta_prime=(1.0, 0.0),
        )
        errs = []
        for m in (4, 12, 40):  # extrema of the leading cosine
            s = m * np.pi / 2
            true = omega(spec, s * s)
            errs.append(abs(true - leading_omega(spec, s)) / abs(true))
        assert errs[2] < errs[0] / 5
        assert errs[2] < 0.02

    def test_jump_prefactor_convention(self, two_interface):
        # the documented prefactor is prod(delta^2); the amplitude beneath
        # the true omega is prod(delta), so rescaling restores 1/s decay
        from sltrans.characteristic import omega
        vp = st.as_validated(two_interface)
        rescale = vp.delta_prod / vp.delta_sq_prod
        errs = []
        for m in (4, 12, 40):  # extrema of the case-1 sine form
            s = (m + 0.5) * np.pi / 2
            true = omega(two_interface, s * s)
            lead = leading_omega(two_interface, s) * rescale
            errs.append(abs(true - lead) / abs(lead))
        assert errs[2] < errs[0] / 5
        assert errs[2] < 0.02


class TestEigenvalueEstimate:
    def test_closed_form_second_order_for_reference_problem(self, canonical):
        est = eigenvalue_estimate(canonical, 3)
        assert est.case is AsymptoticCase.CASE4
        assert est.s_first == pytest.approx(3 * np.pi / 2, abs=1e-15)
        assert est.s_second == pytest.approx(3 * np.pi / 2 + 1 / (3 * np.pi), abs=1e-15)

    def test_second_order_lands_near_frozen_root(self, canonical):
        est = eigenvalue_estimate(canonical, 3)
        assert abs(est.s_second - oracles.FROZEN_CANONICAL_S[3]) < 5e-3
        assert abs(est.s_second - oracles.FROZEN_CANONICAL_S[3]) < abs(
            est.s_first - oracles.FROZEN_CANONICAL_S[3])

    def test_correction_can_vanish_by_cancellation(self):
        # With q = 2 on [-1, 1], no interfaces, alpha = beta' = (1, 1):
        # the three correction ingredients are 1, 1, and int q / 2 = 2,
        # and the case-1 combination 1 + 1 - 2 is exactly zero.
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(2.0),
            interfaces=(), jumps=(),
            alpha=(1.0, 1.0), beta=(0.0, 1.0), beta_prime=(1.0, 1.0),
        )
        est = eigenvalue_estimate(spec, 5)
        assert est.case is AsymptoticCase.CASE1
        assert est.correction == 0.0

    def test_degenerate_index_rejected(self, case1_linear):
        with pytest.raises(ValueError, match="denominator"):
            eigenvalue_estimate(case1_linear, 1)

    def test_unknown_q_term_rejected(self, canonical):
        with pytest.raises(ValueError, match="q_term"):
            eigenvalue_estimate(canonical, 3, q_term="nope")

    @pytest.mark.parametrize("data, case", EVERY_CASE)
    def test_n_squared_scaled_error_falls(self, data, case):
        # the n-th root is the zero of omega within pi/4 (in s) of the
        # first-order grid value, where the leading term has opposite signs
        spec = linear_q_no_interfaces(*data)
        scaled = []
        for n in (10, 40):
            est = eigenvalue_estimate(spec, n)
            assert est.case is case
            s_n = brentq(lambda s: omega(spec, s * s), est.s_first - np.pi / 4,
                         est.s_first + np.pi / 4, xtol=1e-14, rtol=1e-15)
            assert nearest_index(spec, s_n) == n
            scaled.append(n * n * abs(s_n - est.s_second))
        assert scaled[1] < scaled[0]

    def test_q_term_variants_differ_only_through_jumps(self, case1_linear):
        plain = eigenvalue_estimate(case1_linear, 9, q_term="plain")
        scaled = eigenvalue_estimate(case1_linear, 9, q_term="jump_scaled")
        assert plain.ingredients["q_mean_term"] == pytest.approx(
            scaled.ingredients["q_mean_term"] * 1.5)
        assert plain.s_second != scaled.s_second

    def test_q_term_variants_coincide_without_jumps(self, canonical):
        plain = eigenvalue_estimate(canonical, 4, q_term="plain")
        scaled = eigenvalue_estimate(canonical, 4, q_term="jump_scaled")
        assert plain.s_second == scaled.s_second


class TestNearestIndex:
    @pytest.mark.parametrize("factory,n_lo", [
        (make_case1_linear, 2),
        (make_case2_linear, 1),
        (make_case3_linear, 1),
        (make_canonical, 1),
    ])
    def test_roundtrip_over_first_40_indices(self, factory, n_lo):
        spec = factory()
        for n in range(n_lo, 41):
            s = eigenvalue_estimate(spec, n).s_first
            assert nearest_index(spec, s) == n

    def test_below_first_branch_returns_none(self, case1_linear):
        assert nearest_index(case1_linear, 0.05) is None


class TestEigenfunctionEstimate:
    def test_sine_type_with_jump_prefix(self):
        spec = make_canonical(2.0)
        n = 6
        angle = np.pi * n
        xs = np.array([-0.5, 0.0, 0.5])
        got = eigenfunction_estimate(spec, n, xs)
        base = -(2.0 / angle) * np.sin(angle * (xs + 1.0) / 2.0)
        # interface points resolve left, so the 1/2 prefix starts after 0
        want = base / np.array([1.0, 1.0, 2.0])
        assert np.allclose(got, want, rtol=1e-14)

    def test_cosine_type_uses_alpha2(self, case3_linear):
        n = 5
        angle = np.pi * (n - 0.5)
        x = -0.4
        got = eigenfunction_estimate(case3_linear, n, x)
        assert got == pytest.approx(np.cos(angle * (x + 1.0) / 2.0), rel=1e-14)

    def test_scalar_input_gives_scalar(self, canonical):
        assert isinstance(eigenfunction_estimate(canonical, 2, 0.3), float)

    def test_out_of_domain_rejected(self, canonical):
        with pytest.raises(OutOfDomain):
            eigenfunction_estimate(canonical, 2, 1.2)


class TestReport:
    def test_rows_match_known_roots(self, canonical, canonical_eigs):
        rows = asymptotics_report(canonical, canonical_eigs[:12])
        assert rows, "report should not be empty"
        ns = [r["n"] for r in rows]
        assert ns == sorted(ns)
        for r in rows:
            assert set(r) == {"n", "s_true", "s_first", "s_second",
                              "n_err1", "n2_err2", "n2_err2_jump_scaled"}
            # no jumps, so the two variants agree identically
            assert r["n2_err2"] == r["n2_err2_jump_scaled"]
            assert r["n2_err2"] <= r["n"] * r["n_err1"] + 1e-12

    def test_variant_error_is_larger_with_jumps_and_potential(self, case1_linear,
                                                              case1_eigs):
        rows = asymptotics_report(case1_linear, case1_eigs)
        tail = [r for r in rows if r["n"] >= 20]
        assert tail
        assert all(r["n2_err2_jump_scaled"] > r["n2_err2"] for r in tail)
