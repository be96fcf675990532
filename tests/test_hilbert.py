"""The weighted space: inner products, Gram matrices, expansions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import sltrans as st
from sltrans.hilbert import (
    HElement,
    QuadratureNotConverged,
    constant_square_integrals,
    expand,
    gram_matrix,
    greens_identity_residual,
    h_inner_product,
    r1_form,
    r1p_form,
    r_form_identity_residual,
    weighted_square_integral,
)
from sltrans.ode import shoot_chi, shoot_phi
from sltrans.problem import PotentialPiece
from sltrans.propagator import constant_step
from sltrans.quadrature import panel_nodes, subinterval_rules, weighted_sum
from conftest import make_barrier, make_canonical, make_two_interface


class TestInnerProduct:
    def test_constant_function_without_jumps(self, canonical):
        one = HElement.polynomial((1.0,))
        val, err = h_inner_product(canonical, one, one)
        assert val == pytest.approx(2.0, abs=1e-13)
        assert 0.0 <= err < 1e-10

    def test_constant_function_with_jump_two(self):
        # weights (1, 4) over halves of length 1 each: 1 + 4 = 5
        spec = make_canonical(2.0)
        one = HElement.polynomial((1.0,))
        val, _ = h_inner_product(spec, one, one)
        assert val == pytest.approx(5.0, abs=1e-13)

    def test_scalar_slot_weight(self):
        # the scalar slot carries prod(delta^2) / rho = 4 / 1
        spec = make_canonical(2.0)
        a = HElement.scalar_only(0.7)
        b = HElement.scalar_only(-1.1)
        val, err = h_inner_product(spec, a, b)
        assert val == pytest.approx(4.0 * 0.7 * (-1.1), rel=1e-14)
        assert err == 0.0

    def test_scaling_is_quadratic(self, two_interface, two_interface_eigs):
        eig = two_interface_eigs[4]
        el = HElement.from_eigenpair(eig)
        doubled = HElement(f=lambda x: 2.0 * eig.phi.u(x),
                           f1=2.0 * eig.scalar, freq_hint=el.freq_hint)
        base, _ = h_inner_product(two_interface, el, el)
        big, _ = h_inner_product(two_interface, doubled, doubled)
        assert base == pytest.approx(1.0, rel=1e-9)
        assert big == pytest.approx(4.0 * base, rel=1e-9)

    def test_discontinuous_integrand_refuses_to_converge(self, canonical):
        jumpy = HElement(f=lambda x: np.sign(x - 0.12345678), f1=0.0)
        one = HElement.polynomial((1.0,))
        with pytest.raises(QuadratureNotConverged):
            h_inner_product(canonical, jumpy, one)


class TestGram:
    def test_eigenpairs_and_elements_agree(self, canonical, canonical_eigs):
        eigs = canonical_eigs[:6]
        els = [HElement.from_eigenpair(e) for e in eigs]
        g1 = gram_matrix(canonical, eigs)
        g2 = gram_matrix(canonical, els)
        assert np.allclose(g1, g2, rtol=0, atol=1e-14)
        assert np.allclose(g1, np.eye(6), atol=5e-11)

    def test_empty_input(self, canonical):
        assert gram_matrix(canonical, []).shape == (0, 0)


class TestBoundaryForms:
    def test_forms_match_direct_evaluation(self, two_interface):
        vp = st.as_validated(two_interface)
        phi = shoot_phi(vp, 11.0)
        u1, du1 = phi.boundary_state("right")
        assert r1_form(vp, u1, du1) == vp.beta1 * u1 - vp.beta2 * du1
        assert r1p_form(vp, u1, du1) == vp.beta1p * u1 - vp.beta2p * du1


@settings(max_examples=40)
@given(hst.floats(-5, 5), hst.floats(-5, 5), hst.floats(-5, 5), hst.floats(-5, 5))
def test_r_form_identity_is_algebraic(fu, fdu, gu, gdu):
    spec = make_two_interface()
    res = r_form_identity_residual(spec, fu, fdu, gu, gdu)
    scale = (1.0 + abs(fu) + abs(fdu)) * (1.0 + abs(gu) + abs(gdu))
    assert abs(res) <= 1e-13 * scale


class TestGreensIdentity:
    def test_clean_pair(self, case1_linear):
        out = greens_identity_residual(case1_linear, 3.7, -2.1)
        assert out["residual"] <= 1e-9
        assert out["wronskian_left"] == 0.0
        assert out["wronskian_jump_residual"] <= 1e-10
        assert out["r_form_residual"] <= 1e-12
        assert out["quadrature_error"] < 1e-8


class TestExpansion:
    def test_eigenvector_expands_to_itself(self, canonical, canonical_eigs):
        eigs = canonical_eigs[:8]
        target = HElement.from_eigenpair(eigs[3])
        result = expand(canonical, target, eigs)
        want = np.zeros(8)
        want[3] = 1.0
        assert np.allclose(result.coefficients, want, atol=5e-11)
        assert result.residuals[-1] <= 1e-8
        assert result.parseval_ratio == pytest.approx(1.0, abs=1e-9)

    def test_reconstruction_recovers_the_function_part(self, canonical,
                                                       canonical_eigs):
        eigs = canonical_eigs[:8]
        target = HElement.from_eigenpair(eigs[3])
        result = expand(canonical, target, eigs)
        xs = np.linspace(-1.0, 1.0, 41)
        assert np.allclose(result.reconstruct(xs), eigs[3].phi.u(xs), atol=1e-8)
        scalar = sum(c * el.f1 for c, el in zip(result.coefficients, result.elements))
        assert scalar == pytest.approx(eigs[3].scalar, abs=1e-10)

    def test_residuals_decrease_and_parseval_stays_below_one(self, canonical,
                                                             canonical_eigs):
        eigs = canonical_eigs[:20]
        bump = HElement.bump(center=0.3, halfwidth=0.45, amplitude=1.0, f1=0.4)
        result = expand(canonical, bump, eigs)
        res = result.residuals
        slack = 1e-10 * max(res[0], 1.0)
        assert np.all(np.diff(res) <= slack)
        assert result.parseval_ratio <= 1.0 + 1e-9
        assert result.parseval_ratio >= 0.9

    @pytest.mark.parametrize("kwargs", [
        {"center": 0.0, "halfwidth": math.nan},
        {"center": 0.0, "halfwidth": math.inf},
        {"center": math.nan, "halfwidth": 0.5},
        {"center": -math.inf, "halfwidth": 0.5},
        {"center": 0.0, "halfwidth": 0.5, "amplitude": math.nan},
        {"center": 0.0, "halfwidth": 0.5, "amplitude": math.inf},
    ])
    def test_bump_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            HElement.bump(**kwargs)

    def test_bump_rejects_a_zero_halfwidth(self):
        with pytest.raises(ValueError, match="halfwidth must be positive"):
            HElement.bump(0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (lambda v: HElement.bump(0.0, 0.5, f1=v), "f1"),
        (lambda v: HElement.polynomial((1.0, 2.0), f1=v), "f1"),
        (lambda v: HElement.polynomial((1.0, v, 2.0)), "coeffs"),
        (lambda v: HElement.polynomial((v,), f1=math.nan), "coeffs"),
        (lambda v: HElement.scalar_only(v), "f1"),
    ], ids=["bump-f1", "polynomial-f1", "polynomial-coeff", "coeff-before-f1",
            "scalar-f1"])
    def test_constructors_reject_non_finite_f1_and_coeffs(self, make, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r}$"):
            make(bad)

    def test_jumped_problem_expansion(self, two_interface, two_interface_eigs):
        poly = HElement.polynomial((0.2, 1.0, -0.5), f1=-0.3)
        result = expand(two_interface, poly, two_interface_eigs)
        res = result.residuals
        assert res[-1] < res[0]
        assert result.parseval_ratio <= 1.0 + 1e-9


# (a, b, w, u0, du0) of one constant segment, u'' = w u from (u0, du0) at
# a; z = w (b - a)^2 picks the closed form's branch.
CONSTANT_SEGMENTS = {
    "w=-1e5": (-1.0, 1.0, -1e5, 1.0, 0.5),
    "z=-1.01 closed R": (-1.0, 0.0, -1.01, 1.0, 0.3),
    "z=-0.99 series R": (-1.0, 0.0, -0.99, 1.0, 0.3),
    "z=0": (-1.0, 0.0, 0.0, 1.0, 0.3),
    "z=1e-9": (-1.0, 0.0, 1e-9, 1.0, 0.3),
    "z=0.99 series R": (-1.0, 0.0, 0.99, 1.0, 0.3),
    "z=1.01 evanescent": (-1.0, 0.0, 1.01, 1.0, -1.3),
    "u0=0": (-1.0, 0.0, -5.0, 0.0, 1.0),
    "decaying": (0.0, 1.0, 400.0, 1.0, -20.0),
    "growing": (0.0, 1.0, 400.0, 1.0, 20.0),
    "backward oscillatory": (1.0, 0.3, -50.0, 0.7, -3.0),
    "backward evanescent": (1.0, 0.3, 90.0, 0.7, -3.0),
    "backward decaying": (1.0, 0.3, 400.0, 1.0, 20.0),
}


class TestSquareIntegral:
    @pytest.mark.parametrize("seg", CONSTANT_SEGMENTS.values(),
                             ids=CONSTANT_SEGMENTS.keys())
    def test_closed_form_matches_composite_gauss(self, seg):
        a, b, w, u0, du0 = seg
        x, wts = panel_nodes(min(a, b), max(a, b), 4096, 12)
        u, _ = constant_step(w, x - a, u0, du0)
        want = math.fsum(wts * u * u)
        got = constant_square_integrals(a, b, w, u0, du0)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_segments_in_one_call_match_one_by_one(self):
        table = np.array(list(CONSTANT_SEGMENTS.values())).T
        one_by_one = [constant_square_integrals(*seg)[0]
                      for seg in CONSTANT_SEGMENTS.values()]
        assert constant_square_integrals(*table).tolist() == one_by_one

    def test_variable_q_keeps_the_gauss_rule(self, case1_linear):
        vp = st.as_validated(case1_linear)
        for sol in (shoot_phi(vp, 11.0), shoot_chi(vp, -3.5).scaled(0.3)):
            nodes, rules = subinterval_rules(vp.subintervals(),
                                             2.0 * np.sqrt(abs(sol.lam)))
            want = weighted_sum(vp.weights, rules, sol.u(nodes) ** 2)
            assert weighted_square_integral(vp, sol) == want

    def test_mixed_pieces_match_a_fine_gauss_rule(self):
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.from_pieces([
                PotentialPiece(kind="constant", value=2.0),
                PotentialPiece(kind="polynomial", coeffs=(1.0, -2.0, 0.5)),
                PotentialPiece(kind="constant", value=60.0),
            ]),
            interfaces=(-0.2, 0.5), jumps=(1.7, -0.6),
            alpha=(1.0, 0.5), beta=(0.2, 1.0), beta_prime=(1.0, 0.4))
        vp = st.as_validated(spec)
        for sol in (shoot_phi(vp, 30.0).scaled(-2.5), shoot_chi(vp, 75.0)):
            nodes, rules = subinterval_rules(vp.subintervals(), 400.0)
            want = weighted_sum(vp.weights, rules, sol.u(nodes) ** 2)
            got = weighted_square_integral(vp, sol)
            assert got == pytest.approx(want, rel=1e-13)

    def test_barrier_norm_identity(self):
        eigs = st.find_eigenvalues(make_barrier(), 40)
        assert max(e.residuals["norm_identity"] for e in eigs) <= 1e-14
