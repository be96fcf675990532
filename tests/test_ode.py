"""Trajectory integration: shooting, transmission jumps, Picard iterates."""

import numpy as np
import pytest
from hypothesis import given, strategies as hst

import sltrans as st
from sltrans.ode import (
    NonConvergence,
    StateVector,
    integrate_segment,
    picard_phi,
    shoot_chi,
    shoot_phi,
)
from sltrans.propagator import cos_sinc, endpoint_chain
from conftest import make_canonical, make_case1_linear, make_two_interface


class TestSegments:
    def test_zero_curvature_degenerate_case(self):
        # -u'' + 2u = 2u forces u'' = 0, so (1, 0) stays (1, 0)
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(2.0),
            interfaces=(), jumps=(),
            alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0),
        )
        seg = integrate_segment(spec, 2.0, (-1.0, 1.0), (1.0, 0.0), at="a")
        xs = np.linspace(-1, 1, 17)
        u, du = seg.eval(xs)
        assert np.allclose(u, 1.0, atol=1e-14)
        assert np.allclose(du, 0.0, atol=1e-14)

    def test_constant_piece_matches_trig_closed_form(self):
        spec = make_canonical()
        lam = 7.3
        s = np.sqrt(lam)
        seg = integrate_segment(spec, lam, (-1.0, 0.0), (0.0, 1.0), at="a")
        xs = np.linspace(-1.0, 0.0, 9)
        u, du = seg.eval(xs)
        assert np.allclose(u, np.sin(s * (xs + 1.0)) / s, atol=1e-14)
        assert np.allclose(du, np.cos(s * (xs + 1.0)), atol=1e-14)

    def test_backward_integration_inverts_forward(self):
        spec = make_case1_linear()
        lam = 11.0
        fwd = integrate_segment(spec, lam, (0.2, 1.0), (0.4, -0.9), at="a")
        u1, du1 = fwd.eval(1.0)
        back = integrate_segment(spec, lam, (0.2, 1.0), (u1, du1), at="b")
        u0, du0 = back.eval(0.2)
        assert u0 == pytest.approx(0.4, abs=1e-9)
        assert du0 == pytest.approx(-0.9, abs=1e-9)

    def test_segment_must_stay_inside_one_piece(self):
        spec = make_canonical()
        with pytest.raises(ValueError):
            integrate_segment(spec, 1.0, (-0.5, 0.5), (1.0, 0.0))
        with pytest.raises(st.ProblemError):
            integrate_segment(spec, 1.0, (0.5, 1.5), (1.0, 0.0))

    def test_scalar_and_array_eval_agree(self):
        spec = make_case1_linear()
        sol = shoot_phi(spec, 23.0)
        xs = np.array([-0.9, -0.2, 0.2, 0.7, 1.0])
        u_vec, du_vec = sol.eval(xs)
        for i, x in enumerate(xs):
            u, du = sol.eval(float(x))
            assert u == pytest.approx(u_vec[i], rel=1e-14, abs=1e-14)
            assert du == pytest.approx(du_vec[i], rel=1e-14, abs=1e-14)


class TestPiecewiseEval:
    """One eval over points of several subintervals, the left end state and
    out-of-domain x."""

    @staticmethod
    def _per_subinterval_points(vp):
        return [np.concatenate([np.linspace(a, b, 9)[1:-1],
                                st.quadrature.panel_nodes(a, b, 3, 12)[0]])
                for a, b in vp.subintervals()]

    @pytest.mark.parametrize("make, lam", [(make_canonical, 31.7),
                                           (make_case1_linear, 23.0),
                                           (make_two_interface, -4.5)])
    def test_joined_eval_matches_per_subinterval_evals(self, make, lam):
        vp = st.validate_problem(make())
        parts = self._per_subinterval_points(vp)
        for sol in (shoot_phi(vp, lam).scaled(-0.37), shoot_chi(vp, lam)):
            u, du = sol.eval(np.concatenate(parts))
            one = [sol.eval(x) for x in parts]
            assert u.tobytes() == np.concatenate([p[0] for p in one]).tobytes()
            assert du.tobytes() == np.concatenate([p[1] for p in one]).tobytes()

    @pytest.mark.parametrize("make, lam", [(make_canonical, 31.7),
                                           (make_case1_linear, 23.0),
                                           (make_two_interface, -4.5)])
    def test_left_boundary_state_is_eval_at_left_end(self, make, lam):
        for phi in (shoot_phi(make(), lam), shoot_phi(make(), lam).scaled(-2.5)):
            got = [float(v).hex() for v in phi.boundary_state("left")]
            assert got == [float(v).hex() for v in phi.eval(-1.0)]

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, 1.5, [0.0, np.nan]])
    def test_non_finite_or_outside_x_is_out_of_domain(self, x):
        sol = shoot_phi(make_case1_linear(), 5.0)
        with pytest.raises(st.problem.OutOfDomain):
            sol.eval(x)


class TestShooting:
    def test_phi_initial_state(self):
        spec = make_case1_linear()
        phi = shoot_phi(spec, 5.0)
        u, du = phi.eval(-1.0)
        assert u == pytest.approx(1.0)   # alpha_2
        assert du == pytest.approx(-1.0)  # -alpha_1

    def test_phi_jump_divides_state(self):
        spec = make_two_interface()
        phi = shoot_phi(spec, 9.0)
        for h, d in zip((-0.3, 0.4), (2.0, 0.5)):
            um, dum = phi.eval(h, side="left")
            up, dup = phi.eval(h, side="right")
            assert um == pytest.approx(d * up, rel=1e-12)
            assert dum == pytest.approx(d * dup, rel=1e-12)
        assert phi.transmission_residual() <= 1e-14

    def test_chi_satisfies_right_condition_for_every_lambda(self):
        spec = make_two_interface()
        vp = st.validate_problem(spec)
        for lam in (-4.0, 3.0, 57.0):
            chi = shoot_chi(spec, lam)
            u1, du1 = chi.boundary_state("right")
            lhs = (lam * vp.beta1p + vp.beta1) * u1 \
                - (lam * vp.beta2p + vp.beta2) * du1
            assert abs(lhs) <= 1e-12 * max(abs(u1), abs(du1), 1.0)

    def test_ode_residual_is_small(self):
        spec = make_case1_linear()
        phi = shoot_phi(spec, 31.0)
        assert phi.ode_residual() <= 1e-5

    def test_chi_through_shrinking_state(self):
        # Backward across [1, 0.2] at the negative eigenvalue the state
        # shrinks from about 16 to 0.5; the step-doubling stop test must be
        # scaled by the start state or its round-off floor is never met.
        chi = shoot_chi(make_case1_linear(), -16.107870242215387)
        u, du = chi.boundary_state("left")
        assert np.isfinite(u) and np.isfinite(du)

    @pytest.mark.parametrize("make", [make_case1_linear, make_two_interface])
    @pytest.mark.parametrize("lam", [-16.107870242215387, 2.5, 400.0])
    def test_dense_phi_matches_endpoint_kernel(self, make, lam):
        spec = make()
        u1, du1 = shoot_phi(spec, lam).boundary_state("right")
        _, right = endpoint_chain(spec, [lam])
        cu, cdu = (float(v[0]) for v in right[-1])
        scale = max(abs(cu), abs(cdu))
        assert abs(u1 - cu) <= 1e-13 * scale
        assert abs(du1 - cdu) <= 1e-13 * scale

    def test_csv_dump(self, tmp_path):
        spec = make_canonical()
        phi = shoot_phi(spec, 4.0)
        path = tmp_path / "phi.csv"
        phi.to_csv(path, samples_per_piece=20)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,u,du"
        assert len(lines) == 1 + 2 * 20


class TestPicard:
    def test_matches_shooting_on_variable_q(self):
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.polynomial((0.5, 1.0)),
            interfaces=(0.3,), jumps=(1.7,),
            alpha=(1.0, 1.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.3),
        )
        for lam in (2.5, 30.0):
            p = picard_phi(spec, lam)
            s = shoot_phi(spec, lam)
            for x in (-0.6, 0.1, 0.8):
                up, dup = p.eval(x)
                us, dus = s.eval(x)
                scale = max(abs(us), abs(dus), 1.0)
                assert abs(up - us) / scale <= 1e-8
                assert abs(dup - dus) / scale <= 1e-8

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises((ValueError, NonConvergence)):
            picard_phi(make_canonical(), -1.0)


class TestStateVector:
    def test_fields(self):
        sv = StateVector(1.5, -2.0)
        assert sv.u == 1.5
        assert sv.du == -2.0


@given(hst.floats(-600.0, 600.0))
def test_cos_sinc_hyperbolic_identity(z):
    # C(z)^2 - z S(z)^2 = 1 covers both trig and hyperbolic branches;
    # the difference cancels catastrophically for large positive z, so the
    # tolerance scales with the magnitude of the two summands
    C, S = cos_sinc(np.asarray(z))
    lhs = float(C * C - z * S * S)
    scale = float(C * C + abs(z) * S * S)
    assert abs(lhs - 1.0) <= 1e-13 * max(scale, 1.0)


@given(hst.floats(-1e-6, 1e-6))
def test_cos_sinc_series_region(z):
    C, S = cos_sinc(np.asarray(z))
    assert float(C) == pytest.approx(1.0 + z / 2.0, abs=1e-12)
    assert float(S) == pytest.approx(1.0 + z / 6.0, abs=1e-12)
