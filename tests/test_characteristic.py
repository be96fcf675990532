"""The characteristic function: closed forms, jumps, the derivative."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import sltrans as st
from sltrans import ode, propagator
from sltrans.characteristic import (
    eigenvalue_count,
    omega,
    omega_derivative,
    omega_samples,
    write_scan_csv,
)
from sltrans.eigensolve import build_eigenpair, find_eigenvalues
from sltrans.ode import shoot_chi, shoot_phi
from conftest import make_canonical, make_two_interface

import oracles


class TestClosedForm:
    def test_matches_canonical_form_at_positive_lambda(self, canonical):
        s = np.linspace(0.05, 9.0, 60)
        want = -s * np.sin(2 * s) + np.cos(2 * s)
        got = omega(canonical, s * s)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_matches_canonical_form_at_negative_lambda(self, canonical):
        sig = np.linspace(0.1, 4.0, 17)
        want = sig * np.sinh(2 * sig) + np.cosh(2 * sig)
        got = omega(canonical, -sig * sig)
        assert np.allclose(got, want, rtol=1e-12)

    def test_no_negative_roots_for_canonical(self, canonical):
        lams = np.linspace(-30.0, -1e-6, 500)
        assert np.all(np.asarray(omega(canonical, lams)) > 0)

    def test_scalar_equals_vector_entry(self, canonical):
        lams = np.array([-3.0, 0.0, 2.7, 40.0])
        vec = np.asarray(omega(canonical, lams))
        for i, lam in enumerate(lams):
            assert omega(canonical, float(lam)) == vec[i]

    def test_agrees_with_independent_constant_q_oracle(self):
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(2.0),
            interfaces=(0.3,), jumps=(1.7,),
            alpha=(1.0, 1.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.3),
        )
        for lam in (-7.0, 0.0, 1.9, 2.0, 2.1, 35.0, 210.0):
            want = oracles.constant_q_omega(
                lam, 2.0, (0.3,), (1.7,), (1.0, 1.0), (0.0, 1.0), (1.0, 0.3))
            got = omega(spec, lam)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestDerivative:
    def test_tangent_is_exact_at_zero(self, canonical):
        # omega(lam) = -s sin 2s + cos 2s has omega'(0) = -4 exactly
        d = omega_derivative(canonical, 0.0)
        assert d == pytest.approx(-4.0, abs=1e-13)

    def test_tangent_matches_closed_form(self, canonical):
        # d/dlam (-s sin 2s + cos 2s) = (-3 sin 2s - 2s cos 2s) / (2s)
        for lam in (0.29, 3.3, 25.0):
            s = np.sqrt(lam)
            want = (-3.0 * np.sin(2 * s) - 2 * s * np.cos(2 * s)) / (2 * s)
            assert omega_derivative(canonical, lam) == pytest.approx(want, rel=1e-12)

    def test_matches_the_oracle_at_every_const_deep_root(self):
        # Every root of the 16 const-deep seed-1 specs (n = 200): 1-4
        # interfaces and all four cases, in one batch per spec.
        for entry in _bench_specs().run_specs("const-deep", 1):
            spec = entry["spec"]
            vp = st.validate_problem(spec)
            roots = np.array([e.lam for e in find_eigenvalues(vp, 200)])
            got = omega_derivative(vp, roots)
            want = np.array([oracles.constant_q_omega_derivative(
                lam, spec.potential.pieces[0].value, spec.interfaces, spec.jumps,
                spec.alpha, spec.beta, spec.beta_prime) for lam in roots])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, entry["label"]

    def test_right_solution_tangent_matches_a_difference_quotient(self, case1_linear):
        # chain(tangent=True) also starts the right solution's derivative,
        # (b2', b1'), at x = 1.
        vp = st.validate_problem(case1_linear)
        lam, step = np.array([7.3]), 1e-5

        def left_end(lam, tangent):
            def cross(piece, x0, x1, u, du):
                if tangent:
                    return (None, *propagator.tangent_piece(piece, x0, x1, lam, u, du))
                return (None, *propagator.propagate_piece(piece, x0, x1, lam, u, du))
            return propagator.chain(vp, lam, cross, backward=True, tangent=tangent)[1][0]

        u, du = left_end(lam, True)
        plus, minus = left_end(lam + step, False), left_end(lam - step, False)
        for k, x in enumerate((u, du)):
            fd = (plus[k] - minus[k]) / (2 * step)
            assert x[1] == pytest.approx(fd, rel=1e-7)


def _bench_specs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "specs.py"
    loader = importlib.util.spec_from_file_location("bench_specs", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


# omega, omega_derivative, eigenvalue_count, omega_samples and
# build_eigenpair all check lambda through characteristic.real_lambda.
ENTRY_POINTS = {
    "omega": omega,
    "omega_derivative": omega_derivative,
    "eigenvalue_count": eigenvalue_count,
    "omega_samples": omega_samples,
    "build_eigenpair": build_eigenpair,
}
BAD_LAMBDA = {
    "complex-scalar": (30 + 5j, TypeError),
    "complex-array": (np.array([2.0, 30 + 5j]), TypeError),
    "nan": (np.nan, ValueError),
    "inf": (np.array([1.0, np.inf]), ValueError),
    "minus-inf": (-np.inf, ValueError),
}


@pytest.mark.parametrize("problem", ["constant", "magnus"])
@pytest.mark.parametrize("bad", list(BAD_LAMBDA))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_bad_lambda_is_rejected_before_propagation(entry, bad, problem, monkeypatch,
                                                   canonical, case1_linear):
    # A complex lambda used to run as its real part (eigenvalue_count gave
    # N(30) for 30 + 5j), and NaN raised StepSizeUnderflow on Magnus pieces
    # or NonFiniteState from the count.
    vp = st.validate_problem(canonical if problem == "constant" else case1_linear)
    lam, error = BAD_LAMBDA[bad]
    if entry == "build_eigenpair" and np.ndim(lam):
        lam = lam[-1]  # it takes one lambda

    def no_chain(*args, **kwargs):
        raise AssertionError("propagation started")

    monkeypatch.setattr(propagator, "chain", no_chain)
    monkeypatch.setattr(ode, "chain", no_chain)
    with pytest.raises(error, match="lambda must be"):
        ENTRY_POINTS[entry](vp, lam)


class TestChain:
    def test_per_interval_wronskians_obey_weight_chain(self, two_interface):
        for lam in (-5.0, 1.2, 80.0):
            sample = omega_samples(two_interface, [lam])[0]
            assert len(sample.omega_i) == 3
            assert sample.chain_residual_rel() <= 1e-9
            assert sample.metadata["omega_boundary_form"] == pytest.approx(
                sample.omega, rel=1e-9, abs=1e-12)

    def test_wronskian_constant_inside_a_subinterval(self, two_interface):
        lam = 17.0
        phi = shoot_phi(two_interface, lam)
        chi = shoot_chi(two_interface, lam)
        xs = np.array([-0.9, -0.6, -0.35])
        (pu, pdu), (cu, cdu) = phi.eval(xs), chi.eval(xs)
        values = pu * cdu - pdu * cu
        spread = max(values) - min(values)
        assert spread <= 1e-10 * max(1.0, abs(values[0]))

    def test_scan_csv_columns(self, two_interface, tmp_path):
        samples = omega_samples(two_interface, [1.0, 5.0])
        path = tmp_path / "scan.csv"
        write_scan_csv(samples, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "lambda"
        assert "omega" in header


@settings(max_examples=25)
@given(hst.floats(0.3, 3.0), hst.floats(0.3, 3.0))
def test_jump_scaling_multiplies_omega_when_q_is_zero(d1, d2):
    """With q = 0 the jumps only rescale omega by prod(delta_i).

    The trajectory divides by delta at each interface while the leading
    prefactor carries delta^2, so the zero set cannot move. This is the
    mechanism behind the eigenvalue jump-invariance.
    """
    def build(j1, j2):
        return st.ProblemSpec(
            potential=st.PiecewisePotential.constant(0.0),
            interfaces=(-0.2, 0.5), jumps=(j1, j2),
            alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0),
        )

    lams = np.array([-4.0, 0.7, 13.0, 90.0])
    base = np.asarray(omega(build(1.0, 1.0), lams))
    scaled = np.asarray(omega(build(d1, d2), lams))
    assert np.allclose(scaled, d1 * d2 * base, rtol=1e-12)
