"""Problem validation, case classification, and JSON round-trips."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as hst

import sltrans as st
from sltrans.problem import (
    AsymptoticCase,
    DegenerateLeftBC,
    PotentialPiece,
    RhoNotPositive,
    UnorderedInterfaces,
    ZeroJumpFactor,
    classify_case,
    load_problem,
    potential_moments,
    problem_from_json,
    problem_to_json,
    save_problem,
)
from conftest import make_canonical, make_two_interface


def spec_with(**kw):
    base = dict(
        potential=st.PiecewisePotential.constant(0.0),
        interfaces=(0.0,), jumps=(1.0,),
        alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0),
    )
    base.update(kw)
    return st.ProblemSpec(**base)


class TestValidation:
    def test_canonical_passes(self):
        vp = st.validate_problem(make_canonical())
        assert vp.m == 1
        assert vp.rho == pytest.approx(1.0)

    def test_rho_must_be_positive(self):
        with pytest.raises(RhoNotPositive):
            st.validate_problem(spec_with(beta=(1.0, 0.0), beta_prime=(0.0, 1.0)))

    def test_zero_jump_rejected(self):
        with pytest.raises(ZeroJumpFactor):
            st.validate_problem(spec_with(jumps=(0.0,)))

    def test_degenerate_left_bc_rejected(self):
        with pytest.raises(DegenerateLeftBC):
            st.validate_problem(spec_with(alpha=(0.0, 0.0)))

    def test_unordered_interfaces_rejected(self):
        with pytest.raises(UnorderedInterfaces):
            st.validate_problem(spec_with(interfaces=(0.4, -0.3), jumps=(1.0, 1.0)))

    def test_interface_outside_domain_rejected(self):
        with pytest.raises(st.ProblemError):
            st.validate_problem(spec_with(interfaces=(1.5,)))

    def test_no_interfaces_is_a_classical_problem(self):
        vp = st.validate_problem(spec_with(interfaces=(), jumps=()))
        assert vp.m == 0
        assert vp.subintervals() == [(-1.0, 1.0)]
        assert vp.delta_sq_prod == 1.0

    @pytest.mark.parametrize("ends", [(-0.2, 0.3), (-1.0, 0.3), (-0.2, 1.0)])
    def test_sampled_grid_must_cover_the_domain(self, ends):
        # Outside its grid the spline extrapolates: q(-1) would read -99 here.
        xs = np.linspace(*ends, 11)
        piece = PotentialPiece("sampled", x=tuple(xs), values=tuple(1.0 - 100.0 * xs ** 2))
        with pytest.raises(st.ProblemError, match="does not cover"):
            st.validate_problem(spec_with(potential=st.PiecewisePotential((piece,)),
                                          interfaces=(), jumps=()))

    def test_sampled_grid_must_cover_its_own_subinterval(self):
        left, right = (PotentialPiece("sampled", x=tuple(np.linspace(a, b, 9)),
                                      values=tuple(np.ones(9)))
                       for a, b in ((-1.0, 0.0), (0.0, 0.9)))
        with pytest.raises(st.ProblemError, match=r"\[0.0, 1.0\]"):
            st.validate_problem(spec_with(potential=st.PiecewisePotential((left, right))))
        # A grid wider than its subinterval covers it.
        wide = PotentialPiece("sampled", x=tuple(np.linspace(-1.0, 1.0, 9)),
                              values=tuple(np.ones(9)))
        st.validate_problem(spec_with(potential=st.PiecewisePotential((left, wide))))

    def test_weights_follow_squared_jumps(self):
        vp = st.validate_problem(make_two_interface())
        assert np.allclose(vp.weights, (1.0, 4.0, 1.0))
        assert vp.delta_prod == pytest.approx(1.0)
        assert vp.delta_sq_prod == pytest.approx(1.0)


def _json_with(**kw):
    obj = problem_to_json(make_canonical())
    obj.update(kw)
    return lambda: problem_from_json(obj)


_LINEAR = PotentialPiece("polynomial", coeffs=(1.0, 2.0))
BAD_PROBLEMS = {
    "unknown-piece-kind": (lambda: PotentialPiece("cubic"),
                           "unknown potential piece kind 'cubic'"),
    "sampled-length-mismatch": (
        lambda: PotentialPiece("sampled", x=(-1.0, 0.0, 1.0), values=(1.0, 2.0)),
        "sampled piece needs matching x/values grids"),
    "sampled-not-increasing": (
        lambda: PotentialPiece("sampled", x=(-1.0, 0.5, 0.2, 1.0), values=(1.0,) * 4),
        "sampled piece grid must be strictly increasing"),
    "constant-value-of-variable-piece": (lambda: _LINEAR.constant_value,
                                         "piece is not constant"),
    "three-pieces-on-two-subintervals": (
        lambda: st.validate_problem(spec_with(potential=st.PiecewisePotential((_LINEAR,) * 3))),
        "potential has 3 pieces but the problem has 2 subintervals"),
    "nan-jump": (lambda: st.validate_problem(spec_with(jumps=(math.nan,))),
                 "all problem parameters must be finite"),
    "one-interface-two-jumps": (lambda: st.validate_problem(spec_with(jumps=(1.0, 2.0))),
                                "1 interfaces but 2 jump factors"),
    "json-unknown-kind": (_json_with(potential={"kind": "cubic"}),
                          "unknown potential kind 'cubic'"),
    "json-untagged-potential": (_json_with(potential={"value": "1.0"}),
                                "key 'potential' must be a tagged object with a 'kind'"),
    "json-three-alphas": (_json_with(alpha=["1.0", "0.0", "2.0"]),
                          "keys 'alpha', 'beta', 'beta_prime' must each hold two numbers"),
}


@pytest.mark.parametrize("case", list(BAD_PROBLEMS))
def test_malformed_problems_raise_problem_error(case):
    make, message = BAD_PROBLEMS[case]
    with pytest.raises(st.ProblemError, match=re.escape(message)):
        make()


class TestNonFinitePotential:
    """A NaN or infinite potential is rejected when the piece is made, not
    later by the propagator."""

    @pytest.mark.parametrize("kind, data", [
        ("constant", dict(value=math.nan)),
        ("polynomial", dict(coeffs=(1.0, math.inf))),
        ("sampled", dict(x=(-1.0, math.nan, 1.0), values=(0.0, 1.0, 0.0))),
    ])
    def test_piece_rejected(self, kind, data):
        with pytest.raises(st.ProblemError, match="finite"):
            PotentialPiece(kind, **data)

    def test_problem_file_rejected(self, tmp_path):
        obj = problem_to_json(make_canonical())
        obj["potential"]["value"] = "nan"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(st.ProblemError, match="finite"):
            load_problem(path)


class TestClassification:
    def test_all_four_cases(self):
        # (beta_2' != 0 ?, alpha_2 != 0 ?) in the order 1..4
        combos = [
            ((1.0, 1.0), (1.0, 0.5), AsymptoticCase.CASE1),
            ((1.0, 0.0), (1.0, 0.5), AsymptoticCase.CASE2),
            ((1.0, 1.0), (1.0, 0.0), AsymptoticCase.CASE3),
            ((1.0, 0.0), (1.0, 0.0), AsymptoticCase.CASE4),
        ]
        for alpha, beta_prime, expected in combos:
            spec = spec_with(alpha=alpha, beta=(0.0, 1.0), beta_prime=beta_prime)
            assert classify_case(spec) is expected
        # the comparison is exact: a tiny alpha_2 is still nonzero
        spec = spec_with(alpha=(1.0, 1e-15), beta=(0.0, 1.0),
                         beta_prime=(1.0, 0.0))
        assert classify_case(spec) is AsymptoticCase.CASE3


class TestPotential:
    def test_empty_polynomial_is_zero(self):
        piece = PotentialPiece("polynomial", coeffs=())
        assert piece.coeffs == (0.0,)
        assert piece.is_constant and piece.constant_value == 0.0

    def test_polynomial_evaluation(self):
        spec = spec_with(potential=st.PiecewisePotential.polynomial((1.0, 0.5, -0.3)))
        vp = st.validate_problem(spec)
        x = 0.37
        assert vp.pieces[1].evaluate(x) == pytest.approx(1.0 + 0.5 * x - 0.3 * x * x)

    def test_sampled_piece_reproduces_a_cubic(self):
        xs = np.linspace(-1.0, 0.0, 41)
        vals = 0.3 * xs**3 - xs + 0.2
        piece = PotentialPiece(kind="sampled", x=tuple(xs), values=tuple(vals))
        probe = -0.413
        assert float(piece.evaluate(probe)) == pytest.approx(
            0.3 * probe**3 - probe + 0.2, abs=1e-10)

    def test_moments_match_hand_integral(self):
        spec = make_two_interface()
        moments = potential_moments(spec)
        # int_{-1}^{1} (1 + 0.5 x - 0.3 x^2) dx = 2 - 0.2
        assert moments["I0"] == pytest.approx(1.8, rel=1e-12)

    def test_max_potential_bound_dominates(self):
        vp = st.validate_problem(make_two_interface())
        xs = np.linspace(-1, 1, 1001)
        dense = np.abs(1.0 + 0.5 * xs - 0.3 * xs**2).max()
        assert vp.max_potential_bound() >= dense - 1e-12


class TestJson:
    def test_round_trip_is_exact(self, tmp_path):
        spec = make_two_interface()
        path = tmp_path / "problem.json"
        save_problem(spec, path)
        again = load_problem(path)
        assert again == spec

    def test_round_trip_preserves_awkward_floats(self):
        spec = spec_with(interfaces=(0.1,), jumps=(1.0 / 3.0,),
                         alpha=(math.pi, 0.0))
        obj = problem_to_json(spec)
        # the wire format must survive a real serialize/parse cycle
        again = problem_from_json(json.loads(json.dumps(obj)))
        assert again.jumps[0] == spec.jumps[0]
        assert again.alpha[0] == spec.alpha[0]

    def test_plain_numbers_accepted(self):
        obj = problem_to_json(make_canonical())
        obj["jumps"] = [1.0]
        again = problem_from_json(obj)
        assert again.jumps == (1.0,)


@given(hst.floats(0.3, 3.0), hst.floats(0.3, 3.0))
def test_weight_recursion_property(d1, d2):
    spec = st.ProblemSpec(
        potential=st.PiecewisePotential.constant(0.0),
        interfaces=(-0.2, 0.5), jumps=(d1, d2),
        alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0),
    )
    vp = st.validate_problem(spec)
    w = vp.weights
    assert w[0] == 1.0
    assert w[1] == pytest.approx(d1 * d1)
    assert w[2] == pytest.approx(d1 * d1 * d2 * d2)
    assert vp.delta_sq_prod == pytest.approx(w[2])
