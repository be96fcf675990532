"""Root enumeration: scanning, refinement, diagnostics, normalization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import sltrans as st
from sltrans import eigensolve, ode, propagator
from sltrans.characteristic import eigenvalue_count, omega
from sltrans.eigensolve import (
    Eigenpair,
    LostBracket,
    SuspectedMissedRoot,
    _refine_batch,
    bracket_scan,
    build_eigenpair,
    default_lambda_floor,
    find_eigenvalues,
    validate_floor,
)
from sltrans.hilbert import HElement, h_inner_product, weighted_square_integral
from sltrans.ode import PiecewiseSolution
from sltrans.problem import PotentialPiece
from sltrans.propagator import StepSizeUnderflow, magnus_levels
from conftest import (make_barrier, make_canonical, make_case1_linear, make_case3_linear,
                      make_sampled)
import oracles


def _three_interface_spec():
    return st.ProblemSpec(
        potential=st.PiecewisePotential.constant(1.3),
        interfaces=(-0.5, 0.1, 0.6), jumps=(1.5, -0.7, 2.0),
        alpha=(1.0, 0.5), beta=(0.3, 1.0), beta_prime=(1.0, 0.4))


@pytest.fixture(scope="module")
def three_interface_eigs():
    vp = st.validate_problem(_three_interface_spec())
    return vp, find_eigenvalues(vp, 20)


class TestScan:
    def test_reference_problem_has_seven_brackets_below_ten(self, canonical):
        scan = bracket_scan(canonical, s_max=10.0)
        assert len(scan.brackets) == 7
        assert scan.suspicious == []
        for (lo, hi), s_true in zip(scan.brackets, oracles.FROZEN_CANONICAL_S):
            assert lo < s_true**2 < hi

    def test_no_brackets_on_the_negative_tail(self, canonical):
        scan = bracket_scan(canonical, s_max=4.0, lam_floor=-50.0)
        assert all(lo >= 0.0 for lo, hi in scan.brackets)

    def test_local_scale_positive(self, canonical):
        scan = bracket_scan(canonical, s_max=6.0)
        assert scan.local_scale(10.0) > 0.0

    def test_rejects_bad_arguments(self, canonical):
        with pytest.raises(ValueError):
            bracket_scan(canonical, s_max=-1.0)
        with pytest.raises(ValueError):
            bracket_scan(canonical, s_max=5.0, lam_floor=3.0)

    def test_an_exact_zero_without_a_sign_change_is_suspicious(self, canonical_vp):
        # omega has one sign on [-5, -3]: a zero put at -4 brackets nothing.
        lams = np.array([-5.0, -4.0, -3.0])
        oms = np.array([omega(canonical_vp, -5.0), 0.0, omega(canonical_vp, -3.0)])
        scan = eigensolve.sift_scan(canonical_vp, lams, oms)
        assert scan.brackets == []
        assert scan.suspicious == [{"lam": -4.0, "omega": 0.0,
                                    "note": "exact zero on grid, no sign change around"}]


BAD_NUMBERS = {
    "n_max-float": (find_eigenvalues, {"n_max": 2.5}, TypeError, "n_max must be an integer"),
    "n_max-float64": (find_eigenvalues, {"n_max": np.float64(3.0)}, TypeError,
                      "n_max must be an integer"),
    "n_max-str": (find_eigenvalues, {"n_max": "3"}, TypeError, "n_max must be an integer"),
    "s_max-nan": (bracket_scan, {"s_max": np.nan}, ValueError, "s_max must be positive"),
    "s_max-inf": (bracket_scan, {"s_max": np.inf}, ValueError, "s_max must be positive"),
    "lam_floor-nan": (bracket_scan, {"s_max": 5.0, "lam_floor": np.nan}, ValueError,
                      "lam_floor must be negative"),
    "lam_floor-minus-inf": (bracket_scan, {"s_max": 5.0, "lam_floor": -np.inf}, ValueError,
                            "lam_floor must be negative"),
}


@pytest.mark.parametrize("case", list(BAD_NUMBERS))
def test_bad_numbers_are_rejected_before_propagation(case, canonical_vp, monkeypatch):
    # Each fails before the floor search and the scan, the costly part.
    f, kwargs, error, message = BAD_NUMBERS[case]

    def no_chain(*args, **kw):
        raise AssertionError("propagation started")

    monkeypatch.setattr(propagator, "chain", no_chain)
    monkeypatch.setattr(ode, "chain", no_chain)
    with pytest.raises(error, match=message):
        f(canonical_vp, **kwargs)


class TestRefine:
    def test_first_root_matches_frozen_value(self, canonical_vp):
        scan = bracket_scan(canonical_vp, s_max=2.0)
        lam = _refine_batch(canonical_vp, scan.brackets[:1])[0]
        assert np.sqrt(lam) == pytest.approx(oracles.FROZEN_CANONICAL_S[0],
                                             rel=1e-11)

    def test_lost_bracket_raises(self, canonical_vp):
        # omega keeps one sign on [1, 2] (the roots sit at 0.29 and 3.32)
        with pytest.raises(LostBracket):
            _refine_batch(canonical_vp, [(1.0, 2.0)])

    def test_no_brackets_give_no_roots(self, canonical_vp):
        got = _refine_batch(canonical_vp, [])
        assert got.shape == (0,) and got.dtype == float


# Problems with Magnus pieces for the sign filter, and the n solved.
FILTERED = {
    "case1_linear": (make_case1_linear, 20),
    "case3_linear": (make_case3_linear, 20),
    "sampled": (make_sampled, 10),
    "barrier-100": (lambda: _stiff_barrier(100.0), 10),
}
# eigensolve.omega calls in one find_eigenvalues before refinement took
# its signs from certificates: the scan, both bracket ends and every step.
FULL_OMEGA_CALLS = {"case1_linear": 49, "sampled": 48}


class TestSignFilter:
    @pytest.mark.parametrize("name", list(FILTERED))
    def test_no_bit_moves(self, name, monkeypatch):
        # With no sign ever certified, refinement calls omega at every
        # midpoint, the bisection without the filter.
        make, n = FILTERED[name]
        got = find_eigenvalues(st.validate_problem(make()), n)
        monkeypatch.setattr(eigensolve, "magnus_levels", lambda *args: 0)
        want = find_eigenvalues(st.validate_problem(make()), n)
        assert ([(e.lam.hex(), e.omega_prime.hex()) for e in got]
                == [(e.lam.hex(), e.omega_prime.hex()) for e in want])

    @pytest.mark.parametrize("name", list(FILTERED))
    def test_certified_signs_are_omegas(self, name):
        make, n = FILTERED[name]
        vp = st.validate_problem(make())
        roots = np.array([e.lam for e in find_eigenvalues(vp, n)])
        if name == "barrier-100":  # evanescent through the barrier below 100
            assert np.count_nonzero(roots < 100.0) >= 2
        certified = 0
        for j in range(2, 10):
            for side in (-1.0, 1.0):
                lam = roots * (1.0 + side * 10.0 ** -j)
                want = np.sign(omega(vp, lam))
                for level in range(1, magnus_levels(vp) + 1):
                    signs, got = eigensolve._omega_signs(vp, lam, level)
                    if got > 0:
                        certified += 1
                    assert np.array_equal(signs, want), (j, side, level)
        assert certified >= 4

    @pytest.mark.parametrize("make", [make_canonical, make_barrier])
    def test_constant_q_asks_for_no_certificate(self, make, monkeypatch):
        def no_filter(*args):
            raise AssertionError("level_chain called on constant q")

        monkeypatch.setattr(eigensolve, "level_chain", no_filter)
        assert len(find_eigenvalues(st.validate_problem(make()), 10)) == 10

    @pytest.mark.parametrize("name", list(FULL_OMEGA_CALLS))
    def test_filter_halves_the_omega_calls(self, name, monkeypatch):
        make, n = FILTERED[name]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return omega(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "omega", counting)
        find_eigenvalues(st.validate_problem(make()), n)
        assert len(calls) <= FULL_OMEGA_CALLS[name] // 2


class TestFloor:
    def test_default_floor_is_negative_and_validates(self, two_interface):
        floor = default_lambda_floor(two_interface)
        assert floor < 0.0
        assert validate_floor(two_interface, floor)

    def test_floor_straddling_a_root_fails_validation(self, two_interface):
        # an eigenvalue sits near -21.7, inside [-30, -15]
        assert not validate_floor(two_interface, -15.0)


class TestEnumeration:
    def test_reference_spectrum(self, canonical_eigs):
        got = np.array([e.s for e in canonical_eigs[:8]])
        want = np.array(oracles.FROZEN_CANONICAL_S)
        assert np.max(np.abs(got - want)) < 1e-11

    def test_sorted_and_indexed(self, canonical_eigs):
        lams = [e.lam for e in canonical_eigs]
        assert lams == sorted(lams)
        assert [e.n for e in canonical_eigs] == list(range(len(canonical_eigs)))

    def test_formula_index_assignment(self, canonical_eigs):
        # the first root predates the formula's range; the fourth is its n=3
        assert canonical_eigs[0].n_formula is None
        assert canonical_eigs[3].n_formula == 3

    def test_negative_eigenvalues_found(self, two_interface_eigs):
        assert two_interface_eigs[0].lam == pytest.approx(-21.734613894, rel=1e-8)
        assert two_interface_eigs[1].lam == pytest.approx(-0.4650724226, rel=1e-8)
        assert two_interface_eigs[0].s is None
        assert two_interface_eigs[0].n_formula is None
        assert two_interface_eigs[2].lam > 0.0

    def test_nmax_validation(self, canonical):
        with pytest.raises(ValueError):
            find_eigenvalues(canonical, 0)
        assert len(find_eigenvalues(canonical, np.int64(2))) == 2

    def test_enumeration_matches_independent_oracle(self):
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(1.5),
            interfaces=(-0.4,), jumps=(0.8,),
            alpha=(1.0, 0.5), beta=(0.2, 1.0), beta_prime=(1.0, 0.4),
        )
        eigs = find_eigenvalues(spec, 6)
        want = oracles.constant_q_eigenvalues(
            6, 1.5, (-0.4,), (0.8,), (1.0, 0.5), (0.2, 1.0), (1.0, 0.4),
            lam_min=-400.0)
        got = [e.lam for e in eigs]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_scan_range_grows_until_the_count_is_reached(self, monkeypatch):
        # Below q = 400 only lambda_0 lies under the first top, s = 10.42,
        # so s_max grows by 4 pi before the scan.
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(400.0),
            interfaces=(0.3,), jumps=(1.7,),
            alpha=(1.0, 0.5), beta=(0.0, 1.0), beta_prime=(1.0, 0.3))
        seen = []
        grid = eigensolve.scan_grid

        def recording(s_max, lam_floor):
            seen.append(s_max)
            return grid(s_max, lam_floor)

        monkeypatch.setattr(eigensolve, "scan_grid", recording)
        got = np.array([e.lam for e in find_eigenvalues(spec, 5)])
        assert seen[0] == pytest.approx(10.42, abs=0.01)
        assert seen[-1] == pytest.approx(seen[0] + 4.0 * np.pi)
        # The oracle's grid stops at s = (count + 3) pi / 2: ask it for 20.
        want = np.array(oracles.constant_q_eigenvalues(
            20, 400.0, (0.3,), (1.7,), (1.0, 0.5), (0.0, 1.0), (1.0, 0.3),
            lam_min=-400.0)[:5])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_an_exact_zero_on_the_grid_is_bracketed(self, monkeypatch):
        # omega(0) is exactly 0.0, a grid point: sift_scan brackets the
        # root between the point's two neighbors.
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(0.0),
            interfaces=(0.2,), jumps=(1.5,),
            alpha=(0.0, 1.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0))
        scans = []
        sift = eigensolve.sift_scan

        def recording(vp, lams, oms):
            scans.append((lams, oms, sift(vp, lams, oms)))
            return scans[-1][2]

        monkeypatch.setattr(eigensolve, "sift_scan", recording)
        got = np.array([e.lam for e in find_eigenvalues(spec, 4)])
        lams, oms, scan = scans[0]
        i = int(np.flatnonzero(oms == 0.0)[0])
        assert lams[i] == 0.0
        assert scan.brackets[0] == (lams[i - 1], lams[i + 1])
        assert scan.suspicious == []
        want = np.array(oracles.constant_q_eigenvalues(
            4, 0.0, (0.2,), (1.5,), (0.0, 1.0), (0.0, 1.0), (1.0, 0.0),
            lam_min=-400.0))
        assert abs(got[0]) <= 1e-14
        assert np.max(np.abs(got[1:] - want[1:]) / want[1:]) <= 1e-14


class TestEigenpairRecords:
    def test_unit_norm_in_weighted_space(self, two_interface, two_interface_eigs):
        vp = st.as_validated(two_interface)
        for eig in two_interface_eigs[:6]:
            nsq = (weighted_square_integral(vp, eig.phi)
                   + (vp.delta_sq_prod / vp.rho) * eig.scalar ** 2)
            assert nsq == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("spec, roots", [
        (make_canonical(2.0), (0, 50, 199)),
        (make_barrier(), range(10)),
    ], ids=["constant-q", "barrier"])
    def test_unit_norm_by_adaptive_quadrature(self, spec, roots):
        # h_inner_product's doubling Gauss rule, not the closed form the
        # normalisation itself uses on constant pieces.
        vp = st.as_validated(spec)
        eigs = find_eigenvalues(vp, max(roots) + 1)
        for n in roots:
            el = HElement.from_eigenpair(eigs[n])
            nsq, _ = h_inner_product(vp, el, el)
            assert nsq == pytest.approx(1.0, abs=1e-10)

    def test_sign_convention_at_left_end(self, canonical_eigs, case1_eigs):
        for eig in list(canonical_eigs[:5]) + list(case1_eigs[:5]):
            u, du = eig.phi.eval(-1.0)
            lead = u if u != 0.0 else du
            assert lead > 0.0

    def test_residual_magnitudes(self, case1_eigs):
        for eig in case1_eigs:
            r = eig.residuals
            assert r["omega_scaled"] <= 1e-11
            assert r["bc_left"] <= 1e-12
            assert r["bc_right"] <= 1e-8
            assert r["transmission"] <= 1e-12
            assert r["norm_identity"] <= 1e-8
            assert r["k_substitution"] <= 1e-5

    def test_margin_requires_scan(self, canonical):
        lam = oracles.FROZEN_CANONICAL_S[2] ** 2
        eig = build_eigenpair(canonical, lam)
        assert eig.margin == np.inf and np.isnan(eig.omega_scale)


    def test_each_shot_is_evaluated_once_per_root(self, monkeypatch):
        # k_ratio evaluates phi and chi once each, the weighted norm phi
        # once, and the left end is read from the stored start state, so the
        # count does not grow with the number of subintervals.
        spec = _three_interface_spec()
        calls = []
        original = PiecewiseSolution.eval

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PiecewiseSolution, "eval", counting)
        eigs = find_eigenvalues(st.validate_problem(spec), 20)
        assert len(eigs) == 20
        assert len(calls) <= 3 * len(eigs)

    def test_three_transmission_chains_per_root(self, three_interface_eigs,
                                                monkeypatch):
        # phi, chi and the tangent chain of omega' at the one lambda;
        # omega at the root comes from phi's end state.
        vp, eigs = three_interface_eigs
        calls = []
        original = propagator.chain

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(propagator, "chain", counting)
        monkeypatch.setattr(ode, "chain", counting)
        for eig in eigs:
            build_eigenpair(vp, eig.lam)
        assert len(calls) == 3 * len(eigs)

    def test_omega_at_root_is_omega_on_constant_q(self, three_interface_eigs):
        vp, eigs = three_interface_eigs
        for eig in eigs:
            assert (float(eig.residuals["omega_at_root"]).hex()
                    == omega(vp, eig.lam).hex())

    def test_omega_at_root_agrees_with_omega_on_magnus_pieces(self, case1_linear,
                                                              case1_eigs):
        vp = st.as_validated(case1_linear)
        for eig in case1_eigs:
            u1, du1 = eig.phi.right_states[-1]
            scale = vp.delta_sq_prod * (abs(eig.lam * vp.beta1p + vp.beta1) * abs(u1)
                                        + abs(eig.lam * vp.beta2p + vp.beta2) * abs(du1))
            gap = abs(eig.residuals["omega_at_root"] - omega(vp, eig.lam))
            assert gap <= 1e-12 * scale


class TestNormIdentity:
    def test_variants_coincide_without_jumps(self, canonical_eigs):
        res = canonical_eigs[1].residuals
        assert res["norm_identity"] <= 1e-9
        assert res["norm_identity_jump_scaled_variant"] <= 1e-9
        assert res["k_substitution"] <= 1e-9

    def test_jump_scaled_variant_fails_with_jumps(self):
        res = find_eigenvalues(make_canonical(2.0), 1)[0].residuals
        assert res["norm_identity"] <= 1e-9
        assert res["norm_identity_jump_scaled_variant"] > 1e-2

    def test_k_ratio_spread_discriminates_eigenvalues(self, canonical,
                                                      canonical_eigs):
        spread_at = canonical_eigs[2].k_spread
        spread_off = build_eigenpair(canonical, canonical_eigs[2].lam + 0.5).k_spread
        assert spread_at <= 1e-8
        assert spread_off > 1e-2


class TestCertifiedEnumeration:
    """The roots returned are the eigenvalues N counts, no more, no fewer.

    The two specs come from the const-deep benchmark generator; a scan for
    sign changes of omega alone misses a root of each.
    """

    # Two interfaces, delta_1 < 0: the pair near 0.97 and 1.27 sits inside
    # one scan cell, so omega shows no sign change across it.
    CLOSE_PAIR = st.ProblemSpec(
        potential=st.PiecewisePotential.constant(3.3682751856248814),
        interfaces=(-0.23578550259791753, 0.4882647923865584),
        jumps=(-0.34485942868196295, 0.8347968591663023),
        alpha=(1.728602205337772, 1.1416270088607192),
        beta=(-1.120375328405605, 0.744510714291704),
        beta_prime=(1.9964859660241145, 0.0),
    )
    # Four interfaces, delta_4 < 0, beta_2' != 0: lambda_0 near -59.6 lies
    # below the formula floor (-27.2) and below twice it.
    DEEP_BOTTOM = st.ProblemSpec(
        potential=st.PiecewisePotential.constant(-0.37086626394295497),
        interfaces=(-0.5439048936629605, -0.20481949038095948,
                    -0.026056255573823628, 0.34341696287161527),
        jumps=(1.8215413439156607, 0.3916449569910779, 2.5057458172293163,
               -0.6671234099106913),
        alpha=(-0.04815961165571192, -0.5535600300464911),
        beta=(-1.742074295253988, 0.6016426167691971),
        beta_prime=(1.4661071214567216, 0.20438645224787005),
    )

    @staticmethod
    def oracle(spec, count):
        return np.array(oracles.constant_q_eigenvalues(
            count, spec.potential.pieces[0].value, spec.interfaces,
            spec.jumps, spec.alpha, spec.beta, spec.beta_prime,
            lam_min=-400.0))

    @pytest.mark.parametrize("name", ["CLOSE_PAIR", "DEEP_BOTTOM"])
    def test_regression_specs_match_oracle(self, name):
        spec = getattr(self, name)
        want = self.oracle(spec, 200)
        got = np.array([e.lam for e in find_eigenvalues(spec, 200)])
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10

    @pytest.mark.parametrize("problem_name, eigs_name", [
        ("canonical", "canonical_eigs"), ("case1_linear", "case1_eigs"),
        ("case3_linear", "case3_eigs"), ("two_interface", "two_interface_eigs")])
    def test_count_steps_at_every_root(self, problem_name, eigs_name, request):
        problem = request.getfixturevalue(problem_name)
        eigs = request.getfixturevalue(eigs_name)
        lams = np.array([e.lam for e in eigs])
        eps = 1e-8 * np.maximum(1.0, np.abs(lams))
        n = np.arange(len(lams))
        assert np.array_equal(eigenvalue_count(problem, lams - eps), n)
        assert np.array_equal(eigenvalue_count(problem, lams + eps), n + 1)

    def test_shortfall_raises_with_evidence(self, canonical, monkeypatch):
        refine = eigensolve._refine_batch
        # Lose the lowest root of every refinement batch.
        monkeypatch.setattr(eigensolve, "_refine_batch",
                            lambda *a, **k: refine(*a, **k)[1:])
        with pytest.raises(SuspectedMissedRoot) as info:
            find_eigenvalues(canonical, 3)
        err = info.value
        assert err.found == err.expected - 1
        assert err.interval[0] < 0.29 < err.interval[1]


def _signed(lo, hi):
    return hst.tuples(hst.sampled_from((-1.0, 1.0)),
                      hst.floats(lo, hi)).map(lambda p: p[0] * p[1])


@hst.composite
def constant_q_specs(draw):
    """The const-deep ranges: 1-4 interfaces, delta in +-[0.3, 3], all four
    asymptotic cases, rho >= 0.2."""
    b2p_nonzero = draw(hst.booleans())
    if draw(hst.booleans()):
        alpha = (draw(hst.floats(-2.0, 2.0)), draw(_signed(0.5, 2.0)))
    else:
        alpha = (draw(_signed(0.5, 2.0)), 0.0)
    b1p = draw(hst.floats(0.2, 2.0))
    b2p = draw(_signed(0.2, 1.0)) if b2p_nonzero else 0.0
    b1, b2 = draw(hst.floats(-2.0, 2.0)), draw(hst.floats(-2.0, 2.0))
    rho = b1p * b2 - b1 * b2p
    assume(abs(rho) >= 0.2)
    beta = (b1, b2) if rho > 0 else (-b1, -b2)
    # Interfaces in [-0.8, 0.8], at least 0.1 apart.
    m = draw(hst.integers(1, 4))
    free = sorted(draw(hst.lists(hst.floats(0.0, 1.7 - 0.1 * m),
                                 min_size=m, max_size=m)))
    hs = tuple(-0.8 + f + 0.1 * k for k, f in enumerate(free))
    jumps = tuple(draw(_signed(0.3, 3.0)) for _ in range(m))
    c = draw(hst.floats(-5.0, 5.0))
    return st.ProblemSpec(st.PiecewisePotential.constant(c), hs, jumps,
                          alpha, beta, (b1p, b2p))


@settings(max_examples=20)
@given(constant_q_specs())
def test_count_and_enumeration_match_oracle(spec):
    want = TestCertifiedEnumeration.oracle(spec, 21)
    mids = np.concatenate([[want[0] - 1.0], 0.5 * (want[1:] + want[:-1])])
    assert np.array_equal(eigenvalue_count(spec, mids), np.arange(21))
    got = np.array([e.lam for e in find_eigenvalues(spec, 20)])
    assert np.max(np.abs(got - want[:20]) / np.maximum(1.0, np.abs(want[:20]))) <= 1e-10


def _stiff_barrier(top: float) -> st.ProblemSpec:
    """The barrier problem with a variable middle piece: q = top - 2.5 top x^2
    on [-0.3, 0.3], which falls from top at x = 0 to 0.775 top at the
    interfaces, and q = 0 outside."""
    pieces = [PotentialPiece("constant", value=0.0),
              PotentialPiece("polynomial", coeffs=(top, 0.0, -2.5 * top)),
              PotentialPiece("constant", value=0.0)]
    return st.ProblemSpec(st.PiecewisePotential.from_pieces(pieces), (-0.3, 0.3), (1.5, 0.8),
                          alpha=(1.0, 0.5), beta=(0.0, 1.0), beta_prime=(1.0, 0.3))


@pytest.mark.xfail(strict=True, raises=StepSizeUnderflow,
                   reason="known defect: the backward dense shot chi does not settle "
                          "on a stiff variable piece")
def test_a_stiff_variable_barrier_solves():
    # lambda_0 = -17.054 refines, then shoot_chi's ladder on [0.3, -0.3]
    # stalls at a gap of 1e-10 of scale and raises. With top = 100 the
    # problem solves to n = 40; with top = 400 refinement itself fails,
    # near lambda = 33.52.
    eigs = find_eigenvalues(st.validate_problem(_stiff_barrier(200.0)), 10)
    assert len(eigs) == 10
    assert eigs[0].lam == pytest.approx(-17.0537, abs=1e-3)


@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP, Known defects): a "
                   "barrier eigenvector misses its right boundary condition")
def test_barrier_eigenvectors_meet_the_right_boundary_condition():
    # Roots 1 (lambda = -2.948) and 4 (34.074) read bc_right 2.2e-3 and
    # 1.4e-6; roots 0, 2, 3 and 5 read at most 2.2e-15.
    eigs = find_eigenvalues(make_barrier(), 6)
    assert max(eigs[n].residuals["bc_right"] for n in (1, 4)) <= 1e-10
