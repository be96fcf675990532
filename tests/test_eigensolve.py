"""Root enumeration: scanning, refinement, diagnostics, normalization."""

import numpy as np
import pytest

import sltrans as st
from sltrans.eigensolve import (
    GAP_LIMIT,
    Eigenpair,
    LostBracket,
    SuspectedMissedRoot,
    _dedupe,
    _gap_check,
    bracket_scan,
    build_eigenpair,
    default_lambda_floor,
    find_eigenvalues,
    k_ratio,
    norm_identity_residual,
    refine_root,
    validate_floor,
    weighted_square_integral,
)
from conftest import make_canonical
import oracles


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


class TestRefine:
    def test_first_root_matches_frozen_value(self, canonical):
        scan = bracket_scan(canonical, s_max=2.0)
        lam = refine_root(canonical, scan.brackets[0])
        assert np.sqrt(lam) == pytest.approx(oracles.FROZEN_CANONICAL_S[0],
                                             rel=1e-11)

    def test_lost_bracket_raises(self, canonical):
        # omega keeps one sign on [1, 2] (the roots sit at 0.29 and 3.32)
        with pytest.raises(LostBracket):
            refine_root(canonical, (1.0, 2.0))


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

    def test_enumeration_matches_independent_oracle(self):
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(1.5),
            interfaces=(-0.4,), jumps=(0.8,),
            alpha=(1.0, 0.5), beta=(0.2, 1.0), beta_prime=(1.0, 0.4),
        )
        eigs = find_eigenvalues(spec, 6)
        want = oracles.constant_q_eigenvalues(
            6, 1.5, (-0.4,), (0.8,), (1.0, 0.5), (0.2, 1.0), (1.0, 0.4))
        got = [e.lam for e in eigs]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


class TestEigenpairRecords:
    def test_unit_norm_in_weighted_space(self, two_interface, two_interface_eigs):
        vp = st.as_validated(two_interface)
        for eig in two_interface_eigs[:6]:
            nsq = (weighted_square_integral(vp, eig.phi)
                   + (vp.delta_sq_prod / vp.rho) * eig.scalar ** 2)
            assert nsq == pytest.approx(1.0, rel=1e-8)

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


class TestNormIdentity:
    def test_variants_coincide_without_jumps(self, canonical, canonical_eigs):
        res = norm_identity_residual(canonical, canonical_eigs[1])
        assert res["residual"] <= 1e-9
        assert res["residual_jump_scaled_variant"] <= 1e-9
        assert res["substitution_residual"] <= 1e-9

    def test_jump_scaled_variant_fails_with_jumps(self):
        spec = make_canonical(2.0)
        eig = find_eigenvalues(spec, 1)[0]
        res = norm_identity_residual(spec, eig.lam)
        assert res["residual"] <= 1e-9
        assert res["residual_jump_scaled_variant"] > 1e-2

    def test_agrees_with_eigenpair_record(self, case1_linear, case1_eigs):
        eig = case1_eigs[3]
        res = norm_identity_residual(case1_linear, eig)
        assert res["residual"] == eig.residuals["norm_identity"]
        assert (res["residual_jump_scaled_variant"]
                == eig.residuals["norm_identity_jump_scaled_variant"])
        assert res["substitution_residual"] == eig.residuals["k_substitution"]
        assert res["k"] == eig.k_ratio

    def test_k_ratio_spread_discriminates_eigenvalues(self, canonical,
                                                      canonical_eigs):
        _, spread_at = k_ratio(canonical, canonical_eigs[2].lam)
        _, spread_off = k_ratio(canonical, canonical_eigs[2].lam + 0.5)
        assert spread_at <= 1e-8
        assert spread_off > 1e-2


class TestGuards:
    def test_dedupe_collapses_near_duplicates(self):
        roots = np.array([1.0, 1.0 + 1e-13, 2.0, 2.0 + 1e-7])
        kept = _dedupe(roots)
        assert len(kept) == 3

    def test_gap_check_raises_on_wide_spacing(self):
        s = np.array([2.0, 2.0 + GAP_LIMIT + 0.1])
        with pytest.raises(SuspectedMissedRoot):
            _gap_check(s ** 2)

    def test_gap_check_passes_normal_spacing(self, canonical_eigs):
        _gap_check(np.array([e.lam for e in canonical_eigs]))
