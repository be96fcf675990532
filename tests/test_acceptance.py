"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each test measures its criterion at the stated tolerance, records the
outcome for the end-of-run summary (see conftest), and then asserts.
Oracles come from tests/oracles.py and are independent of the package's
own propagation and root-finding code.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import oracles
import sltrans as st
from conftest import make_canonical, make_case1_linear, make_two_interface


def _ls_slope(ns, vals):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.maximum(np.asarray(vals, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def test_criterion_01_canonical_roots(canonical, acceptance):
    t0 = time.perf_counter()
    eigs = st.find_eigenvalues(canonical, 20)
    dt = time.perf_counter() - t0
    ref = oracles.canonical_roots(20)
    ds = max(abs(e.s - r) for e, r in zip(eigs, ref))
    ok = ds <= 1e-8 and dt <= 5.0
    acceptance(1, ok, f"max|ds|={ds:.2e} (tol 1e-8), {dt:.2f}s (cap 5s)")
    assert len(eigs) == 20
    assert ds <= 1e-8
    assert dt <= 5.0


def test_criterion_02_constant_q_oracle(acceptance):
    cases = [
        # same boundary data as the canonical problem, q = 1
        dict(c=1.0, interfaces=(0.0,), jumps=(1.0,),
             alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0)),
        # q = 2 with a genuine jump and a fully mixed right condition
        dict(c=2.0, interfaces=(0.3,), jumps=(1.7,),
             alpha=(1.0, 1.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.3)),
    ]
    worst = 0.0
    for p in cases:
        spec = st.ProblemSpec(
            potential=st.PiecewisePotential.constant(p["c"]),
            interfaces=p["interfaces"], jumps=p["jumps"],
            alpha=p["alpha"], beta=p["beta"], beta_prime=p["beta_prime"],
        )
        eigs = st.find_eigenvalues(spec, 20)
        ref = oracles.constant_q_eigenvalues(
            20, p["c"], p["interfaces"], p["jumps"],
            p["alpha"], p["beta"], p["beta_prime"], lam_min=-400.0)
        worst = max(worst, max(abs(e.lam - r) for e, r in zip(eigs, ref)))
    ok = worst <= 1e-7
    acceptance(2, ok, f"max|dlam|={worst:.2e} (tol 1e-7)")
    assert worst <= 1e-7


def _random_spec(rng, m: int) -> st.ProblemSpec:
    while True:
        pts = np.sort(rng.uniform(-0.8, 0.8, size=m))
        if m == 1 or np.min(np.diff(pts)) >= 0.2:
            break
    jumps = tuple(rng.uniform(0.4, 2.5, size=m))
    while True:
        alpha = tuple(rng.uniform(-1.5, 1.5, size=2))
        if max(abs(alpha[0]), abs(alpha[1])) >= 0.2:
            break
    while True:
        beta = tuple(rng.uniform(-1.5, 1.5, size=2))
        beta_prime = tuple(rng.uniform(-1.5, 1.5, size=2))
        if beta_prime[0] * beta[1] - beta[0] * beta_prime[1] >= 0.2:
            break
    deg = int(rng.integers(0, 3))
    coeffs = tuple(rng.uniform(-1.5, 1.5, size=deg + 1))
    return st.ProblemSpec(
        potential=st.PiecewisePotential.polynomial(coeffs),
        interfaces=tuple(float(h) for h in pts), jumps=jumps,
        alpha=alpha, beta=beta, beta_prime=beta_prime,
    )


def test_criterion_03_chain_residuals(acceptance):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for m in (1, 2, 3, 2, 1):
        spec = _random_spec(rng, m)
        lams = rng.uniform(-20.0, 400.0, size=50)
        for sample in st.omega_samples(spec, lams):
            worst = max(worst, sample.chain_residual_rel())
    ok = worst <= 1e-7
    acceptance(3, ok, f"max chain residual={worst:.2e} (tol 1e-7)")
    assert worst <= 1e-7


def test_criterion_04_jump_invariance(acceptance, margin_registry):
    reference = None
    worst = 0.0
    for jump in (0.5, 1.0, 2.0, 3.0):
        eigs = st.find_eigenvalues(make_canonical(jump), 12)
        margin_registry.append((f"canonical jump={jump}", eigs))
        lams = np.array([e.lam for e in eigs])
        if reference is None:
            reference = lams
        else:
            worst = max(worst, float(np.max(np.abs(lams - reference))))
    ok = worst <= 1e-8
    acceptance(4, ok, f"max eigenvalue shift={worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_05_asymptotic_rates(canonical, case1_linear, case3_linear,
                                       canonical_eigs, case1_eigs, case3_eigs,
                                       acceptance):
    triples = [("canonical", canonical, canonical_eigs),
               ("case1", case1_linear, case1_eigs),
               ("case3", case3_linear, case3_eigs)]
    details = []
    worst = -np.inf
    for label, spec, eigs in triples:
        rows = [r for r in st.asymptotics_report(spec, eigs)
                if 5 <= r["n"] <= 40]
        assert len(rows) >= 25, f"{label}: only {len(rows)} usable rows"
        ns = [r["n"] for r in rows]
        s1 = _ls_slope(ns, [r["n_err1"] for r in rows])
        s2 = _ls_slope(ns, [r["n2_err2"] for r in rows])
        s2_alt = _ls_slope(ns, [r["n2_err2_jump_scaled"] for r in rows])
        details.append(f"{label} {s1:+.2f}/{s2:+.2f} (alt {s2_alt:+.2f})")
        worst = max(worst, s1, s2)
    ok = worst <= 0.05
    acceptance(5, ok, f"max LS slope={worst:+.3f} (cap +0.05)",
               note="; ".join(details))
    assert worst <= 0.05


def test_criterion_06_orthonormality(canonical_eigs, two_interface,
                                     two_interface_eigs, acceptance):
    worst_off = 0.0
    worst_diag = 0.0
    for spec, eigs in ((make_canonical(), canonical_eigs[:15]),
                       (two_interface, two_interface_eigs[:15])):
        gram = st.gram_matrix(spec, eigs)
        off = gram - np.diag(np.diag(gram))
        worst_off = max(worst_off, float(np.max(np.abs(off))))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(gram) - 1.0))))
    ok = worst_off <= 1e-6
    acceptance(6, ok, f"max off-diagonal={worst_off:.2e} (tol 1e-6)",
               note=f"max |diag-1|={worst_diag:.2e}")
    assert worst_off <= 1e-6


def test_criterion_07_simplicity_margins(canonical_eigs, case1_eigs,
                                         case3_eigs, two_interface_eigs,
                                         margin_registry, acceptance):
    # the fixture arguments force every shared enumeration to exist first
    violations = 0
    total = 0
    worst = np.inf
    for label, eigs in margin_registry:
        for e in eigs:
            total += 1
            worst = min(worst, e.margin)
            if not e.margin >= 1e-4:
                violations += 1
    ok = violations == 0 and total > 0
    acceptance(7, ok,
               f"min margin={worst:.2e} over {total} roots "
               f"(floor 1e-4), {violations} violations")
    assert total >= 100
    assert violations == 0


def test_criterion_08_symmetry(two_interface, case1_linear, acceptance):
    rng = np.random.default_rng(814)
    worst = dict(residual=0.0, wronskian_left=0.0,
                 wronskian_jump_residual=0.0, r_form_residual=0.0)
    for spec in (two_interface, case1_linear):
        for _ in range(5):
            la, lb = rng.uniform(-10.0, 300.0, size=2)
            res = st.greens_identity_residual(spec, float(la), float(lb))
            for key in worst:
                worst[key] = max(worst[key], res[key])
    ok = (worst["residual"] <= 1e-7
          and worst["wronskian_left"] <= 1e-9
          and worst["wronskian_jump_residual"] <= 1e-9
          and worst["r_form_residual"] <= 1e-12)
    acceptance(8, ok,
               f"residual={worst['residual']:.2e} (tol 1e-7)",
               note=(f"W(-1)={worst['wronskian_left']:.1e}, "
                     f"jump={worst['wronskian_jump_residual']:.1e} (tol 1e-9), "
                     f"R-form={worst['r_form_residual']:.1e} (tol 1e-12)"))
    assert worst["residual"] <= 1e-7
    assert worst["wronskian_left"] <= 1e-9
    assert worst["wronskian_jump_residual"] <= 1e-9
    assert worst["r_form_residual"] <= 1e-12


def test_criterion_09_completeness(canonical, canonical_eigs, acceptance):
    eigs = canonical_eigs[:40]
    elements = {
        "bump": st.HElement.bump(center=-0.2, halfwidth=0.5, amplitude=1.3),
        "polynomial": st.HElement.polynomial((0.3, -0.4, 1.0), f1=0.6),
        "scalar": st.HElement.scalar_only(1.0),
    }
    monotone = True
    details = []
    ratio = None
    for label, F in elements.items():
        result = st.expand(canonical, F, eigs)
        res = np.asarray(result.residuals)
        slack = 1e-8 * max(res[0], 1.0)
        this_ok = bool(np.all(np.diff(res) <= slack))
        monotone = monotone and this_ok
        details.append(f"{label} final residual {res[-1]:.3f}"
                       + ("" if this_ok else " NOT MONOTONE"))
        if label == "scalar":
            ratio = result.parseval_ratio
    ok = monotone and ratio is not None and ratio >= 0.98
    acceptance(9, ok, f"scalar Parseval ratio={ratio:.4f} (floor 0.98)",
               note="; ".join(details))
    assert monotone
    assert ratio >= 0.98


def test_criterion_10_picard_cross_check(acceptance):
    specs = [
        st.ProblemSpec(potential=st.PiecewisePotential.constant(1.0),
                       interfaces=(0.0,), jumps=(1.0,),
                       alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.0)),
        st.ProblemSpec(potential=st.PiecewisePotential.constant(1.0),
                       interfaces=(0.3,), jumps=(1.7,),
                       alpha=(1.0, 1.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.3)),
    ]
    probes = (-0.77, -0.3, 0.41, 0.93)
    worst = 0.0
    for spec in specs:
        for lam in (2.5, 9.0, 30.0):
            assert np.sqrt(lam) >= 1.0
            via_ode = st.shoot_phi(spec, lam)
            via_integral = st.picard_phi(spec, lam)
            for x in probes:
                u_o, du_o = via_ode.eval(x)
                u_i, du_i = via_integral.eval(x)
                scale = max(abs(u_o), abs(du_o), 1.0)
                worst = max(worst, abs(u_i - u_o) / scale,
                            abs(du_i - du_o) / scale)
    ok = worst <= 1e-7
    acceptance(10, ok, f"max probe disagreement={worst:.2e} (tol 1e-7)")
    assert worst <= 1e-7
