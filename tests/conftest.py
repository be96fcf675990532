"""Shared fixtures and the acceptance-criteria reporter.

Expensive eigenvalue enumerations are session-scoped so the acceptance
gate and the unit tests share one solve per problem. The reporter prints
one PASS/FAIL line per acceptance criterion at the end of the run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import sltrans as st
from sltrans.problem import PotentialPiece

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


# ----------------------------------------------------------------------
# Problem fixtures
# ----------------------------------------------------------------------

def make_canonical(jump: float = 1.0) -> st.ProblemSpec:
    """q = 0, one interface at 0, left end clamped, lambda-affine right BC."""
    return st.ProblemSpec(
        potential=st.PiecewisePotential.constant(0.0),
        interfaces=(0.0,),
        jumps=(jump,),
        alpha=(1.0, 0.0),
        beta=(0.0, 1.0),
        beta_prime=(1.0, 0.0),
    )


def make_case1_linear() -> st.ProblemSpec:
    """beta_2' != 0 and alpha_2 != 0, piecewise-linear potential, jump 1.5."""
    return st.ProblemSpec(
        potential=st.PiecewisePotential.from_pieces([
            PotentialPiece(kind="polynomial", coeffs=(1.0, 1.0)),
            PotentialPiece(kind="polynomial", coeffs=(2.0, -0.5)),
        ]),
        interfaces=(0.2,),
        jumps=(1.5,),
        alpha=(1.0, 1.0),
        beta=(0.0, 1.0),
        beta_prime=(1.0, 0.3),
    )


def make_case2_linear() -> st.ProblemSpec:
    """beta_2' != 0, alpha_2 = 0, q = 1 + x (int q = 2), jump 1.5."""
    return st.ProblemSpec(
        potential=st.PiecewisePotential.polynomial((1.0, 1.0)),
        interfaces=(0.2,), jumps=(1.5,),
        alpha=(1.0, 0.0), beta=(0.0, 1.0), beta_prime=(1.0, 0.3),
    )


def make_case3_linear() -> st.ProblemSpec:
    """beta_2' = 0, beta_1' != 0, alpha_2 != 0, same potential as case 1."""
    return st.ProblemSpec(
        potential=make_case1_linear().potential,
        interfaces=(0.2,),
        jumps=(1.5,),
        alpha=(1.0, 1.0),
        beta=(0.5, 1.0),
        beta_prime=(1.0, 0.0),
    )


def make_two_interface() -> st.ProblemSpec:
    """m = 2 with jumps (2, 0.5) and a quadratic potential."""
    return st.ProblemSpec(
        potential=st.PiecewisePotential.polynomial((1.0, 0.5, -0.3)),
        interfaces=(-0.3, 0.4),
        jumps=(2.0, 0.5),
        alpha=(1.0, 1.0),
        beta=(0.5, 1.0),
        beta_prime=(1.0, 0.25),
    )


def make_sampled() -> st.ProblemSpec:
    """Two sampled pieces, 23 and 31 points of 1.5 cos 3x - x^2 + 0.4,
    one interface at 0.1 with jump 1.5."""
    pieces = []
    for a, b, n_pts in ((-1.0, 0.1, 23), (0.1, 1.0, 31)):
        xs = np.linspace(a, b, n_pts)
        vals = 1.5 * np.cos(3.0 * xs) - xs * xs + 0.4
        pieces.append(PotentialPiece("sampled", x=tuple(xs), values=tuple(vals)))
    return st.ProblemSpec(st.PiecewisePotential.from_pieces(pieces), (0.1,), (1.5,),
                          alpha=(1.0, 0.5), beta=(0.0, 1.0), beta_prime=(1.0, 0.0))


def make_barrier() -> st.ProblemSpec:
    """Constant pieces 0 / 400 / 0 with jumps (1.5, 0.8): below lambda = 400
    every eigenvector decays or grows through the middle piece."""
    return st.ProblemSpec(
        potential=st.PiecewisePotential.from_pieces([
            PotentialPiece(kind="constant", value=v) for v in (0.0, 400.0, 0.0)
        ]),
        interfaces=(-0.3, 0.3),
        jumps=(1.5, 0.8),
        alpha=(1.0, 0.5),
        beta=(0.0, 1.0),
        beta_prime=(1.0, 0.3),
    )


@pytest.fixture(scope="session")
def canonical():
    return make_canonical()


@pytest.fixture(scope="session")
def canonical_vp(canonical):
    return st.validate_problem(canonical)


@pytest.fixture(scope="session")
def case1_linear():
    return make_case1_linear()


@pytest.fixture(scope="session")
def case2_linear():
    return make_case2_linear()


@pytest.fixture(scope="session")
def case3_linear():
    return make_case3_linear()


@pytest.fixture(scope="session")
def two_interface():
    return make_two_interface()


# ----------------------------------------------------------------------
# Shared eigenvalue enumerations (the expensive part of the suite)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def canonical_eigs(canonical, margin_registry):
    eigs = st.find_eigenvalues(canonical, 42)
    margin_registry.append(("canonical", eigs))
    return eigs


@pytest.fixture(scope="session")
def case1_eigs(case1_linear, margin_registry):
    eigs = st.find_eigenvalues(case1_linear, 42)
    margin_registry.append(("case1_linear", eigs))
    return eigs


@pytest.fixture(scope="session")
def case2_eigs(case2_linear, margin_registry):
    eigs = st.find_eigenvalues(case2_linear, 42)
    margin_registry.append(("case2_linear", eigs))
    return eigs


@pytest.fixture(scope="session")
def case3_eigs(case3_linear, margin_registry):
    eigs = st.find_eigenvalues(case3_linear, 42)
    margin_registry.append(("case3_linear", eigs))
    return eigs


@pytest.fixture(scope="session")
def two_interface_eigs(two_interface, margin_registry):
    eigs = st.find_eigenvalues(two_interface, 15)
    margin_registry.append(("two_interface", eigs))
    return eigs


@pytest.fixture(scope="session")
def margin_registry():
    """(label, eigenpair list) tuples from every enumeration in the run."""
    return []


# ----------------------------------------------------------------------
# Acceptance reporting
# ----------------------------------------------------------------------

CRITERIA = {
    1: "canonical closed-form roots, 20 eigenvalues, |ds| <= 1e-8, <= 5 s",
    2: "constant-q oracle, q in {1, 2}, |dlam| <= 1e-7 for n <= 20",
    3: "per-subinterval chain residual <= 1e-7, 5 random specs x 50 lambda",
    4: "jump-factor invariance at q = 0, eigenvalues equal to 1e-8",
    5: "error-decay rates of both asymptotic orders, LS slope <= 0.05",
    6: "Gram off-diagonal <= 1e-6, first 15 eigenvectors, two problems",
    7: "root simplicity margin |omega'| >= 1e-4 x local scale, no violations",
    8: "symmetry residual <= 1e-7; ingredient identities 1e-9 / 1e-12",
    9: "expansion residuals monotone; scalar Parseval >= 98% at N = 40",
    10: "integral-equation vs differential shooting, 1e-7 at 4 probes",
}

_RESULTS: dict[int, dict] = {}


def record_criterion(num: int, passed: bool, measured: str, note: str = ""):
    _RESULTS[num] = {"passed": bool(passed), "measured": measured, "note": note}


@pytest.fixture
def acceptance():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERIA):
        if num in _RESULTS:
            r = _RESULTS[num]
            verdict = "PASS" if r["passed"] else "FAIL"
            line = f"{verdict}  {num:2d}. {CRITERIA[num]} | {r['measured']}"
            if r["note"]:
                line += f" | {r['note']}"
        else:
            line = f"FAIL  {num:2d}. {CRITERIA[num]} | no result recorded"
        tr.write_line(line)
