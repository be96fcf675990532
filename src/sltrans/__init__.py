"""Sturm-Liouville eigenproblems with interior transmission jumps and an
eigenvalue-dependent right boundary condition.

The solver enumerates the spectrum as zeros of a characteristic function,
validates each root against large-index formulas and structural identities,
and builds an orthonormal eigenvector family in the weighted space the
problem is self-adjoint on.
"""

from .asymptotics import (EigenvalueEstimate, asymptotics_report,
                          eigenfunction_estimate, eigenvalue_estimate,
                          leading_omega, nearest_index)
from .characteristic import (CharacteristicSample, eigenvalue_count, omega,
                             omega_derivative, omega_samples)
from .eigensolve import (DegeneratePhi, Eigenpair, LostBracket, ScanResult,
                         SuspectedMissedRoot, bracket_scan, build_eigenpair,
                         default_lambda_floor, find_eigenvalues, validate_floor)
from .hilbert import (ExpansionResult, HElement, expand, gram_matrix,
                      greens_identity_residual, h_inner_product, r1_form,
                      r1p_form, r_form_identity_residual,
                      weighted_square_integral)
from .ode import (NonConvergence, PiecewiseSolution, picard_phi, shoot_chi,
                  shoot_phi)
from .problem import (AsymptoticCase, DegenerateLeftBC, OutOfDomain,
                      PiecewisePotential, PotentialPiece, ProblemError,
                      ProblemSpec, RhoNotPositive, UnorderedInterfaces,
                      ValidatedProblem, ZeroJumpFactor, as_validated,
                      classify_case, load_problem,
                      potential_moments, problem_from_json, problem_to_json,
                      save_problem, validate_problem)
from .propagator import NonFiniteState, StepSizeUnderflow
from .quadrature import QuadratureNotConverged

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCase", "CharacteristicSample", "DegeneratePhi",
    "DegenerateLeftBC", "Eigenpair", "EigenvalueEstimate", "ExpansionResult",
    "HElement", "LostBracket", "NonConvergence", "NonFiniteState",
    "OutOfDomain", "PiecewisePotential", "PiecewiseSolution", "PotentialPiece",
    "ProblemError", "ProblemSpec", "QuadratureNotConverged", "RhoNotPositive",
    "ScanResult", "StepSizeUnderflow", "SuspectedMissedRoot",
    "UnorderedInterfaces", "ValidatedProblem", "ZeroJumpFactor",
    "as_validated", "asymptotics_report", "bracket_scan", "build_eigenpair",
    "classify_case", "default_lambda_floor", "eigenfunction_estimate",
    "eigenvalue_count", "eigenvalue_estimate", "expand", "find_eigenvalues",
    "gram_matrix", "greens_identity_residual", "h_inner_product",
    "leading_omega", "load_problem", "nearest_index", "omega",
    "omega_derivative", "omega_samples", "picard_phi", "potential_moments",
    "problem_from_json", "problem_to_json", "r1_form", "r1p_form",
    "r_form_identity_residual", "save_problem", "shoot_chi", "shoot_phi",
    "validate_floor", "validate_problem", "weighted_square_integral",
]
