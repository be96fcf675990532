"""The weighted direct-sum space the eigenvectors live in.

Elements are pairs (f, f1): a piecewise function on [-1, 1] and one real
scalar. The inner product weights subinterval j by w_j (w_0 = 1, each
interface multiplies by the squared jump factor) and the scalar slot by
prod(delta_i^2) / rho. Against this product the boundary-value problem
becomes symmetric, eigenvectors of distinct eigenvalues are orthogonal, and
the augmented eigenvectors (phi_n, R1'(phi_n)) form a complete orthonormal
family after normalization.

The module provides the inner product (with a quadrature error estimate),
the two right-boundary forms R1 and R1', Gram matrices, a symmetry
(Green's identity) diagnostic, and the expansion / completeness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import as_validated
from .quadrature import QuadratureNotConverged, fixed_quad, panel_nodes

QUAD_NODES = 12
MAX_QUAD_DOUBLINGS = 8


# ----------------------------------------------------------------------
# Boundary forms
# ----------------------------------------------------------------------

def r1_form(problem, u1: float, du1: float) -> float:
    """beta_1 u(1) - beta_2 u'(1)."""
    vp = as_validated(problem)
    return vp.beta1 * u1 - vp.beta2 * du1


def r1p_form(problem, u1: float, du1: float) -> float:
    """beta_1' u(1) - beta_2' u'(1)."""
    vp = as_validated(problem)
    return vp.beta1p * u1 - vp.beta2p * du1


def r_form_identity_residual(problem, fu, fdu, gu, gdu) -> float:
    """Defect of R1'(f) R1(g) - R1(f) R1'(g) + rho W(f, g) at x = 1.

    An algebraic identity in the four boundary values; zero up to rounding
    for any inputs. Useful as a self-test of the form conventions.
    """
    vp = as_validated(problem)
    lhs = (r1p_form(vp, fu, fdu) * r1_form(vp, gu, gdu)
           - r1_form(vp, fu, fdu) * r1p_form(vp, gu, gdu))
    wr = fu * gdu - fdu * gu
    return float(lhs + vp.rho * wr)


@dataclass(frozen=True)
class BoundaryForms:
    """Both right-boundary forms of one solution, evaluated at x = 1."""

    r1: float
    r1p: float

    @classmethod
    def of(cls, problem, solution) -> "BoundaryForms":
        u1, du1 = solution.boundary_state("right")
        return cls(r1=r1_form(problem, u1, du1), r1p=r1p_form(problem, u1, du1))


# ----------------------------------------------------------------------
# Elements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HElement:
    """A space element: function part f (vectorized callable) plus scalar f1.

    freq_hint seeds the quadrature panel count; set it to the dominant
    oscillation frequency of f (in x) if known, else leave 0.
    """

    f: object
    f1: float = 0.0
    freq_hint: float = 0.0
    label: str = ""

    def values(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def from_eigenpair(cls, eig) -> "HElement":
        freq = eig.s if eig.s is not None else 0.0
        return cls(f=eig.phi.u, f1=eig.scalar, freq_hint=freq,
                   label=f"eigenvector[{eig.n}]")

    @classmethod
    def polynomial(cls, coeffs, f1: float = 0.0) -> "HElement":
        coeffs = tuple(float(c) for c in coeffs)

        def f(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

        return cls(f=f, f1=float(f1), freq_hint=float(len(coeffs)),
                   label=f"poly{coeffs}")

    @classmethod
    def bump(cls, center: float, halfwidth: float, amplitude: float = 1.0,
             f1: float = 0.0) -> "HElement":
        """Smooth bump supported on (center - halfwidth, center + halfwidth)."""
        c, hw, amp = float(center), float(halfwidth), float(amplitude)
        if hw <= 0:
            raise ValueError("halfwidth must be positive")

        def f(x):
            t = (np.asarray(x, dtype=float) - c) / hw
            out = np.zeros_like(t)
            inside = np.abs(t) < 1.0
            ti = t[inside]
            out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - ti * ti))
            return out

        return cls(f=f, f1=float(f1), freq_hint=8.0 / hw,
                   label=f"bump({c},{hw})")

    @classmethod
    def scalar_only(cls, f1: float) -> "HElement":
        def f(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return cls(f=f, f1=float(f1), freq_hint=0.0, label=f"scalar({f1})")


# ----------------------------------------------------------------------
# Inner product and Gram matrix
# ----------------------------------------------------------------------

def panels_for(a: float, b: float, freq: float) -> int:
    """Panel count keeping under one oscillation period per 12-node panel."""
    return max(2, int(np.ceil((b - a) * (abs(freq) + 4.0) / 4.0)))


def h_inner_product(problem, F: HElement, G: HElement, *,
                    rel_tol: float = 1e-11, abs_tol: float = 1e-14,
                    n_nodes: int = QUAD_NODES):
    """<F, G>: weighted integrals over every subinterval plus the scalar term.

    Returns (value, error_estimate). Each subinterval integral starts from a
    panel count seeded by the frequency hints and doubles until stable;
    raises QuadratureNotConverged if any integral refuses to settle.
    """
    vp = as_validated(problem)
    freq = F.freq_hint + G.freq_hint
    total = 0.0
    err_total = 0.0
    for j, (a, b) in enumerate(vp.subintervals()):
        def fg(x):
            return F.values(x) * G.values(x)

        panels = panels_for(a, b, freq)
        prev = fixed_quad(fg, a, b, panels, n_nodes)
        converged = False
        for _ in range(MAX_QUAD_DOUBLINGS):
            panels *= 2
            cur = fixed_quad(fg, a, b, panels, n_nodes)
            gap = abs(cur - prev)
            if gap <= max(abs_tol, rel_tol * abs(cur)):
                converged = True
                break
            prev = cur
        if not converged:
            raise QuadratureNotConverged(
                f"inner-product integral on [{a}, {b}] still moving by "
                f"{gap:.3e} at {panels} panels")
        total += vp.weights[j] * cur
        err_total += vp.weights[j] * gap
    total += (vp.delta_sq_prod / vp.rho) * F.f1 * G.f1
    return total, err_total


def _shared_grid(vp, freq: float, n_nodes: int = QUAD_NODES):
    """One composite Gauss grid over all subintervals, H-weights folded in."""
    xs, ws = [], []
    for j, (a, b) in enumerate(vp.subintervals()):
        x, w = panel_nodes(a, b, panels_for(a, b, freq), n_nodes)
        xs.append(x)
        ws.append(vp.weights[j] * w)
    return np.concatenate(xs), np.concatenate(ws)


def gram_matrix(problem, elements, *, n_nodes: int = QUAD_NODES) -> np.ndarray:
    """All pairwise inner products.

    Accepts eigenpairs or HElements (eigenpairs are wrapped). Every element
    is sampled once on a shared grid fine enough for the fastest pair, so
    the cost is linear in the element count plus one matrix product.
    """
    vp = as_validated(problem)
    elems = [e if isinstance(e, HElement) else HElement.from_eigenpair(e)
             for e in elements]
    if not elems:
        return np.zeros((0, 0))
    freq = 2.0 * max(e.freq_hint for e in elems)
    x, w = _shared_grid(vp, freq, n_nodes)
    vals = np.vstack([e.values(x) for e in elems])
    scal = np.array([e.f1 for e in elems])
    gram = (vals * w) @ vals.T
    gram += (vp.delta_sq_prod / vp.rho) * np.outer(scal, scal)
    return gram


# ----------------------------------------------------------------------
# Symmetry (Green's identity) diagnostic
# ----------------------------------------------------------------------

def greens_identity_residual(problem, lam_a: float, lam_b: float, *,
                             rtol: float = 1e-12) -> dict:
    """Symmetry defect of the operator on two shot left solutions.

    Builds F = (phi_a, R1'(phi_a)) and G likewise for lam_b; both satisfy
    the differential equation, the left condition, and the transmission
    conditions for any lambda, so the symmetric difference
    <AF, G> - <F, AG> must vanish. Since the operator acts on the function
    part as multiplication by lambda (tau phi = lambda phi pointwise) and on
    the scalar slot as -R1, the difference reduces to integrals the
    quadrature can do directly. Returned dict carries the headline relative
    residual plus the three ingredients it decomposes into: the Wronskian at
    the left end, the worst interface Wronskian-jump defect, and the
    boundary-form identity defect at x = 1.
    """
    from .eigensolve import weighted_square_integral
    from .ode import shoot_phi

    vp = as_validated(problem)
    pa = shoot_phi(vp, lam_a, rtol=rtol)
    pb = shoot_phi(vp, lam_b, rtol=rtol)
    fa = BoundaryForms.of(vp, pa)
    fb = BoundaryForms.of(vp, pb)
    Fa = HElement(f=pa.u, f1=fa.r1p, freq_hint=np.sqrt(abs(lam_a)))
    Fb = HElement(f=pb.u, f1=fb.r1p, freq_hint=np.sqrt(abs(lam_b)))

    cross, cross_err = h_inner_product(vp, Fa, Fb)
    # <AF, G> = lam_a * sum_j w_j int phi_a phi_b - (D2/rho) R1(phi_a) R1'(phi_b)
    scal = vp.delta_sq_prod / vp.rho
    integral = cross - scal * fa.r1p * fb.r1p
    afg = lam_a * integral - scal * fa.r1 * fb.r1p
    fag = lam_b * integral - scal * fa.r1p * fb.r1

    na = np.sqrt(max(weighted_square_integral(vp, pa), 0.0))
    nb = np.sqrt(max(weighted_square_integral(vp, pb), 0.0))
    scale = (max(abs(lam_a), abs(lam_b), 1.0) * na * nb
             + scal * (abs(fa.r1 * fb.r1p) + abs(fa.r1p * fb.r1)) + 1e-300)

    jump_worst = 0.0
    for i, h in enumerate(vp.interfaces):
        wm = _wronskian_side(pa, pb, h, "left")
        wp = _wronskian_side(pa, pb, h, "right")
        d2 = vp.jumps[i] ** 2
        denom = max(abs(wm), d2 * abs(wp), 1e-300)
        jump_worst = max(jump_worst, abs(wm - d2 * wp) / denom)

    ua, dua = pa.boundary_state("left")
    ub, dub = pb.boundary_state("left")
    w_left = ua * dub - dua * ub

    u1a, du1a = pa.boundary_state("right")
    u1b, du1b = pb.boundary_state("right")
    rform = r_form_identity_residual(vp, u1a, du1a, u1b, du1b)
    rform_scale = max(abs(fa.r1p * fb.r1), abs(fa.r1 * fb.r1p),
                      vp.rho * abs(u1a * du1b) + vp.rho * abs(du1a * u1b), 1e-300)

    return {
        "residual": abs(afg - fag) / scale,
        "afg": afg,
        "fag": fag,
        "scale": scale,
        "quadrature_error": cross_err,
        "wronskian_left": abs(w_left),
        "wronskian_jump_residual": jump_worst,
        "r_form_residual": abs(rform) / rform_scale,
    }


def _wronskian_side(pa, pb, x: float, side: str) -> float:
    ua, dua = pa.eval(x, side)
    ub, dub = pb.eval(x, side)
    return ua * dub - dua * ub


# ----------------------------------------------------------------------
# Expansion / completeness
# ----------------------------------------------------------------------

@dataclass
class ExpansionResult:
    """Coefficients of F against the eigenvector family and residual curve.

    residuals[k] is the space-norm distance between F and the partial sum
    through the first k+1 eigenvectors, computed through the Gram quadratic
    form so near-orthonormality errors are accounted for rather than assumed
    away. parseval_ratio is sum c_n^2 / ||F||^2.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    norm_sq: float
    gram: np.ndarray
    elements: list = field(repr=False, default_factory=list)

    @property
    def parseval_ratio(self) -> float:
        return float(np.sum(self.coefficients ** 2) / self.norm_sq)

    def reconstruct(self, x, n_terms: int | None = None):
        """Function part of the partial sum at points x."""
        n = len(self.coefficients) if n_terms is None else n_terms
        xs = np.asarray(x, dtype=float)
        out = np.zeros_like(np.atleast_1d(xs))
        for c, el in zip(self.coefficients[:n], self.elements[:n]):
            out += c * el.values(xs)
        return out if xs.ndim else float(out[0])

    def scalar_part(self, n_terms: int | None = None) -> float:
        n = len(self.coefficients) if n_terms is None else n_terms
        return float(sum(c * el.f1 for c, el in
                         zip(self.coefficients[:n], self.elements[:n])))


def expand(problem, F: HElement, eigenpairs, *,
           rel_tol: float = 1e-11) -> ExpansionResult:
    """Expand F over normalized eigenvectors and track the residual curve.

    c_n = <F, Phi_n>; the distance to the partial sum through N terms is
    sqrt(||F||^2 - 2 sum c_n^2 + c^T G c) with G the computed Gram matrix,
    clamped at zero against quadrature noise.
    """
    vp = as_validated(problem)
    elems = [e if isinstance(e, HElement) else HElement.from_eigenpair(e)
             for e in eigenpairs]
    norm_sq, _ = h_inner_product(vp, F, F, rel_tol=rel_tol)
    coeffs = np.array([h_inner_product(vp, F, el, rel_tol=rel_tol)[0]
                       for el in elems])
    gram = gram_matrix(vp, elems)

    residuals = np.empty(len(elems))
    for k in range(1, len(elems) + 1):
        ck = coeffs[:k]
        r2 = norm_sq - 2.0 * float(ck @ ck) + float(ck @ gram[:k, :k] @ ck)
        residuals[k - 1] = np.sqrt(max(r2, 0.0))
    return ExpansionResult(coefficients=coeffs, residuals=residuals,
                           norm_sq=norm_sq, gram=gram, elements=elems)
