"""The weighted direct-sum space the eigenvectors live in.

Elements are pairs (f, f1): a piecewise function on [-1, 1] and one real
scalar. The inner product weights subinterval j by w_j (w_0 = 1, each
interface multiplies by the squared jump factor) and the scalar slot by
prod(delta_i^2) / rho. Against this product the boundary-value problem
becomes symmetric, eigenvectors of distinct eigenvalues are orthogonal, and
the augmented eigenvectors (phi_n, R1'(phi_n)) form a complete orthonormal
family after normalization.

The module provides the inner product (with a quadrature error estimate),
the weighted square integral of a shot solution, the two right-boundary
forms R1 and R1', Gram matrices, a symmetry (Green's identity) diagnostic,
and the expansion / completeness check; :func:`_gram` gives every inner
product of elements. Every integral over a subinterval, in a Gram matrix
and in the eigenvector normalisation alike, comes from one self-checking
grid, :func:`_settled_gram`: the rule of :mod:`sltrans.quadrature`, doubled
until every entry settles. The one exception is a shot solution on a
constant-q piece, whose square integral of A cos kt + B sin kt (or its
hyperbolic twin) is exact in O(1) (:func:`constant_square_integrals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ode import ConstantSegment, shoot_phi
from .problem import as_validated
from .propagator import cos_sinc
# fixed_quad is not called here; perfbench/tracing.py wraps it by this name.
from .quadrature import fixed_quad  # noqa: F401
from .quadrature import QUAD_NODES, QuadratureNotConverged, panel_nodes, panels_for

MAX_QUAD_DOUBLINGS = 8
QUAD_REL_TOL = 1e-11
QUAD_ABS_TOL = 1e-14
# The most element values one Gram grid may hold (8 bytes each); a finer
# grid is refused before it is sampled.
MAX_GRAM_VALUES = 2 ** 24
# R(z) = (1 - S(4z)) / (-z) is summed as its series for |z| up to
# _SERIES_Z, where the closed form would lose digits to cancellation;
# above _EVANESCENT_Z a constant segment integrates its exponential form.
_SERIES_Z = 1.0
_EVANESCENT_Z = 1.0
# Coefficients of R's series sum_{n >= 1} 4^n z^(n-1) / (2n+1)!, in
# ascending powers of z; the last term is below 1e-22 for |z| <= 1.
_R_SERIES = tuple(4.0 ** n / math.factorial(2 * n + 1) for n in range(1, 15))


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


# ----------------------------------------------------------------------
# Elements
# ----------------------------------------------------------------------

def _finite(**fields) -> None:
    """Raise ValueError for the first field, a float or a tuple of them,
    holding a value that is not finite."""
    for name, value in fields.items():
        for v in value if isinstance(value, tuple) else (value,):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


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
        if not coeffs:
            raise ValueError("coeffs must hold at least one coefficient")
        f1 = float(f1)
        _finite(coeffs=coeffs, f1=f1)

        def f(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

        return cls(f=f, f1=f1, freq_hint=float(len(coeffs)),
                   label=f"poly{coeffs}")

    @classmethod
    def bump(cls, center: float, halfwidth: float, amplitude: float = 1.0,
             f1: float = 0.0) -> "HElement":
        """Smooth bump supported on (center - halfwidth, center + halfwidth)."""
        c, hw, amp, f1 = float(center), float(halfwidth), float(amplitude), float(f1)
        _finite(center=c, halfwidth=hw, amplitude=amp, f1=f1)
        if hw <= 0:
            raise ValueError("halfwidth must be positive")

        def f(x):
            t = (np.asarray(x, dtype=float) - c) / hw
            out = np.zeros_like(t)
            inside = np.abs(t) < 1.0
            ti = t[inside]
            out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - ti * ti))
            return out

        return cls(f=f, f1=f1, freq_hint=8.0 / hw,
                   label=f"bump({c},{hw})")

    @classmethod
    def scalar_only(cls, f1: float) -> "HElement":
        _finite(f1=float(f1))

        def f(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return cls(f=f, f1=float(f1), freq_hint=0.0, label=f"scalar({f1})")


# ----------------------------------------------------------------------
# Inner product and Gram matrix
# ----------------------------------------------------------------------

def h_inner_product(problem, F: HElement, G: HElement):
    """<F, G>: weighted integrals over every subinterval plus the scalar term.

    Returns (value, error_estimate), entry [0, 1] of the Gram routine on
    (F, G). Its grid must settle on <F, F> and <G, G> as well as on
    <F, G>; raises QuadratureNotConverged if any of them refuses to.
    """
    gram, err = _gram(as_validated(problem), [F, G])
    return float(gram[0, 1]), float(err[0, 1])


def weighted_square_integral(problem, sol) -> float:
    """sum_j w_j int_j u^2 for a piecewise solution, scale included.

    Constant segments integrate in closed form, all of them in one
    :func:`constant_square_integrals` call. Every other subinterval takes
    the Gram matrix's self-checking grid, :func:`_settled_gram` on u with
    frequency hint sqrt|lambda|. A shot solution has a
    :class:`~sltrans.ode.ConstantSegment` exactly on the pieces where
    ``piece.is_constant``, as the propagator chooses.
    """
    vp = as_validated(problem)
    const = [isinstance(seg, ConstantSegment) for seg in sol.segments]
    u = [HElement(f=sol.u, freq_hint=np.sqrt(abs(sol.lam)))]
    total = 0.0
    for (a, b), wj, c in zip(vp.subintervals(), vp.weights, const):
        if not c:
            total += wj * float(_settled_gram(a, b, u)[0][0, 0])
    if any(const):
        a, b, w, u0, du0 = np.array([(seg.a, seg.b, seg.w, seg.u0, seg.du0)
                                     for seg, c in zip(sol.segments, const)
                                     if c]).T
        parts = constant_square_integrals(a, b, w, sol.scale * u0,
                                          sol.scale * du0)
        total += float(np.dot(np.asarray(vp.weights)[const], parts))
    return total


def constant_square_integrals(a, b, w, u0, du0) -> np.ndarray:
    """int u^2 over the interval between a and b (either order), where
    u'' = w u with (u, u') = (u0, du0) at a; vectorised over segments,
    one integral each (a 1-D array).

    With L = b - a and z = w L^2 the integral is
    u0^2 |L|/2 (1 + S(4z)) + u0 du0 sign(L) L^2 S(z)^2 + du0^2 |L|^3/2 R(z),
    S being :func:`sltrans.propagator.cos_sinc`'s second output and
    R(z) = (1 - S(4z)) / (-z), summed as its series near 0. For z > 1 the
    three terms cancel, so there u = P e^{kt} + Q e^{-kt} with k = sqrt(w)
    and P, Q = (u0 +- du0/k) / 2 integrates termwise instead: with G the
    amplitude that grows along the segment, D the other and y = k |L|, it
    is ((G e^y)^2 + D^2)(1 - e^{-2y}) / (2k) + 2 P Q |L|, which overflows
    only where (G e^y)^2, about u^2 at the far end, does.
    """
    L, w, u0, du0 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (np.subtract(b, a), w, u0, du0)))
    z = w * L * L
    ev = z > _EVANESCENT_Z
    if not ev.any():
        return _oscillatory_square(L, z, u0, du0)
    out = np.empty_like(z)
    osc = ~ev
    out[osc] = _oscillatory_square(L[osc], z[osc], u0[osc], du0[osc])
    out[ev] = _evanescent_square(L[ev], w[ev], u0[ev], du0[ev])
    return out


def _oscillatory_square(L, z, u0, du0):
    _, (S1, S4) = cos_sinc(np.stack([z, 4.0 * z]))
    near = np.abs(z) <= _SERIES_Z
    if near.any():
        zn, R = np.where(near, z, 0.0), 0.0
        for c in reversed(_R_SERIES):
            R = R * zn + c
        np.divide(1.0 - S4, -z, out=R, where=~near)
    else:
        R = (1.0 - S4) / -z
    La = np.abs(L)
    return (0.5 * La * (u0 * u0 * (1.0 + S4) + du0 * du0 * L * L * R)
            + u0 * du0 * L * La * S1 * S1)


def _evanescent_square(L, w, u0, du0):
    k = np.sqrt(w)
    y = k * np.abs(L)
    p = 0.5 * (u0 + du0 / k)
    q = 0.5 * (u0 - du0 / k)
    forward = L >= 0.0
    g = np.where(forward, p, q) * np.exp(y)
    d = np.where(forward, q, p)
    return (g * g + d * d) * -np.expm1(-2.0 * y) / (2.0 * k) + 2.0 * p * q * np.abs(L)


def gram_matrix(problem, elements) -> np.ndarray:
    """All pairwise inner products.

    Accepts eigenpairs or HElements (eigenpairs are wrapped). They share
    :func:`_gram`'s grids, so each grid costs one sample per element and
    one matrix product.
    """
    elems = [e if isinstance(e, HElement) else HElement.from_eigenpair(e)
             for e in elements]
    if not elems:
        return np.zeros((0, 0))
    return _gram(as_validated(problem), elems)[0]


def _gram(vp, elems):
    """The Gram matrix of elems, :func:`_settled_gram` summed over the
    weighted subintervals plus the scalar slot, and an elementwise error
    estimate, the same sum of its last moves."""
    gram, err = np.zeros((2, len(elems), len(elems)))
    for (a, b), wj in zip(vp.subintervals(), vp.weights):
        cur, gap = _settled_gram(a, b, elems)
        gram += wj * cur
        err += wj * gap
    scal = np.array([e.f1 for e in elems])
    gram += (vp.delta_sq_prod / vp.rho) * np.outer(scal, scal)
    return gram, err


def _settled_gram(a, b, elems):
    """(int_a^b e_i e_k) of elems on its first settled grid, and the last
    move of each entry.

    The grid starts at :func:`panels_for`'s count for twice the top
    frequency hint and doubles until every entry moves less than
    QUAD_REL_TOL relative or QUAD_ABS_TOL absolute, at most
    MAX_QUAD_DOUBLINGS times; a grid past MAX_GRAM_VALUES values is refused
    before it is sampled."""
    freq = 2.0 * max(e.freq_hint for e in elems)
    if not freq < math.inf:
        raise QuadratureNotConverged(f"no finite grid resolves frequency {freq}")
    panels, prev = panels_for(a, b, freq), np.inf  # nothing to agree with yet
    for _ in range(MAX_QUAD_DOUBLINGS + 1):
        if len(elems) * panels * QUAD_NODES > MAX_GRAM_VALUES:
            raise QuadratureNotConverged(
                f"a Gram grid of {panels:.3g} panels on [{a}, {b}] would "
                f"hold more than {MAX_GRAM_VALUES} element values")
        x, w = panel_nodes(a, b, panels, QUAD_NODES)
        vals = np.vstack([e.values(x) for e in elems])
        cur = (vals * w) @ vals.T
        gap = np.abs(cur - prev)
        if (gap <= np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(cur))).all():
            return cur, gap
        prev, panels = cur, 2 * panels
    raise QuadratureNotConverged(
        f"Gram entries on [{a}, {b}] still moving by up to "
        f"{gap.max():.3e} after {MAX_QUAD_DOUBLINGS} doublings")


# ----------------------------------------------------------------------
# Symmetry (Green's identity) diagnostic
# ----------------------------------------------------------------------

def greens_identity_residual(problem, lam_a: float, lam_b: float) -> dict:
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
    vp = as_validated(problem)
    pa = shoot_phi(vp, lam_a)
    pb = shoot_phi(vp, lam_b)
    u1a, du1a = pa.boundary_state("right")
    u1b, du1b = pb.boundary_state("right")
    ra, rpa = r1_form(vp, u1a, du1a), r1p_form(vp, u1a, du1a)
    rb, rpb = r1_form(vp, u1b, du1b), r1p_form(vp, u1b, du1b)
    Fa = HElement(f=pa.u, f1=rpa, freq_hint=np.sqrt(abs(lam_a)))
    Fb = HElement(f=pb.u, f1=rpb, freq_hint=np.sqrt(abs(lam_b)))

    cross, cross_err = h_inner_product(vp, Fa, Fb)
    # <AF, G> = lam_a * sum_j w_j int phi_a phi_b - (D2/rho) R1(phi_a) R1'(phi_b)
    scal = vp.delta_sq_prod / vp.rho
    integral = cross - scal * rpa * rpb
    afg = lam_a * integral - scal * ra * rpb
    fag = lam_b * integral - scal * rpa * rb

    na = np.sqrt(max(weighted_square_integral(vp, pa), 0.0))
    nb = np.sqrt(max(weighted_square_integral(vp, pb), 0.0))
    scale = (max(abs(lam_a), abs(lam_b), 1.0) * na * nb
             + scal * (abs(ra * rpb) + abs(rpa * rb)) + 1e-300)

    jump_worst = 0.0
    for i, d in enumerate(vp.jumps):
        # The chained states at h_i - 0 and h_i + 0 (the shots are unscaled).
        wm = _wronskian(pa.right_states[i], pb.right_states[i])
        wp = _wronskian(pa.left_states[i + 1], pb.left_states[i + 1])
        d2 = d ** 2
        denom = max(abs(wm), d2 * abs(wp), 1e-300)
        jump_worst = max(jump_worst, abs(wm - d2 * wp) / denom)

    ua, dua = pa.boundary_state("left")
    ub, dub = pb.boundary_state("left")
    w_left = ua * dub - dua * ub

    rform = r_form_identity_residual(vp, u1a, du1a, u1b, du1b)
    rform_scale = max(abs(rpa * rb), abs(ra * rpb),
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


def _wronskian(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


# ----------------------------------------------------------------------
# Expansion / completeness
# ----------------------------------------------------------------------

@dataclass
class ExpansionResult:
    """Coefficients of F against the eigenvector family and residual curve.

    residuals[k] is the space-norm distance between F and the partial sum
    through the first k+1 eigenvectors, computed through the Gram quadratic
    form so near-orthonormality errors are accounted for rather than assumed
    away. parseval_ratio is sum c_n^2 / ||F||^2, a ValueError when ||F|| = 0.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    norm_sq: float
    gram: np.ndarray
    elements: list = field(repr=False, default_factory=list)

    @property
    def parseval_ratio(self) -> float:
        if not self.norm_sq > 0.0:
            raise ValueError(f"the target has norm^2 {self.norm_sq!r}, so it "
                             "has no Parseval ratio")
        return float(np.sum(self.coefficients ** 2) / self.norm_sq)

    def reconstruct(self, x, n_terms: int | None = None):
        """Function part of the partial sum at points x."""
        n = len(self.coefficients) if n_terms is None else n_terms
        xs = np.asarray(x, dtype=float)
        out = np.zeros_like(np.atleast_1d(xs))
        for c, el in zip(self.coefficients[:n], self.elements[:n]):
            out += c * el.values(xs)
        return out if xs.ndim else float(out[0])


def expand(problem, F: HElement, eigenpairs) -> ExpansionResult:
    """Expand F over normalized eigenvectors and track the residual curve.

    One Gram matrix of [F, Phi_0, ...] gives ||F||^2, c_n = <F, Phi_n> and
    the eigenvectors' G; the distance to the partial sum through N terms,
    sqrt(||F||^2 - 2 sum c_n^2 + c^T G c), is clamped at zero against rounding.
    """
    vp = as_validated(problem)
    elems = [e if isinstance(e, HElement) else HElement.from_eigenpair(e)
             for e in eigenpairs]
    full, _ = _gram(vp, [F, *elems])
    norm_sq, coeffs, gram = float(full[0, 0]), full[0, 1:], full[1:, 1:]

    residuals = np.empty(len(elems))
    for k in range(1, len(elems) + 1):
        ck = coeffs[:k]
        r2 = norm_sq - 2.0 * float(ck @ ck) + float(ck @ gram[:k, :k] @ ck)
        residuals[k - 1] = np.sqrt(max(r2, 0.0))
    return ExpansionResult(coefficients=coeffs, residuals=residuals,
                           norm_sq=norm_sq, gram=gram, elements=elems)
