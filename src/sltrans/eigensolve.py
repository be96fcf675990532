"""Eigenvalue enumeration and eigenvector construction.

The eigenvalues are exactly the zeros of the characteristic function, they
are real and simple, and they are bounded below; their number below any
lambda, N(lambda), is exact (:func:`sltrans.characteristic.eigenvalue_count`).
That shapes the solver:

1. take a floor with N(floor) = 0 and a top with N(top) >= n_max,
2. scan omega over a grid that is uniform in s = sqrt(lambda) for
   lambda >= 0 (roots space out like pi/2 in s) and uniform in lambda on
   the negative tail, and refine all sign-change brackets together by
   vectorized bisection (one batched omega evaluation per iteration),
3. if the roots found do not number N(top), bisect on N where they disagree
   until each part holds one eigenvalue (a close pair in one scan cell
   shows no sign change), and refine those parts the same way,
4. for each root :func:`build_eigenpair`, the one normalisation routine,
   builds the left solution, the ratio linking it to the right solution,
   the derivative of omega, the norm-identity diagnostics (the
   weighted square integral of phi, :func:`sltrans.hilbert.weighted_square_integral`:
   exact in O(1) on each constant piece, :mod:`sltrans.quadrature`'s rule
   on the others), and a normalized eigenvector. That takes two
   transmission chains per root (the dense phi and chi); omega at the root
   is read from phi's end state, and omega' of all roots comes from one
   batched tangent chain (:func:`sltrans.characteristic.omega_derivative`).

So the roots returned are certified to be lambda_0 ... lambda_{n-1}; when
they cannot be, SuspectedMissedRoot carries both counts and the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import asymptotics
from .characteristic import eigenvalue_count, omega, omega_derivative, real_lambda
from .hilbert import r1_form, r1p_form, weighted_square_integral
from .ode import PiecewiseSolution, shoot_chi, shoot_phi
from .problem import as_validated, classify_case
from .propagator import boundary_form
# fixed_quad is no longer called here, but perfbench/tracing.py wraps
# eigensolve.fixed_quad by name, so the name stays importable.
from .quadrature import fixed_quad  # noqa: F401

S_SCAN_STEP = np.pi / 16.0
NEG_SCAN_STEP = 0.5
K_SAMPLES = 24  # k_ratio's interior sample points per subinterval
SCALE_WINDOW = 16  # scan samples behind ScanResult.local_scale
MAX_BISECTIONS = 90  # bisection steps of one refinement batch, at most


class LostBracket(RuntimeError):
    """A bracket handed to refinement no longer straddles a sign change."""


class SuspectedMissedRoot(RuntimeError):
    """The roots found disagree with the eigenvalue count N: N puts
    `expected` eigenvalues in `interval`, the solver has `found` there."""

    def __init__(self, message: str, *, expected=None, found=None, interval=None):
        super().__init__(message)
        self.expected, self.found, self.interval = expected, found, interval


class DegeneratePhi(RuntimeError):
    """The left solution vanished identically on the sample grid."""


# ----------------------------------------------------------------------
# Scanning
# ----------------------------------------------------------------------

@dataclass
class ScanResult:
    """Grid samples of omega plus the brackets and exact-zero notes found in them."""

    lams: np.ndarray
    omegas: np.ndarray
    brackets: list
    suspicious: list

    def local_scale(self, lam: float) -> float:
        """Median |omega| among the SCALE_WINDOW scan samples nearest lam:
        the mean of the middle two (the middle one for an odd count), as
        np.median."""
        i = int(np.searchsorted(self.lams, lam))
        lo = max(0, i - SCALE_WINDOW // 2)
        hi = min(len(self.lams), lo + SCALE_WINDOW)
        lo = max(0, hi - SCALE_WINDOW)
        s = np.sort(np.abs(self.omegas[lo:hi]))
        n = len(s)
        return float((s[(n - 1) // 2] + s[n // 2]) / 2)


def default_lambda_floor(problem) -> float:
    """Seed for the scan floor and its negative grid, from the potential
    magnitude and the boundary data sizes; find_eigenvalues doubles it until
    validate_floor holds."""
    vp = as_validated(problem)
    bc = (abs(vp.alpha1) / max(abs(vp.alpha2), 1.0)
          + abs(vp.beta1) + abs(vp.beta2) + abs(vp.beta1p) + abs(vp.beta2p))
    return -(2.0 * vp.max_potential_bound() + bc * bc + 10.0)


def validate_floor(problem, lam_floor: float, *, rtol: float = 1e-12) -> bool:
    """True when no eigenvalue lies below lam_floor."""
    return eigenvalue_count(problem, lam_floor, rtol=rtol) == 0


def _scan_grid(s_max: float, lam_floor: float) -> np.ndarray:
    n_neg = max(8, int(np.ceil(abs(lam_floor) / NEG_SCAN_STEP)))
    neg = np.linspace(lam_floor, 0.0, n_neg, endpoint=False)
    n_pos = int(np.ceil(s_max / S_SCAN_STEP)) + 1
    pos = (np.arange(n_pos + 1) * S_SCAN_STEP) ** 2
    return np.concatenate([neg, pos])


def bracket_scan(problem, s_max: float, lam_floor: float | None = None, *,
                 rtol: float = 1e-12) -> ScanResult:
    """Find all sign-change brackets of omega on [lam_floor, s_max^2].

    The positive side is sampled uniformly in s with step pi/16 (four
    points per asymptotic half-gap); the negative side uniformly in lambda.
    A grid point that hits an exact zero without a sign change around it
    is reported in `suspicious`.
    """
    vp = as_validated(problem)
    if s_max <= 0:
        raise ValueError("s_max must be positive")
    if lam_floor is None:
        lam_floor = default_lambda_floor(vp)
    if lam_floor >= 0:
        raise ValueError("lam_floor must be negative")

    lams = _scan_grid(s_max, lam_floor)
    oms = np.asarray(omega(vp, lams, rtol=rtol))

    return ScanResult(lams, oms, *_sift(vp, lams, oms, rtol))


def _sift(vp, lams, oms, rtol):
    """Extract sign-change brackets and exact zeros from scan samples."""
    sgn = np.sign(oms)
    brackets = []
    suspicious = []

    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        brackets.append((float(lams[i]), float(lams[i + 1])))

    # A grid point landing exactly on a zero: bracket it against both
    # neighbors if possible, otherwise flag it.
    for i in np.nonzero(sgn == 0)[0]:
        left = lams[i - 1] if i > 0 else lams[i] - 1e-6
        right = lams[i + 1] if i + 1 < len(lams) else lams[i] + 1e-6
        fl, fr = omega(vp, np.array([left, right]), rtol=rtol)
        if fl * fr < 0:
            brackets.append((float(left), float(right)))
        else:
            suspicious.append({"lam": float(lams[i]), "omega": 0.0,
                               "note": "exact zero on grid, no sign change around"})
    brackets.sort(key=lambda br: 0.5 * (br[0] + br[1]))
    return brackets, suspicious


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------

def _refine_batch(vp, brackets, *, rel_tol: float = 1e-12,
                  rtol: float = 1e-12) -> np.ndarray:
    """Bisection on all brackets at once; one batched omega call per step.

    Raises LostBracket if a bracket's endpoints no longer straddle a sign
    change (integrator noise near a tangential dip can do that).
    """
    if not brackets:
        return np.empty(0)
    la = np.array([b[0] for b in brackets], dtype=float)
    lb = np.array([b[1] for b in brackets], dtype=float)
    fa = np.asarray(omega(vp, la, rtol=rtol))
    fb = np.asarray(omega(vp, lb, rtol=rtol))
    bad = fa * fb > 0
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise LostBracket(
            f"omega has the same sign at both ends of [{la[k]}, {lb[k]}]")
    sa = np.sign(fa)
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (la + lb)
        fm = np.asarray(omega(vp, mid, rtol=rtol))
        ms = np.sign(fm)
        exact = ms == 0
        go_left = ms == sa
        la = np.where(go_left, mid, la)
        lb = np.where(go_left, lb, mid)
        la = np.where(exact, mid, la)
        lb = np.where(exact, mid, lb)
        if np.all(lb - la <= rel_tol * np.maximum(1.0, np.abs(mid))):
            break
    return 0.5 * (la + lb)


def _isolate(vp, lo, hi, roots, expected, rtol):
    """Halve the parts of [lo, hi] where the roots found disagree with N,
    one batched N call per level, until each holds at most one eigenvalue.

    Returns the final parts, whose roots found are void, and as brackets
    those holding one eigenvalue: omega changes sign across a simple root.
    """
    parts = [(lo, hi, 0, expected)]
    void, brackets = [], []
    for _ in range(100):
        parts = [p for p in parts if p[3] - p[2] != int(
            np.searchsorted(roots, p[1]) - np.searchsorted(roots, p[0]))]
        void += [(a, b) for a, b, na, nb in parts if nb - na <= 1]
        brackets += [(a, b) for a, b, na, nb in parts if nb - na == 1]
        parts = [p for p in parts if p[3] - p[2] > 1]
        if not parts:
            return void, brackets
        mids = np.array([0.5 * (a + b) for a, b, _, _ in parts])
        n_mid = eigenvalue_count(vp, mids, rtol=rtol).tolist()
        parts = [q for (a, b, na, nb), m, nm in zip(parts, mids, n_mid)
                 for q in ((a, m, na, nm), (m, b, nm, nb))]
    a, b, na, nb = parts[0]
    raise SuspectedMissedRoot(
        f"{nb - na} eigenvalues in [{a}, {b}] do not separate by bisection",
        expected=nb - na, found=0, interval=(float(a), float(b)))


# ----------------------------------------------------------------------
# Per-root construction
# ----------------------------------------------------------------------

@dataclass
class Eigenpair:
    """One eigenvalue with its normalized eigenvector and diagnostics.

    n is the position in the sorted list (0-based); n_formula is the index
    the first-order root-location formula assigns to this root (None for
    negative eigenvalues, which the formula does not cover). phi is scaled
    so the augmented vector (phi, R1'(phi)) has unit norm in the weighted
    space; scalar is that R1'(phi) value after scaling. k_ratio is the
    factor k with chi = k * phi linking the canonical right solution to the
    canonical left one: least squares over K_SAMPLES interior points of each
    subinterval, weighted like the space's inner product. k_spread is the
    relative spread of the pointwise ratios chi/phi over the samples where
    |phi| is at least a tenth of its maximum; at a true eigenvalue it
    vanishes with the root tolerance, away from one it is O(1).
    norm_constant is the signed factor taking the canonical left solution
    to phi. residuals holds the defects listed in :func:`build_eigenpair`.
    """

    n: int
    lam: float
    s: float | None
    phi: PiecewiseSolution
    scalar: float
    k_ratio: float
    k_spread: float
    omega_prime: float
    omega_scale: float
    margin: float
    n_formula: int | None
    norm_constant: float
    residuals: dict = field(default_factory=dict)


def _ratio_points(vp) -> np.ndarray:
    """K_SAMPLES interior points of each subinterval, in order.

    They depend on the problem only, so they are built once and kept,
    read-only, in ``vp.memo``.
    """
    xs = vp.memo.get("ratio_points")
    if xs is None:
        xs = np.concatenate([np.linspace(a, b, K_SAMPLES + 2)[1:-1]
                             for a, b in vp.subintervals()])
        xs.setflags(write=False)
        vp.memo["ratio_points"] = xs
    return xs


def _ratio_from_values(vp, pv, cv):
    """Eigenpair's (k_ratio, k_spread) from phi and chi at :func:`_ratio_points`."""
    num = 0.0
    den = 0.0
    for j, wj in enumerate(vp.weights):
        part = slice(j * K_SAMPLES, (j + 1) * K_SAMPLES)
        pu, cu = pv[part], cv[part]
        num += wj * float(pu @ cu)
        den += wj * float(pu @ pu)
    pmax = float(np.max(np.abs(pv)))
    if pmax <= 1e-300 or den == 0.0:
        raise DegeneratePhi("left solution is numerically zero on the sample grid")
    k = num / den
    big = np.abs(pv) >= 0.1 * pmax
    ratios = cv[big] / pv[big]
    spread = float(np.max(np.abs(ratios - k))) / max(abs(k), 1e-300)
    return float(k), spread


def build_eigenpair(problem, lam: float, *, n: int = -1,
                    scan: ScanResult | None = None, rtol: float = 1e-12,
                    omega_prime: float | None = None) -> Eigenpair:
    """Assemble the full Eigenpair record at lam, normally a refined root.

    Any lam gives the record, so its k_spread and residuals also tell how
    far lam is from an eigenvalue. Three transmission chains: phi, chi and
    omega' (:func:`sltrans.characteristic.omega_derivative` at lam), unless
    the caller passes omega_prime from a batch over all its roots, as
    :func:`find_eigenvalues` does. phi and chi are evaluated at k_ratio's points
    only (K_SAMPLES interior points of each subinterval); the weighted
    square integral of phi is
    :func:`sltrans.hilbert.weighted_square_integral`, exact on constant
    pieces. omega_at_root comes from phi's end state (omega()'s bits on
    constant q).

    The norm identity: at an eigenvalue, sum_j w_j int phi^2 equals
    omega'(lam)/k - (prod delta_i^2 / k) * R1'(phi), with k the
    proportionality factor between chi and phi; residuals["norm_identity"]
    is its relative defect. A circulating variant that scales omega' by the
    squared jump product as well, (prod delta_i^2 / k) * (omega' - R1'(phi)),
    disagrees with the symbolic evaluation on the simplest closed-form case
    whenever a jump factor differs from 1; its defect is
    residuals["norm_identity_jump_scaled_variant"], and the defect of the
    substitution R1'(phi) * k = rho is residuals["k_substitution"].
    """
    vp = as_validated(problem)
    lam = float(real_lambda(lam))
    s = float(np.sqrt(lam)) if lam >= 0.0 else None

    phi = shoot_phi(vp, lam, rtol=rtol)
    chi = shoot_chi(vp, lam, rtol=rtol)
    xs = _ratio_points(vp)
    k, spread = _ratio_from_values(vp, phi.u(xs), chi.u(xs))
    omp = omega_derivative(vp, lam, rtol=rtol) if omega_prime is None else omega_prime
    u1, du1 = phi.boundary_state("right")
    r1p_phi = r1p_form(vp, u1, du1)
    lhs = weighted_square_integral(vp, phi)
    d2 = vp.delta_sq_prod

    rhs = omp / k - (d2 / k) * r1p_phi
    rhs_scaled = (d2 / k) * (omp - r1p_phi)
    om_here = float(d2 * boundary_form(vp, lam, *phi.right_states[-1]))
    r1_phi = r1_form(vp, u1, du1)

    bc_scale = (abs(lam * vp.beta1p * u1) + abs(vp.beta1 * u1)
                + abs(lam * vp.beta2p * du1) + abs(vp.beta2 * du1) + 1e-300)
    um, dum = phi.boundary_state("left")
    left_scale = max(abs(vp.alpha1 * um), abs(vp.alpha2 * dum),
                     abs(um) + abs(dum), 1e-300)

    nsq = lhs + (d2 / vp.rho) * r1p_phi ** 2
    if nsq <= 0.0 or not np.isfinite(nsq):
        raise DegeneratePhi(f"norm^2 = {nsq} is not positive")
    c = 1.0 / np.sqrt(nsq)
    lead = um if um != 0.0 else dum
    if lead < 0:
        c = -c
    phi_n = phi.scaled(c)

    scale_local = scan.local_scale(lam) if scan is not None else float("nan")
    margin = abs(omp) / scale_local if scan is not None and scale_local > 0 else float("inf")
    n_formula = asymptotics.nearest_index(vp, s) if s is not None else None

    residuals = {
        "omega_at_root": om_here,
        # |omega| over the change of omega across one relative-width unit
        # of lambda: an estimate of the relative root error, comparable
        # against the refinement tolerance regardless of omega's scale.
        "omega_scaled": abs(om_here) / max(abs(omp) * max(1.0, abs(lam)),
                                           1e-300),
        "bc_right": abs(lam * r1p_phi + r1_phi) / bc_scale,
        "bc_left": abs(vp.alpha1 * um + vp.alpha2 * dum) / left_scale,
        "transmission": phi.transmission_residual(),
        "norm_identity": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
        "norm_identity_jump_scaled_variant":
            abs(lhs - rhs_scaled) / max(abs(lhs), abs(rhs_scaled), 1e-300),
        "k_substitution": abs(r1p_phi * k - vp.rho) / abs(vp.rho),
    }
    return Eigenpair(n=n, lam=lam, s=s, phi=phi_n, scalar=c * r1p_phi,
                     k_ratio=k, k_spread=spread, omega_prime=omp,
                     omega_scale=scale_local, margin=margin,
                     n_formula=n_formula, norm_constant=c,
                     residuals=residuals)


# ----------------------------------------------------------------------
# Top-level enumeration
# ----------------------------------------------------------------------

def find_eigenvalues(problem, n_max: int, *, rtol: float = 1e-12,
                     root_rel_tol: float = 1e-14) -> list[Eigenpair]:
    """First n_max eigenvalues in ascending order, fully diagnosed.

    The floor doubles from its formula seed until no eigenvalue lies below
    it (or the count overflows: NonFiniteState); the scan range starts from
    the asymptotic spacing and grows by 4 pi in s until N(top) >= n_max.

    root_rel_tol defaults well below the documented 1e-12 contract because
    the boundary-condition residuals of the eigenfunctions inherit the root
    error; the extra bisection steps are cheap.
    """
    vp = as_validated(problem)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    floor = default_lambda_floor(vp)
    while not validate_floor(vp, floor, rtol=rtol):
        floor *= 2.0
    s_max = asymptotics._base_angle(classify_case(vp), n_max + 2) / 2.0 + 1.0
    top = _scan_grid(s_max, floor)[-1]
    while (expected := eigenvalue_count(vp, top, rtol=rtol)) < n_max:
        s_max += 4.0 * np.pi
        top = _scan_grid(s_max, floor)[-1]

    scan = bracket_scan(vp, s_max, floor, rtol=rtol)
    roots = np.sort(_refine_batch(vp, scan.brackets, rel_tol=root_rel_tol,
                                  rtol=rtol))
    if len(roots) != expected:
        void, brackets = _isolate(vp, floor, top, roots, expected, rtol)
        keep = [lam for lam in roots if not any(a <= lam < b for a, b in void)]
        extra = _refine_batch(vp, brackets, rel_tol=root_rel_tol, rtol=rtol)
        roots = np.sort(np.concatenate([keep, extra]))
        if len(roots) != expected:
            raise SuspectedMissedRoot(
                f"{len(roots)} roots found on [{floor}, {top}] where the "
                f"eigenvalue count is {expected}",
                expected=expected, found=len(roots),
                interval=(floor, float(top)))

    roots = roots[:n_max]
    slopes = omega_derivative(vp, roots, rtol=rtol)
    return [build_eigenpair(vp, lam, n=i, scan=scan, rtol=rtol, omega_prime=float(omp))
            for i, (lam, omp) in enumerate(zip(roots, slopes))]
