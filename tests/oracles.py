"""Independent closed-form references for the test suite.

Everything in this file is computed with scalar math/cmath only. None of
the package's propagation, quadrature, or root-finding code is imported,
so agreement between the two sides is evidence, not self-confirmation.
"""

from __future__ import annotations

import cmath
import math

# ----------------------------------------------------------------------
# Canonical q = 0 problem: left end clamped, right condition lambda-affine.
#
# With alpha = (1, 0), beta = (0, 1), beta' = (1, 0), a single trivial
# interface (delta = 1), the characteristic function reduces to
#     f(s) = -s sin 2s + cos 2s,   lambda = s^2,
# and there are no negative eigenvalues. The first eight roots below were
# produced by brute_roots on f with a 40001-point grid and 100 bisection
# steps, then frozen; canonical_roots() must keep reproducing them.
# ----------------------------------------------------------------------

FROZEN_CANONICAL_S = (
    0.538436993156,
    1.821798583713,
    3.289166866361,
    4.814780171649,
    6.361149385883,
    7.916805707474,
    9.477340883265,
    11.040737883640,
)


def canonical_f(s: float) -> float:
    return -s * math.sin(2.0 * s) + math.cos(2.0 * s)


def bisect(f, lo: float, hi: float, iters: int = 100) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_roots(f, lo: float, hi: float, n_grid: int = 40001,
                iters: int = 100) -> list[float]:
    """All simple sign-change roots of f on (lo, hi), grid + bisection."""
    step = (hi - lo) / (n_grid - 1)
    roots = []
    xprev = lo
    fprev = f(lo)
    for k in range(1, n_grid):
        x = lo + k * step
        fx = f(x)
        if fx == 0.0:
            roots.append(x)
        elif (fprev > 0) != (fx > 0):
            roots.append(bisect(f, xprev, x, iters))
        xprev, fprev = x, fx
    return roots


def canonical_roots(count: int) -> list[float]:
    """First `count` positive roots of -s sin 2s + cos 2s (in s)."""
    hi = (count + 2) * math.pi / 2.0
    roots = brute_roots(canonical_f, 1e-9, hi)
    if len(roots) < count:
        raise RuntimeError(f"oracle found only {len(roots)} roots below {hi}")
    return roots[:count]


# ----------------------------------------------------------------------
# Constant-potential problems with interfaces: exact state propagation.
#
# On a piece where q = c the equation is u'' = (c - lambda) u, solved by
# u(t) = cosh(r t) u0 + sinh(r t)/r u0' with r = sqrt(c - lambda) taken in
# the complex plane (r imaginary gives the trigonometric branch). The
# characteristic value follows the same construction as the library: shoot
# from x = -1 with (alpha_2, -alpha_1), divide the state by delta_i at each
# interface, and close with the lambda-affine right boundary form times the
# squared product of the jumps.
# ----------------------------------------------------------------------

def _const_step(c: float, lam: float, t: float, u, du):
    w = complex(c - lam)
    z = w * t * t
    if abs(z) < 1e-10:
        ch = 1.0 + z / 2.0 + z * z / 24.0
        shr = t * (1.0 + z / 6.0 + z * z / 120.0)
    else:
        r = cmath.sqrt(w)
        ch = cmath.cosh(r * t)
        shr = cmath.sinh(r * t) / r
    return ch * u + shr * du, w * shr * u + ch * du


def constant_q_omega(lam: float, c: float, interfaces, jumps,
                     alpha, beta, beta_prime) -> float:
    u, du = complex(alpha[1]), complex(-alpha[0])
    x = -1.0
    for h, d in zip(interfaces, jumps):
        u, du = _const_step(c, lam, h - x, u, du)
        u, du = u / d, du / d
        x = h
    u, du = _const_step(c, lam, 1.0 - x, u, du)
    d2 = 1.0
    for d in jumps:
        d2 *= d * d
    val = d2 * ((lam * beta_prime[0] + beta[0]) * u
                - (lam * beta_prime[1] + beta[1]) * du)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise RuntimeError(f"oracle omega unexpectedly complex: {val}")
    return val.real


def constant_q_omega_derivative(lam: float, c: float, interfaces, jumps,
                                alpha, beta, beta_prime) -> float:
    """d/dlambda of constant_q_omega by a complex step.

    The construction is analytic in lambda, so Im omega(lambda + i h) / h
    with a tiny h has no subtractive cancellation: it is exact to round-off.
    """
    step = 1e-150
    lam_c = complex(lam, step)
    u, du = complex(alpha[1]), complex(-alpha[0])
    x = -1.0
    for h, d in zip(interfaces, jumps):
        u, du = _const_step(c, lam_c, h - x, u, du)
        u, du = u / d, du / d
        x = h
    u, du = _const_step(c, lam_c, 1.0 - x, u, du)
    d2 = 1.0
    for d in jumps:
        d2 *= d * d
    val = d2 * ((lam_c * beta_prime[0] + beta[0]) * u
                - (lam_c * beta_prime[1] + beta[1]) * du)
    return val.imag / step


def constant_q_eigenvalues(count: int, c: float, interfaces, jumps,
                           alpha, beta, beta_prime, *,
                           lam_min: float) -> list[float]:
    """First `count` eigenvalues of a constant-q problem, brute force.

    The lambda grid is uniform in s = sqrt(lambda) above zero (roots are
    asymptotically pi/2-spaced in s) and uniform on [lam_min, 0] below.
    Eigenvalues below lam_min are not seen, so there is no default: the
    caller states how deep its spectrum can reach.
    """
    def f(lam: float) -> float:
        return constant_q_omega(lam, c, interfaces, jumps,
                                alpha, beta, beta_prime)

    s_hi = (count + 3) * math.pi / 2.0
    n_pos = 12 * (count + 3) * 4
    grid = [lam_min + k * (0.0 - lam_min) / 800 for k in range(800)]
    grid += [(k * s_hi / n_pos) ** 2 for k in range(1, n_pos + 1)]

    roots = []
    fprev = f(grid[0])
    for k in range(1, len(grid)):
        fk = f(grid[k])
        if fk == 0.0:
            roots.append(grid[k])
        elif (fprev > 0) != (fk > 0):
            roots.append(bisect(f, grid[k - 1], grid[k], 200))
        fprev = fk
    if len(roots) < count:
        raise RuntimeError(f"oracle found only {len(roots)} eigenvalues")
    return roots[:count]
