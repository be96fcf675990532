"""Large-index eigenvalue and eigenfunction approximations.

Four structural cases govern the leading behavior of the characteristic
function and hence where its zeros sit. Each follows from the two flags
(b, a) = AsymptoticCase.value, b = (beta_2' != 0) and a = (alpha_2 != 0):
the left solution is cosine-like, alpha_2 cos(s(x+1)), if a and sine-like,
-alpha_1 sin(s(x+1)) / s, if not; the right boundary form is dominated by
-b2' lambda u'(1) if b and by b1' lambda u(1) if not. That term applied to
that shape is the leading omega, whose zeros put the n-th root at
s = pi (n - (a + b) / 2) / 2. The second-order correction needs three
scalar ingredients: a right-boundary ratio (b1'/b2' if b, -b2/b1' if not),
the left-boundary ratio alpha_1/alpha_2 (0 if not a), and the potential
mean int q / 2. The module also gives the leading shape of the
eigenfunction on each subinterval, including the cumulative 1/delta prefix
that the transmission conditions impose.

Conventions: a transmission jump rescales the solution and its derivative
by the same factor, so the phase of the large-s oscillation passes through
interfaces unchanged and the potential enters the correction as int q / 2
with no jump factor. A circulating variant divides that term by
prod(delta_i); it is available as q_term='jump_scaled' and its error decays
one order slower whenever int q != 0 and prod(delta_i) != 1. The leading
omega terms carry prod(delta_i^2) as documented in their case table; the
amplitude that actually matches omega at large s is prod(delta_i), one
jump factor per crossing surviving against the squared prefactor of the
closing boundary form. Only the zero sets are consumed downstream, and
those do not depend on the prefactor either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import AsymptoticCase, OutOfDomain, as_validated, classify_case, potential_moments


@dataclass(frozen=True)
class EigenvalueEstimate:
    """First- and second-order approximations of the n-th root in s."""

    case: AsymptoticCase
    n: int
    s_first: float
    s_second: float
    ingredients: dict

    @property
    def correction(self) -> float:
        return self.s_second - self.s_first


def _offset(case: AsymptoticCase) -> float:
    """Root offset (a + b) / 2: 1, 1/2, 1/2, 0 for cases 1 to 4."""
    b, a = case.value
    return 0.5 * (a + b)


def _base_angle(case: AsymptoticCase, n: int) -> float:
    """Denominator angle of the n-th root: pi(n-1), pi(n-1/2), or pi n."""
    return np.pi * (n - _offset(case))


def leading_omega(problem, s):
    """Leading term of omega as a function of s (vectorized).

    Case 1:  b2' a2 s^3 D2 sin 2s      Case 2:  b2' a1 s^2 D2 cos 2s
    Case 3:  b1' a2 s^2 D2 cos 2s      Case 4: -b1' a1 s   D2 sin 2s
    with D2 = prod(delta_i^2): the coefficient is b2' if b else b1' times
    a2 if a else a1, the power of s is 1 + a + b, and the sign is negative
    only when neither flag is set. Zero sets: s in {k pi/2} for cases 1
    and 4, {(k + 1/2) pi / 2} for cases 2 and 3.
    """
    vp = as_validated(problem)
    b, a = classify_case(vp).value
    s = np.asarray(s, dtype=float)
    sign = 1.0 if a or b else -1.0
    trig = np.sin if a == b else np.cos
    out = (sign * (vp.beta2p if b else vp.beta1p) * (vp.alpha2 if a else vp.alpha1)
           * s**(1 + a + b) * vp.delta_sq_prod * trig(2 * s))
    return float(out) if out.ndim == 0 else out


def eigenvalue_estimate(problem, n: int, q_term: str = "plain") -> EigenvalueEstimate:
    """Approximate location (in s) of the n-th large root.

    s_first is the half-integer-multiple-of-pi/2 grid value; s_second adds
    the O(1/n) correction built from the boundary ratios and the potential
    mean. q_term picks how the mean enters: 'plain' uses int q / 2 (the
    form consistent with phase continuity across proportional jumps),
    'jump_scaled' divides it by prod(delta_i).
    """
    vp = as_validated(problem)
    case = classify_case(vp)
    b, a = case.value
    angle = _base_angle(case, n)
    if angle == 0.0:
        raise ValueError(f"index n={n} makes the case denominator vanish")
    if q_term not in ("plain", "jump_scaled"):
        raise ValueError(f"unknown q_term {q_term!r}")
    s_first = angle / 2.0

    I0 = potential_moments(vp)["I0"]
    iq = I0 / 2.0 if q_term == "plain" else I0 / (2.0 * vp.delta_prod)

    # classify_case guarantees alpha_2 != 0 if a and beta_2' != 0 if b;
    # without b, rho = beta_1' beta_2 > 0 guarantees beta_1' != 0.
    ingredients = {"I0": I0, "q_mean_term": iq, "q_term": q_term}
    left = 0.0
    if a:
        left = ingredients["alpha1_over_alpha2"] = vp.alpha1 / vp.alpha2
    if b:
        right = ingredients["beta1p_over_beta2p"] = vp.beta1p / vp.beta2p
    else:
        ingredients["beta2_over_beta1p"] = vp.beta2 / vp.beta1p
        right = -ingredients["beta2_over_beta1p"]

    s_second = s_first - ((right + left) - iq) / angle
    return EigenvalueEstimate(case=case, n=n, s_first=float(s_first),
                              s_second=float(s_second), ingredients=ingredients)


def eigenfunction_estimate(problem, n: int, x):
    """Leading shape of the n-th eigenfunction (vectorized over x).

    Cosine-type cases (alpha_2 != 0) give (alpha_2 / prefix_j) cos(w(x+1)/2);
    sine-type cases give -(2 alpha_1 / (prefix_j w)) sin(w(x+1)/2), where
    w is the case's base angle and prefix_j is the product of the jump
    factors left of the subinterval containing x. Interface points resolve
    to the left subinterval.
    """
    vp = as_validated(problem)
    case = classify_case(vp)
    angle = _base_angle(case, n)
    if angle == 0.0:
        raise ValueError(f"index n={n} makes the case angle vanish")

    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs < -1.0) or np.any(xs > 1.0):
        raise OutOfDomain("eigenfunction estimate outside [-1, 1]")

    pre = np.cumprod((1.0, *vp.jumps))[np.searchsorted(vp.interfaces, xs)]
    arg = angle * (xs + 1.0) / 2.0
    _, a = case.value
    if a:
        out = (vp.alpha2 / pre) * np.cos(arg)
    else:
        out = -(2.0 * vp.alpha1 / (pre * angle)) * np.sin(arg)
    return float(out[0]) if scalar else out


def asymptotics_report(problem, eigenpairs, q_term: str = "plain") -> list[dict]:
    """Rows comparing computed roots against both asymptotic orders.

    Each computed eigenpair is matched to the nearest first-order index n;
    rows carry n, the true s, both estimates, and the scaled errors
    n*|s - s_first| and n^2*|s - s_second|. The error of the other q_term
    variant is recorded alongside so the two can be contrasted.
    """
    vp = as_validated(problem)
    other = "jump_scaled" if q_term == "plain" else "plain"
    rows = []
    for eig in eigenpairs:
        if eig.s is None or not np.isfinite(eig.s):
            continue
        n = nearest_index(vp, eig.s)
        if n is None:
            continue
        est = eigenvalue_estimate(vp, n, q_term=q_term)
        alt = eigenvalue_estimate(vp, n, q_term=other)
        err1 = abs(eig.s - est.s_first)
        err2 = abs(eig.s - est.s_second)
        rows.append({
            "n": n,
            "s_true": eig.s,
            "s_first": est.s_first,
            "s_second": est.s_second,
            "n_err1": n * err1,
            "n2_err2": n * n * err2,
            "n2_err2_" + other: n * n * abs(eig.s - alt.s_second),
        })
    return rows


def nearest_index(problem, s: float) -> int | None:
    """Formula index whose first-order root location is closest to s."""
    case = classify_case(problem)
    n = int(round(2.0 * s / np.pi + _offset(case)))
    if _base_angle(case, n) <= 0.0:
        return None
    return n
