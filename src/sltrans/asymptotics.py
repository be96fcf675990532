"""Large-index eigenvalue and eigenfunction approximations.

Four structural cases, decided by whether beta_2' and alpha_2 vanish,
govern the leading behavior of the characteristic function and hence where
its zeros sit. For each case the module provides

* the leading closed-form term of omega as a function of s = sqrt(lambda),
* the first-order root location s_n and its second-order correction (the
  correction needs only three scalar ingredients: a right-boundary ratio,
  the left-boundary ratio alpha_1/alpha_2, and the potential mean int q / 2),
* the leading shape of the eigenfunction on each subinterval, including the
  cumulative 1/delta prefix that the transmission conditions impose.

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


class UndefinedRatio(ZeroDivisionError):
    """A case formula divides by a coefficient that is zero.

    Cannot happen when the case was produced by classify_case on the same
    problem; kept as a guard against mixed-up arguments.
    """


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


def _base_angle(case: AsymptoticCase, n: int) -> float:
    """Denominator angle of the n-th root: pi(n-1), pi(n-1/2), or pi n."""
    if case is AsymptoticCase.CASE1:
        return np.pi * (n - 1.0)
    if case in (AsymptoticCase.CASE2, AsymptoticCase.CASE3):
        return np.pi * (n - 0.5)
    return np.pi * n


def leading_omega(problem, s, case: AsymptoticCase | None = None):
    """Leading term of omega as a function of s (vectorized).

    Case 1:  b2' a2 s^3 D2 sin 2s      Case 2: -b2' a1 s^2 D2 cos 2s
    Case 3:  b1' a2 s^2 D2 cos 2s      Case 4: -b1' a1 s   D2 sin 2s
    with D2 = prod(delta_i^2). Zero sets: s in {k pi/2} for cases 1 and 4,
    {(k + 1/2) pi / 2} for cases 2 and 3.
    """
    vp = as_validated(problem)
    if case is None:
        case = classify_case(vp)
    s = np.asarray(s, dtype=float)
    D2 = vp.delta_sq_prod
    if case is AsymptoticCase.CASE1:
        out = vp.beta2p * vp.alpha2 * s**3 * D2 * np.sin(2 * s)
    elif case is AsymptoticCase.CASE2:
        out = -vp.beta2p * vp.alpha1 * s**2 * D2 * np.cos(2 * s)
    elif case is AsymptoticCase.CASE3:
        out = vp.beta1p * vp.alpha2 * s**2 * D2 * np.cos(2 * s)
    else:
        out = -vp.beta1p * vp.alpha1 * s * D2 * np.sin(2 * s)
    if out.ndim == 0:
        return float(out)
    return out


def eigenvalue_estimate(problem, n: int, order: str = "second",
                        q_term: str = "plain") -> EigenvalueEstimate:
    """Approximate location (in s) of the n-th large root.

    order='first' returns the half-integer-multiple-of-pi/2 grid value;
    order='second' adds the O(1/n) correction built from the boundary
    ratios and the potential mean. q_term picks how the mean enters:
    'plain' uses int q / 2 (the form consistent with phase continuity
    across proportional jumps), 'jump_scaled' divides it by prod(delta_i).
    """
    vp = as_validated(problem)
    case = classify_case(vp)
    angle = _base_angle(case, n)
    if angle == 0.0:
        raise ValueError(f"index n={n} makes the case denominator vanish")
    if q_term not in ("plain", "jump_scaled"):
        raise ValueError(f"unknown q_term {q_term!r}")
    if order not in ("first", "second"):
        raise ValueError(f"unknown order {order!r}")
    s_first = angle / 2.0

    I0 = potential_moments(vp)["I0"]
    dprod = vp.delta_prod
    iq = I0 / 2.0 if q_term == "plain" else I0 / (2.0 * dprod)

    ingredients = {"I0": I0, "q_mean_term": iq, "q_term": q_term}
    if case in (AsymptoticCase.CASE1, AsymptoticCase.CASE3):
        if vp.alpha2 == 0.0:
            raise UndefinedRatio("alpha_2 = 0 in a case that divides by alpha_2")
        ingredients["alpha1_over_alpha2"] = vp.alpha1 / vp.alpha2
    if case in (AsymptoticCase.CASE1, AsymptoticCase.CASE2):
        if vp.beta2p == 0.0:
            raise UndefinedRatio("beta_2' = 0 in a case that divides by beta_2'")
        ingredients["beta1p_over_beta2p"] = vp.beta1p / vp.beta2p
    if case in (AsymptoticCase.CASE3, AsymptoticCase.CASE4):
        if vp.beta1p == 0.0:
            raise UndefinedRatio("beta_1' = 0 in a case that divides by beta_1'")
        ingredients["beta2_over_beta1p"] = vp.beta2 / vp.beta1p

    if case is AsymptoticCase.CASE1:
        corr = -(ingredients["beta1p_over_beta2p"]
                 + ingredients["alpha1_over_alpha2"] - iq) / angle
    elif case is AsymptoticCase.CASE2:
        corr = -(ingredients["beta1p_over_beta2p"] + iq) / angle
    elif case is AsymptoticCase.CASE3:
        corr = (ingredients["beta2_over_beta1p"]
                - ingredients["alpha1_over_alpha2"] + iq) / angle
    else:
        corr = (ingredients["beta2_over_beta1p"] + iq) / angle

    s_second = s_first + corr if order == "second" else s_first
    return EigenvalueEstimate(case=case, n=n, s_first=float(s_first),
                              s_second=float(s_second), ingredients=ingredients)


def eigenfunction_estimate(problem, n: int, x, case: AsymptoticCase | None = None):
    """Leading shape of the n-th eigenfunction (vectorized over x).

    Cosine-type cases (alpha_2 != 0) give (alpha_2 / prefix_j) cos(w(x+1)/2);
    sine-type cases give -(2 alpha_1 / (prefix_j w)) sin(w(x+1)/2), where
    w is the case's base angle and prefix_j is the product of the jump
    factors left of the subinterval containing x. Interface points resolve
    to the left subinterval.
    """
    vp = as_validated(problem)
    if case is None:
        case = classify_case(vp)
    angle = _base_angle(case, n)
    if angle == 0.0:
        raise ValueError(f"index n={n} makes the case angle vanish")

    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs < -1.0) or np.any(xs > 1.0):
        raise OutOfDomain("eigenfunction estimate outside [-1, 1]")

    prefixes = np.ones(vp.m + 1)
    for j in range(1, vp.m + 1):
        prefixes[j] = prefixes[j - 1] * vp.jumps[j - 1]

    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        j = vp.subinterval_index(float(xi))
        pre = prefixes[j]
        arg = angle * (xi + 1.0) / 2.0
        if case in (AsymptoticCase.CASE1, AsymptoticCase.CASE3):
            out[i] = (vp.alpha2 / pre) * np.cos(arg)
        else:
            out[i] = -(2.0 * vp.alpha1 / (pre * angle)) * np.sin(arg)
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
        est = eigenvalue_estimate(vp, n, order="second", q_term=q_term)
        alt = eigenvalue_estimate(vp, n, order="second", q_term=other)
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
    vp = as_validated(problem)
    case = classify_case(vp)
    if case is AsymptoticCase.CASE1:
        n = round(2.0 * s / np.pi + 1.0)
    elif case in (AsymptoticCase.CASE2, AsymptoticCase.CASE3):
        n = round(2.0 * s / np.pi + 0.5)
    else:
        n = round(2.0 * s / np.pi)
    n = int(n)
    if _base_angle(case, n) <= 0.0:
        return None
    return n


def write_report_csv(rows: list[dict], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "s_true", "s_first", "s_second", "n_err1", "n2_err2"])
        for r in rows:
            writer.writerow([r["n"], repr(r["s_true"]), repr(r["s_first"]),
                             repr(r["s_second"]), repr(r["n_err1"]), repr(r["n2_err2"])])
