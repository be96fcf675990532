"""Seeded problem generators for the benchmark workloads.

Every generator draws from its own ``numpy.random.Generator`` so that the
same seed always gives the same specs. Ranges are fixed here, in one
place, and were set before any spec was solved.
"""

from __future__ import annotations

import numpy as np

# (beta_2' != 0, alpha_2 != 0), the structural pair that decides the
# asymptotic case; cycled so every run covers all four cases.
CASE_FLAGS = ((True, True), (True, False), (False, True), (False, False))


def boundary_data(rng, case_index: int):
    """alpha, beta, beta_prime for one of the four asymptotic cases, rho >= 0.2."""
    b2p_nonzero, a2_nonzero = CASE_FLAGS[case_index % 4]
    if a2_nonzero:
        alpha = (rng.uniform(-2.0, 2.0), _signed(rng, 0.5, 2.0))
    else:
        alpha = (_signed(rng, 0.5, 2.0), 0.0)
    while True:
        b1p = rng.uniform(0.2, 2.0)
        b2p = _signed(rng, 0.2, 1.0) if b2p_nonzero else 0.0
        b1 = rng.uniform(-2.0, 2.0)
        b2 = rng.uniform(-2.0, 2.0)
        if b1p * b2 - b1 * b2p >= 0.2:
            return alpha, (b1, b2), (b1p, b2p)


def interfaces(rng, m: int):
    """m sorted interfaces in (-0.8, 0.8), 0.1 apart, and signed jumps in ±[0.3, 3]."""
    while True:
        hs = np.sort(rng.uniform(-0.8, 0.8, m))
        if m == 1 or np.min(np.diff(hs)) > 0.1:
            break
    mags = np.exp(rng.uniform(np.log(0.3), np.log(3.0), m))
    signs = rng.choice((-1.0, 1.0), m)
    return tuple(float(h) for h in hs), tuple(float(d) for d in signs * mags)


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def constant_spec(rng, i: int):
    """const-deep: one constant c, 1-4 interfaces, case cycled by i.

    As i goes from 0 to 15, (interface count, case) runs through all 16
    pairs once.
    """
    import sltrans as st

    alpha, beta, beta_prime = boundary_data(rng, i + i // 4)
    hs, ds = interfaces(rng, 1 + i % 4)
    c = float(rng.uniform(-5.0, 5.0))
    return st.ProblemSpec(st.PiecewisePotential.constant(c), hs, ds,
                          alpha, beta, beta_prime)


def polynomial_spec(rng, i: int):
    """poly-expand: degree 1-3 polynomial per piece, 1-3 interfaces."""
    import sltrans as st
    from sltrans.problem import PotentialPiece

    alpha, beta, beta_prime = boundary_data(rng, i)
    hs, ds = interfaces(rng, 1 + i % 3)
    pieces = []
    for _ in range(len(hs) + 1):
        degree = int(rng.integers(1, 4))
        coeffs = rng.uniform(-3.0, 3.0, degree + 1)
        pieces.append(PotentialPiece("polynomial", coeffs=tuple(float(c) for c in coeffs)))
    return st.ProblemSpec(st.PiecewisePotential.from_pieces(pieces), hs, ds,
                          alpha, beta, beta_prime)


def sampled_spec(rng, i: int):
    """sampled-cli: smooth random q sampled on 17-65 points per piece."""
    import sltrans as st
    from sltrans.problem import PotentialPiece

    alpha, beta, beta_prime = boundary_data(rng, i)
    hs, ds = interfaces(rng, 1 + i % 3)
    bp = (-1.0, *hs, 1.0)
    pieces = []
    for a, b in zip(bp[:-1], bp[1:]):
        n_pts = int(rng.integers(17, 66))
        xs = np.linspace(a, b, n_pts)
        t = (xs - a) / (b - a)
        vals = np.full(n_pts, rng.uniform(-3.0, 3.0))
        for k in range(1, 5):
            vals += rng.uniform(-3.0, 3.0) / k ** 2 * np.cos(k * np.pi * t + rng.uniform(0, 2 * np.pi))
        pieces.append(PotentialPiece("sampled", x=tuple(float(x) for x in xs),
                                     values=tuple(float(v) for v in vals)))
    return st.ProblemSpec(st.PiecewisePotential.from_pieces(pieces), hs, ds,
                          alpha, beta, beta_prime)


# Workloads whose specs come from a frozen pool, with eigenvalues frozen
# from the seed commit in frozen.json, and how many specs the pool holds.
# A request costs seconds there, so a run fits one or two passes over the
# pool; every run solving the same specs keeps runs comparable, and the
# seed sets the request order and the expansion target.
POOLS = {"poly-expand": 4, "sampled-cli": 2}
CONST_SPECS_PER_RUN = 16
_POOL_TAG = {"poly-expand": 2, "sampled-cli": 3}


def pool_spec(workload: str, index: int):
    """Spec `index` of a workload's frozen pool."""
    rng = np.random.default_rng([_POOL_TAG[workload], index])
    gen = polynomial_spec if workload == "poly-expand" else sampled_spec
    return gen(rng, index)


def run_specs(workload: str, seed: int) -> list[dict]:
    """The specs one run solves, in request order, with per-request extras.

    Each entry has the spec, a label, the pool index (None for const-deep)
    and, for poly-expand, the (center, halfwidth) of the bump to expand.
    """
    rng = np.random.default_rng([1, seed])
    if workload == "const-deep":
        specs = [constant_spec(rng, i) for i in range(CONST_SPECS_PER_RUN)]
        order = rng.permutation(len(specs))
        return [{"label": f"c{i}", "spec": specs[i], "pool_index": None}
                for i in order]
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for i in rng.permutation(POOLS[workload]):
        entry = {"label": f"p{i}", "spec": pool_spec(workload, int(i)),
                 "pool_index": int(i)}
        if workload == "poly-expand":
            entry["bump"] = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.2, 0.4)))
        out.append(entry)
    return out


def spec_digest(spec) -> str:
    """sha256 of the spec's canonical JSON, to detect generator drift."""
    import hashlib
    import json

    from sltrans.problem import problem_to_json

    text = json.dumps(problem_to_json(spec), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
