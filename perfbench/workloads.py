"""One request per workload, and the checks every answer must pass.

A request returns a plain record (no eigenfunction objects are kept), so a
run's memory does not grow with its request count. References are
attached after the timed phase:

* const-deep: the stdlib-only oracle ``tests/oracles.py``, loaded by path;
* poly-expand, sampled-cli: eigenvalues frozen from the seed commit in
  ``frozen.json``. That is a drift reference, not an independent oracle:
  it shows that a change moved the answers, not which answer is right.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
from pathlib import Path

import numpy as np

RESIDUAL_KEYS = ("omega_scaled", "bc_left", "bc_right", "transmission",
                 "norm_identity", "k_substitution")

# Failure thresholds, set to catch a wrong answer, not to grade precision
# (precision is reported as a metric). A root off by 1e-6 relative gives an
# omega_scaled near 1e-6. The integration-based keys get looser bounds:
# at n = 200 k_substitution reaches 6e-6 on constant q, and on sampled q
# norm_identity reaches 2e-8 and bc_right 1e-8.
RESIDUAL_TOL = {"omega_scaled": 1e-10, "bc_left": 1e-10, "bc_right": 1e-6,
                "transmission": 1e-10, "norm_identity": 1e-6,
                "k_substitution": 1e-4}
ORACLE_TOL = 1e-10
DRIFT_TOL = 1e-9
GRAM_TOL = 1e-6

# Errors the solver documents; any other exception is reported by name.
KNOWN_ERRORS = ("SuspectedMissedRoot", "LostBracket", "DegeneratePhi",
                "StepSizeUnderflow", "NonFiniteState", "ProblemError")

N_EIGS = {"const-deep": 200, "poly-expand": 20, "sampled-cli": 10}
# The warm-up request is full size (the first request also pays for growing
# the heap) except on sampled-cli, where a full one costs 10-15 s of the
# run's time budget and a first-request penalty is the same in every run.
WARMUP_EIGS = {"const-deep": 200, "poly-expand": 20, "sampled-cli": 2}

HERE = Path(__file__).resolve().parent


def error_name(exc: BaseException) -> str:
    for cls in type(exc).__mro__:
        if cls.__name__ in KNOWN_ERRORS:
            return cls.__name__
    return type(exc).__name__


def _summary(eigs) -> dict:
    return {"lams": [e.lam for e in eigs],
            "resid": {k: max(e.residuals[k] for e in eigs) for k in RESIDUAL_KEYS}}


def request(workload: str, entry: dict, n: int, out_dir: Path) -> dict:
    """Run one request; return its record (exceptions propagate).

    Every request starts from the problem file, as a caller of the library
    or of the CLI does: a library request loads and validates it into a
    fresh ValidatedProblem. Anything the solver caches on that object is
    therefore paid for in every request, not once before the timed phase.
    """
    import sltrans
    import sltrans.cli

    if workload != "sampled-cli":
        vp = sltrans.validate_problem(sltrans.load_problem(entry["file"]))
    if workload == "const-deep":
        return _summary(sltrans.eigensolve.find_eigenvalues(vp, n))
    if workload == "poly-expand":
        eigs = sltrans.eigensolve.find_eigenvalues(vp, n)
        gram = sltrans.hilbert.gram_matrix(vp, eigs)
        center, halfwidth = entry["bump"]
        result = sltrans.hilbert.expand(vp, sltrans.HElement.bump(center, halfwidth), eigs)
        rec = _summary(eigs)
        rec["gram_off"] = float(np.max(np.abs(gram - np.eye(len(eigs)))))
        res = np.asarray(result.residuals)
        slack = 1e-8 * max(float(res[0]), 1.0)
        rec["expand_ok"] = bool(np.all(np.isfinite(res)) and np.all(np.diff(res) <= slack))
        return rec
    out = out_dir / f"report-{entry['label']}.json"
    argv = ["solve", "--problem", entry["file"], "--nmax", str(n), "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = sltrans.cli.main(argv)
    if code != 0:
        return {"exit_code": code}
    with open(out) as fh:
        report = json.load(fh)
    rows = report["eigenvalues"]
    return {"exit_code": 0, "report_bytes": os.path.getsize(out),
            "lams": [r["lambda"] for r in rows],
            "resid": {k: max(r["residuals"][k] for r in rows) for k in RESIDUAL_KEYS}}


# ----------------------------------------------------------------------
# References and checks
# ----------------------------------------------------------------------

def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_eigenvalues(oracles, spec, n: int) -> list[float]:
    """Independent eigenvalues of a constant-q spec."""
    c = spec.potential.pieces[0].value
    return oracles.constant_q_eigenvalues(
        n, c, spec.interfaces, spec.jumps, spec.alpha, spec.beta,
        spec.beta_prime, lam_min=-400.0)


def load_frozen(workload: str) -> dict:
    with open(HERE / "frozen.json") as fh:
        return {row["pool_index"]: row for row in json.load(fh)[workload]}


def check(workload: str, rec: dict, n: int, reference) -> tuple[str | None, float]:
    """(failure reason or None, worst relative eigenvalue error)."""
    if rec.get("exit_code", 0) != 0:
        return f"exit_code={rec['exit_code']}", math.nan
    lams = np.asarray(rec["lams"], dtype=float)
    if lams.size != n:
        return "count", math.nan
    ref = np.asarray(reference, dtype=float)
    if ref.size != n:
        return "reference_count", math.nan
    dlam = float(np.max(np.abs(lams - ref) / np.maximum(1.0, np.abs(ref))))
    if not np.all(np.diff(lams) > 0):
        return "order", dlam
    for key in RESIDUAL_KEYS:
        if not rec["resid"][key] <= RESIDUAL_TOL[key]:
            return f"residual:{key}", dlam
    if not dlam <= (ORACLE_TOL if workload == "const-deep" else DRIFT_TOL):
        return "reference", dlam
    if not rec.get("gram_off", 0.0) <= GRAM_TOL:
        return "gram", dlam
    if not rec.get("expand_ok", True):
        return "expand", dlam
    return None, dlam
