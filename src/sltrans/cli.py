"""Command-line front end.

Five subcommands over a problem file:

* solve    - enumerate eigenvalues with diagnostics
* verify   - run named consistency checks and report pass/fail
* sweep    - re-solve while one scalar in the problem varies
* expand   - expand a target element over the eigenvector family
* scan     - dump the characteristic function over the scan grid

Exit codes: 0 success (and every selected check passing), 2 when the solver
suspects a missed eigenvalue, 1 for any validation, parsing, or
configuration error. Reports go to stdout (or --out) as JSON or CSV; the
effective configuration is echoed to stderr and embedded in JSON reports so
runs are reproducible byte for byte given the same inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import asymptotics
from .characteristic import omega_samples
from .eigensolve import (SuspectedMissedRoot, default_lambda_floor, find_eigenvalues,
                         scan_grid, sift_scan)
from .hilbert import HElement, expand, gram_matrix, greens_identity_residual
from .problem import (PiecewisePotential, ProblemError, ProblemSpec,
                      as_validated, load_problem, problem_to_json)
from .quadrature import QuadratureNotConverged

THRESHOLDS = {
    "chain": 1e-7,
    "orthogonality": 1e-6,
    "asymptotics": 0.05,
    "norm-identity": 1e-6,
    "greens": 1e-7,
    "delta-invariance": 1e-8,
}
CHECK_NAMES = tuple(THRESHOLDS)
# Roots the asymptotics check solves at least: over the first 25 (or 48)
# the error envelope of healthy problems is often still pre-asymptotic and
# reads above the 0.05 bound; over 64 it has settled.
ASYMPTOTICS_ROOTS = 64


class CliError(Exception):
    """Any configuration or input problem that should exit with code 1."""


@dataclasses.dataclass
class RunConfig:
    """Everything a run depends on, echoed into the report."""

    command: str
    problem: str
    n_max: int = 10
    format: str = "json"
    out: str | None = None
    seed: int = 0
    checks: tuple = CHECK_NAMES
    param: str | None = None
    values: tuple = ()
    target: str | None = None
    s_max: float = 10.0
    lam_floor: float | None = None
    dump_eigenfunctions: str | None = None

    def __post_init__(self):
        if self.n_max < 1:
            raise CliError("n_max must be at least 1")
        if self.format not in ("json", "csv"):
            raise CliError(f"unknown format {self.format!r}")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise CliError(f"unknown check {c!r}; choose from {CHECK_NAMES}")
        # Checked after the errors above, so their messages keep precedence.
        if not (math.isfinite(self.s_max) and self.s_max > 0):
            raise CliError("s_max must be finite and positive")
        if self.lam_floor is not None and not (math.isfinite(self.lam_floor)
                                               and self.lam_floor < 0):
            raise CliError("lam_floor must be finite and negative")
        if self.seed < 0:
            raise CliError("seed must be non-negative")

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["checks"] = list(self.checks)
        d["values"] = list(self.values)
        return d


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values such as -1e-3 and -0.5,1 are numbers, not options
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="sltrans", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "sweep", "expand", "scan"):
        sp = sub.add_parser(name)
        sp.add_argument("--problem", required=True, help="problem JSON file")
        if name != "scan":
            sp.add_argument("--nmax", dest="n_max", metavar="NMAX", type=int,
                            default=10)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "verify":
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--checks", default=",".join(CHECK_NAMES),
                            help="comma-separated subset of " + ",".join(CHECK_NAMES))
        if name == "sweep":
            sp.add_argument("--param", required=True,
                            help="scalar path, e.g. jumps[0], alpha[1], potential")
            sp.add_argument("--values", required=True,
                            help="comma-separated numbers")
        if name == "expand":
            sp.add_argument("--target", required=True,
                            help="target element JSON file")
        if name == "scan":
            sp.add_argument("--smax", dest="s_max", metavar="SMAX", type=float,
                            default=10.0)
            sp.add_argument("--floor", dest="lam_floor", metavar="FLOOR",
                            type=float, default=None)
        if name == "solve":
            sp.add_argument("--dump-eigenfunctions", default=None,
                            help="directory for per-eigenfunction CSV dumps")
    return p


def _split(text: str, what: str) -> tuple:
    items = tuple(v.strip() for v in text.split(",") if v.strip())
    if not items:
        raise CliError(f"empty {what} list")
    return items


def _config_from_args(args) -> RunConfig:
    fields = vars(args)
    if "checks" in fields:
        fields["checks"] = _split(args.checks, "check")
    if "values" in fields:
        raw = _split(args.values, "value")
        try:
            fields["values"] = tuple(float(v) for v in raw)
        except ValueError as exc:
            raise CliError(f"bad sweep value: {exc}") from None
    return RunConfig(**fields)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------

def _emit(config: RunConfig, report: dict, header, rows) -> None:
    """Write the report to --out or stdout: as JSON, with the configuration
    under "config", or as a CSV table of header and rows. A row is a list
    of cells, or a dict whose cells the header's names pick (a missing one
    is None); csv writes a float as its repr and None as an empty cell."""
    if config.format == "json":
        text = json.dumps({"config": config.as_dict(), **report},
                          sort_keys=True, indent=2, allow_nan=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([r.get(k) for k in header] if isinstance(r, dict) else r
                         for r in rows)
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_EIG_FIELDS = ("n", "n_formula", "s", "omega_prime", "k_ratio", "k_spread",
               "norm_constant", "scalar", "residuals")


def _eig_row(eig) -> dict:
    return {"lambda": eig.lam, **{k: getattr(eig, k) for k in _EIG_FIELDS}}


def _load(config: RunConfig):
    try:
        spec = load_problem(config.problem)
    except FileNotFoundError as exc:
        raise CliError(f"problem file not found: {exc.filename}") from None
    return as_validated(spec)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def run_solve(config: RunConfig) -> int:
    vp = _load(config)
    eigs = find_eigenvalues(vp, config.n_max)
    if config.dump_eigenfunctions:
        os.makedirs(config.dump_eigenfunctions, exist_ok=True)
        for eig in eigs:
            eig.phi.to_csv(f"{config.dump_eigenfunctions}/eigenfunction_{eig.n}.csv")
    rows = [_eig_row(e) for e in eigs]
    _emit(config, {"problem": problem_to_json(vp.spec), "eigenvalues": rows},
          ["n", "n_formula", "lambda", "s", "omega_prime", "k_ratio"], rows)
    return 0


def _check_chain(vp, rng) -> dict:
    lams = np.sort(rng.uniform(-20.0, 400.0, size=30))
    samples = omega_samples(vp, lams)
    measured = max(float(s.chain_residual_rel()) for s in samples)
    return {"measured": measured, "count": len(samples)}


def _check_orthogonality(vp, eigs) -> dict:
    gram = gram_matrix(vp, eigs)
    off = gram - np.diag(np.diag(gram))
    measured = float(np.max(np.abs(off))) if gram.size else 0.0
    diag_err = float(np.max(np.abs(np.diag(gram) - 1.0))) if gram.size else 0.0
    return {"measured": measured, "diagonal_error": diag_err, "count": len(eigs)}


def _envelope_slope(ns, vals) -> float:
    """Decay order of the envelope of vals against n: log2 of the largest
    value over n in (N/2, N] divided by the largest over (N/4, N/2], N the
    largest n. Scaled asymptotic errors oscillate in n, and a least-squares
    slope over a short window reads the oscillation; the block maxima do not.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.maximum(np.asarray(vals, dtype=float), 1e-300)
    top = ns.max()
    upper = vals[ns > top / 2]
    lower = vals[(ns > top / 4) & (ns <= top / 2)]
    if lower.size == 0:
        raise CliError("asymptotics check needs formula indices from N/4 to N; "
                       "raise --nmax")
    return float(np.log2(upper.max() / lower.max()))


def _check_asymptotics(vp, eigs) -> dict:
    rows = asymptotics.asymptotics_report(vp, eigs)
    rows = [r for r in rows if r["n"] >= 5]
    if len(rows) < 5:
        raise CliError("asymptotics check needs eigenvalues with formula "
                       "index 5 or higher; raise --nmax")
    ns = [r["n"] for r in rows]
    slope1 = _envelope_slope(ns, [r["n_err1"] for r in rows])
    slope2 = _envelope_slope(ns, [r["n2_err2"] for r in rows])
    return {"measured": max(slope1, slope2), "slope_first": slope1,
            "slope_second": slope2, "rows": len(rows)}


def _check_norm_identity(eigs) -> dict:
    def worst(key):
        return max(float(e.residuals[key]) for e in eigs)

    return {"measured": worst("norm_identity"),
            "jump_scaled_variant": worst("norm_identity_jump_scaled_variant"),
            "substitution": worst("k_substitution")}


def _check_greens(vp, rng) -> dict:
    worst = 0.0
    for _ in range(5):
        la, lb = rng.uniform(-10.0, 300.0, size=2)
        res = greens_identity_residual(vp, float(la), float(lb))
        worst = max(worst, float(res["residual"]))
    return {"measured": worst, "pairs": 5}


def _check_delta_invariance(vp, config) -> dict:
    if vp.m == 0:
        return {"skipped": "no interfaces"}
    n = min(config.n_max, 10)
    base = find_eigenvalues(
        dataclasses.replace(vp.spec, jumps=tuple(1.0 for _ in vp.jumps)), n)
    base_lams = np.array([e.lam for e in base])
    worst = 0.0
    for d1 in (0.5, 2.0, 3.0, vp.jumps[0]):
        jumps = (d1,) + vp.jumps[1:]
        eigs = find_eigenvalues(dataclasses.replace(vp.spec, jumps=jumps), n)
        lams = np.array([e.lam for e in eigs])
        worst = max(worst, float(np.max(np.abs(lams - base_lams)
                                        / np.maximum(1.0, np.abs(base_lams)))))
    return {"measured": worst, "count": n}


def run_verify(config: RunConfig) -> int:
    vp = _load(config)
    rng = np.random.default_rng(config.seed)
    # Each check reads the solve of its own root count, so its values do
    # not depend on which other checks run.
    roots = functools.cache(lambda n: find_eigenvalues(vp, n))
    checks = {
        "chain": lambda: _check_chain(vp, rng),
        "orthogonality": lambda: _check_orthogonality(vp, roots(config.n_max)),
        "asymptotics": lambda: _check_asymptotics(
            vp, roots(max(config.n_max, ASYMPTOTICS_ROOTS))),
        "norm-identity": lambda: _check_norm_identity(roots(config.n_max)),
        "greens": lambda: _check_greens(vp, rng),
        "delta-invariance": lambda: _check_delta_invariance(vp, config),
    }

    results = []
    for name in config.checks:
        detail = checks[name]()
        if "skipped" in detail:
            results.append({"check": name, "status": "skipped",
                            "reason": detail["skipped"]})
        else:
            passed = detail["measured"] <= THRESHOLDS[name]
            results.append({"check": name, "status": "pass" if passed else "fail",
                            "threshold": THRESHOLDS[name], **detail})
    all_pass = all(r["status"] != "fail" for r in results)
    _emit(config, {"results": results, "passed": all_pass},
          ["check", "status", "measured", "threshold"], results)
    for r in results:
        line = f"{r['check']}: {r['status']}"
        if "measured" in r:
            line += f" (measured {r['measured']:.3e} vs {r['threshold']:.0e})"
        print(line, file=sys.stderr)
    return 0 if all_pass else 1


_PARAM_RE = re.compile(r"^(\w+)(?:\[(\d+)\])?$")


def _set_param(spec: ProblemSpec, path: str, value: float) -> ProblemSpec:
    m = _PARAM_RE.match(path)
    if not m:
        raise CliError(f"cannot parse parameter path {path!r}")
    name, idx = m.group(1), m.group(2)
    if name in ("potential", "q"):
        if idx is not None:
            raise CliError("potential path takes no index (constant value only)")
        return dataclasses.replace(spec, potential=PiecewisePotential.constant(value))
    if name not in ("interfaces", "jumps", "alpha", "beta", "beta_prime"):
        raise CliError(f"unknown parameter field {name!r}")
    cur = getattr(spec, name)
    if idx is None:
        raise CliError(f"field {name!r} needs an index, e.g. {name}[0]")
    i = int(idx)
    if i >= len(cur):
        raise CliError(f"index {i} out of range for {name} of length {len(cur)}")
    new = tuple(value if k == i else v for k, v in enumerate(cur))
    return dataclasses.replace(spec, **{name: new})


def run_sweep(config: RunConfig) -> int:
    base = _load(config).spec
    rows = []
    for v in config.values:
        try:
            eigs = find_eigenvalues(_set_param(base, config.param, v), config.n_max)
            rows += [{"param_value": v, "n": e.n, "lambda": e.lam, "error": None}
                     for e in eigs]
        except CliError:
            raise
        except Exception as exc:
            rows.append({"param_value": v, "n": None, "lambda": None,
                         "error": f"{type(exc).__name__}: {exc}"})
    _emit(config, {"parameter": config.param, "rows": rows},
          ["param_value", "n", "lambda", "error"], rows)
    return 0


def _target_element(obj: dict, n_max: int) -> HElement | int:
    """The expansion target of a --target file, checked before any solve:
    an HElement, or the index n of an eigenfunction target, which is below
    n_max. HElement rejects a number that is not finite."""
    if not isinstance(obj, dict):
        raise CliError(f"target must be a JSON object with a 'kind', got {obj!r}")
    kind = obj.get("kind")
    if kind == "eigenfunction":
        n = obj.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise CliError("target eigenfunction index 'n' must be a "
                           f"non-negative integer, got {n!r}")
        if n >= n_max:
            raise CliError(f"target eigenfunction {n} needs nmax > {n}")
        return n
    try:
        if kind == "polynomial":
            return HElement.polynomial(obj.get("coeffs", [1.0]), f1=obj.get("f1", 0.0))
        if kind == "bump":
            return HElement.bump(obj["center"], obj["halfwidth"],
                                 amplitude=obj.get("amplitude", 1.0),
                                 f1=obj.get("f1", 0.0))
        if kind == "scalar":
            return HElement.scalar_only(obj["f1"])
    except KeyError as exc:
        raise CliError(f"{kind} target is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad {kind} target: {exc}") from None
    raise CliError(f"unknown target kind {kind!r}")


def run_expand(config: RunConfig) -> int:
    vp = _load(config)
    try:
        with open(config.target) as fh:
            target_obj = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"target file not found: {config.target}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"target file is not valid JSON: {exc}") from None
    target = _target_element(target_obj, config.n_max)
    eigs = find_eigenvalues(vp, config.n_max)
    if isinstance(target, int):
        target = HElement.from_eigenpair(eigs[target])
    result = expand(vp, target, eigs)
    report = {
        "target": target_obj,
        "coefficients": [float(c) for c in result.coefficients],
        "residuals": [float(r) for r in result.residuals],
        "norm_sq": result.norm_sq,
        "parseval_ratio": result.parseval_ratio,
    }
    rows = [[k + 1, c, r] for k, (c, r) in
            enumerate(zip(report["coefficients"], report["residuals"]))]
    _emit(config, report, ["N", "coefficient", "residual"], rows)
    return 0


def run_scan(config: RunConfig) -> int:
    vp = _load(config)
    lams = scan_grid(config.s_max, config.lam_floor or default_lambda_floor(vp))
    samples = omega_samples(vp, lams)
    # The samples' omega has omega()'s bits: one forward chain serves both.
    oms = np.array([s.omega_boundary_form for s in samples])
    scan = sift_scan(vp, lams, oms)
    header = ["lambda", "s_if_nonneg", "omega",
              *(f"omega{j + 1}" for j in range(vp.m + 1)), "chain_residual_max"]
    rows = [[s.lam, float(np.sqrt(s.lam)) if s.lam >= 0 else None,
             s.omega, *s.omega_i, s.chain_residual_max] for s in samples]
    _emit(config, {
        "brackets": [list(b) for b in scan.brackets],
        "suspicious": scan.suspicious,
        "samples": [{"lambda": s.lam, "omega": s.omega, "omega_i": s.omega_i,
                     "chain_residual_max": s.chain_residual_max}
                    for s in samples],
    }, header, rows)
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

_RUNNERS = {
    "solve": run_solve,
    "verify": run_verify,
    "sweep": run_sweep,
    "expand": run_expand,
    "scan": run_scan,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        print(f"config: {json.dumps(config.as_dict(), sort_keys=True)}",
              file=sys.stderr)
        return _RUNNERS[config.command](config)
    except (CliError, OSError, QuadratureNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SuspectedMissedRoot as exc:
        print(f"suspected missed root: {exc}", file=sys.stderr)
        return 2
    except ProblemError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
