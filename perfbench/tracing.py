"""Outside-in tracing: timing wrappers installed at the names callers look up.

Nothing under ``src/`` changes. Each wrapper replaces a module attribute
(or a class attribute, for ``PotentialPiece.evaluate``) while a
:class:`Tracer` is installed, records a span per call and restores the
original on uninstall. Spans live in memory and are written out once, at
the end of a run.

``PotentialPiece.evaluate`` runs tens of thousands of times per request, so
it is recorded as a *leaf*: its calls, seconds and points are added to the
span that is open when it runs instead of becoming spans of their own.
Self time is a span's duration minus its child spans and its leaf time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    request: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    # leaf name -> [calls, seconds, points, max points in one call]
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "request": self.request, "start": self.start, "end": self.end,
                "counts": self.counts, "leaves": self.leaves}


def _size(x) -> int:
    return int(np.size(x))


def _lam_arg(index: int):
    """Count the lambda points of a call whose lambda is positional `index`."""
    def count(args, kwargs, result):
        lam = kwargs["lam"] if "lam" in kwargs else args[index]
        return {"lam_points": _size(lam)}
    return count


def _scan_counts(args, kwargs, result):
    return {"lam_points": len(result.lams), "brackets": len(result.brackets)}


def _roots(args, kwargs, result):
    return {"roots": len(result)}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._installed: list[tuple] = []
        self._next_id = 0

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(self._next_id, name, parent.sid if parent else None,
                  parent.request if parent else self._next_id)
        self._next_id += 1
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")
        self.spans.append(sp)

    def span_wrapper(self, fn, name: str, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sp = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if count is not None:
                sp.counts.update(count(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_wrapper(self, fn, name: str, points_arg: int):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            if stack:
                agg = stack[-1].leaves.setdefault(name, [0, 0.0, 0, 0])
                n = _size(args[points_arg])
                agg[0] += 1
                agg[1] += dt
                agg[2] += n
                if n > agg[3]:
                    agg[3] = n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced name; a second install is an error."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        from sltrans import asymptotics, cli, eigensolve, hilbert, propagator
        from sltrans.problem import PotentialPiece

        spans = [
            (propagator, "propagate_piece", "propagator.propagate_piece", _lam_arg(3)),
            (eigensolve, "omega", "characteristic.omega", _lam_arg(1)),
            (eigensolve, "omega_derivative", "characteristic.omega_derivative", None),
            (eigensolve, "validate_floor", "eigensolve.validate_floor", None),
            (eigensolve, "bracket_scan", "eigensolve.bracket_scan", _scan_counts),
            (eigensolve, "build_eigenpair", "eigensolve.build_eigenpair", None),
            (eigensolve, "find_eigenvalues", "eigensolve.find_eigenvalues", _roots),
            (cli, "find_eigenvalues", "eigensolve.find_eigenvalues", _roots),
            (eigensolve, "shoot_phi", "ode.shoot", None),
            (eigensolve, "shoot_chi", "ode.shoot", None),
            (eigensolve, "fixed_quad", "quadrature.fixed_quad", None),
            (hilbert, "fixed_quad", "quadrature.fixed_quad", None),
            (hilbert, "gram_matrix", "hilbert.gram_matrix", None),
            (hilbert, "h_inner_product", "hilbert.h_inner_product", None),
            (hilbert, "expand", "hilbert.expand", None),
            (asymptotics, "nearest_index", "asymptotics.nearest_index", None),
            (asymptotics, "_base_angle", "asymptotics._base_angle", None),
            (cli, "main", "cli.main", None),
        ]
        for owner, attr, name, count in spans:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.span_wrapper(original, name, count))
        original = PotentialPiece.evaluate
        self._installed.append((PotentialPiece, "evaluate", original))
        PotentialPiece.evaluate = self.leaf_wrapper(original, "problem.evaluate", 1)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([sp.as_json() for sp in self.spans], fh)


# ----------------------------------------------------------------------
# Derived per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus child spans and leaf time."""
    out = {sp.sid: sp.duration - sum(agg[1] for agg in sp.leaves.values())
           for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in out:
            out[sp.parent] -= sp.duration
    return out


def _matches(name: str, key: str) -> bool:
    """Exact name, or a layer prefix when key ends with a dot."""
    return name == key or (key.endswith(".") and name.startswith(key))


def _outermost(spans, key: str):
    """Spans matching key that sit under no other span matching key."""
    by_id = {sp.sid: sp for sp in spans}
    out = []
    for sp in spans:
        if not _matches(sp.name, key):
            continue
        p = sp.parent
        while p is not None and not _matches(by_id[p].name, key):
            p = by_id[p].parent
        if p is None:
            out.append(sp)
    return out


def request_metrics(spans) -> dict:
    """Per-layer metrics of one request from its spans (root span included)."""
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    selfs = self_times(spans)

    def named(name):
        return by_name.get(name, [])

    def incl(key):
        return sum(sp.duration for sp in _outermost(spans, key))

    def leaf(sp, index):
        agg = sp.leaves.get("problem.evaluate")
        return agg[index] if agg else 0

    request_s = sum(sp.duration for sp in spans if sp.parent is None)
    prop = named("propagator.propagate_piece")
    omegas = named("characteristic.omega")
    finds = named("eigensolve.find_eigenvalues")
    find_ids = {sp.sid for sp in finds}
    refine = [sp for sp in omegas if sp.parent in find_ids]
    scans = named("eigensolve.bracket_scan")
    builds = named("eigensolve.build_eigenpair")
    shoots = named("ode.shoot")
    roots = sum(sp.counts.get("roots", 0) for sp in finds)
    batch_bytes = max((leaf(sp, 3) // 2 * sp.counts.get("lam_points", 0) * 4 * 8
                       for sp in prop), default=0)
    build_s = incl("eigensolve.build_eigenpair")
    prop_shoot_s = incl("propagator.propagate_piece") + incl("ode.shoot")
    evaluate_s = sum(leaf(sp, 1) for sp in spans)
    cli_main = named("cli.main")
    return {
        "trace.request_s": request_s,
        "problem.evaluate.calls": sum(leaf(sp, 0) for sp in spans),
        "problem.evaluate.points": sum(leaf(sp, 2) for sp in spans),
        "problem.evaluate.s": evaluate_s,
        "problem.evaluate.share": evaluate_s / request_s,
        "propagator.propagate_piece.calls": len(prop),
        "propagator.propagate_piece.lam_points": sum(sp.counts.get("lam_points", 0) for sp in prop),
        "propagator.propagate_piece.s": incl("propagator.propagate_piece"),
        "propagator.magnus_steps": sum(leaf(sp, 2) for sp in prop) // 2,
        "propagator.batch_mb": batch_bytes / 2 ** 20,
        "propagator_ode.share": prop_shoot_s / request_s,
        "characteristic.omega.calls": len(omegas),
        "characteristic.omega.lam_points": sum(sp.counts.get("lam_points", 0) for sp in omegas),
        "characteristic.omega.s": incl("characteristic.omega"),
        "characteristic.omega_derivative.calls": len(named("characteristic.omega_derivative")),
        "characteristic.omega_derivative.s": incl("characteristic.omega_derivative"),
        "eigensolve.validate_floor.s": incl("eigensolve.validate_floor"),
        "eigensolve.bracket_scan.s": incl("eigensolve.bracket_scan"),
        "eigensolve.bracket_scan.lam_points": sum(sp.counts.get("lam_points", 0) for sp in scans),
        "eigensolve.scan_passes": len(scans) / max(len(finds), 1),
        "eigensolve.refine.omega_calls": len(refine),
        "eigensolve.refine.s": sum(sp.duration for sp in refine),
        "eigensolve.refine.brackets_per_root":
            sum(sp.counts.get("brackets", 0) for sp in scans) / max(roots, 1),
        "eigensolve.build_eigenpair.calls": len(builds),
        "eigensolve.build_eigenpair.s_per_root": build_s / max(len(builds), 1),
        "eigensolve.build_eigenpair.share": build_s / request_s,
        "eigensolve.find_eigenvalues.self_s": sum(selfs[sp.sid] for sp in finds),
        "ode.shoot.calls": len(shoots),
        "ode.shoot.s": incl("ode.shoot"),
        "ode.rhs_evals": sum(leaf(sp, 0) for sp in shoots),
        "quadrature.fixed_quad.calls": len(named("quadrature.fixed_quad")),
        "quadrature.fixed_quad.s": incl("quadrature.fixed_quad"),
        "hilbert.gram_matrix.s": incl("hilbert.gram_matrix"),
        "hilbert.h_inner_product.calls": len(named("hilbert.h_inner_product")),
        "hilbert.h_inner_product.s": incl("hilbert.h_inner_product"),
        "hilbert.expand.s": incl("hilbert.expand"),
        "asymptotics.s": incl("asymptotics."),
        "cli.main.s": incl("cli.main"),
        "cli.self_s": sum(selfs[sp.sid] for sp in cli_main),
        "cli.report_bytes": sum(sp.counts.get("report_bytes", 0) for sp in spans),
    }


LAYER_UNITS = {
    "trace.request_s": "s", "trace.overhead_s": "s",
    "problem.evaluate.calls": "count", "problem.evaluate.points": "count",
    "problem.evaluate.s": "s", "problem.evaluate.share": "1",
    "problem.load_validate.s": "s",
    "propagator.propagate_piece.calls": "count",
    "propagator.propagate_piece.lam_points": "count",
    "propagator.propagate_piece.s": "s", "propagator.magnus_steps": "count",
    "propagator.batch_mb": "MB", "propagator_ode.share": "1",
    "characteristic.omega.calls": "count", "characteristic.omega.lam_points": "count",
    "characteristic.omega.s": "s", "characteristic.omega_derivative.calls": "count",
    "characteristic.omega_derivative.s": "s",
    "eigensolve.validate_floor.s": "s", "eigensolve.bracket_scan.s": "s",
    "eigensolve.bracket_scan.lam_points": "count", "eigensolve.scan_passes": "count",
    "eigensolve.refine.omega_calls": "count", "eigensolve.refine.s": "s",
    "eigensolve.refine.brackets_per_root": "1",
    "eigensolve.build_eigenpair.calls": "count",
    "eigensolve.build_eigenpair.s_per_root": "s",
    "eigensolve.build_eigenpair.share": "1",
    "eigensolve.find_eigenvalues.self_s": "s",
    "ode.shoot.calls": "count", "ode.shoot.s": "s", "ode.rhs_evals": "count",
    "quadrature.fixed_quad.calls": "count", "quadrature.fixed_quad.s": "s",
    "hilbert.gram_matrix.s": "s", "hilbert.h_inner_product.calls": "count",
    "hilbert.h_inner_product.s": "s", "hilbert.expand.s": "s",
    "asymptotics.s": "s", "cli.main.s": "s", "cli.self_s": "s",
    "cli.report_bytes": "count",
}


def split_requests(spans) -> list[list]:
    """Group spans by the request (root span) they belong to."""
    groups: dict[int, list] = {}
    for sp in spans:
        groups.setdefault(sp.request, []).append(sp)
    return [groups[k] for k in sorted(groups)]
