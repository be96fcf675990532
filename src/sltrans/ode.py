"""Dense initial-value integration of -u'' + q u = lambda u across subintervals.

Builds the two shot solutions used throughout: the left solution (started
at x = -1 from the left boundary condition) and the right solution (started
at x = 1 from the lambda-dependent right boundary data). Both carry the
interface jumps so that u(h-0) = delta * u(h+0) and likewise for u'.

Both run on :func:`sltrans.propagator.chain`, which holds the start states
and the jump rule, and on its propagation kernel, so dense trajectories and
the characteristic function share one chain and one integrator.
Constant-q pieces get the exact closed-form transfer. Variable-q pieces take
the step count the fourth-order Magnus ladder settles on (at
:data:`sltrans.propagator.RTOL`, from the start state divided by its size),
store the state at every step node as the running product of the step
matrices, and reach a point between nodes with one partial Magnus step.
Every segment computes its end state once, when it is built, and the chain
carries that state across the next interface.
A Picard successive-approximation solver of the equivalent Volterra integral
equations is included as an integrator-independent cross-check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .problem import OutOfDomain, ValidatedProblem, as_validated
from .propagator import (_GAUSS_OFFSETS, NonFiniteState, _product, chain,
                         constant_step, magnus_ladder, magnus_steps)
from .quadrature import _gauss_rule, panel_nodes

CSV_SAMPLES = 200  # points per subinterval in PiecewiseSolution.to_csv
PICARD_ITERATIONS = 30  # picard_phi's Picard iterations per subinterval, at most
PICARD_TOL = 1e-9  # picard_phi's bound on the last update, relative
PICARD_NODES = 12  # Gauss-Legendre nodes of each of picard_phi's panels


class NonConvergence(RuntimeError):
    """Successive approximation failed to contract within the iteration budget."""


# ----------------------------------------------------------------------
# Dense segments
# ----------------------------------------------------------------------

class ConstantSegment:
    """Exact trajectory on a piece where q is constant; end is its state at b."""

    def __init__(self, a: float, b: float, w: float, u0: float, du0: float):
        self.a = a
        self.b = b
        self.w = w
        self.u0 = u0
        self.du0 = du0
        self.end = constant_step(w, b - a, u0, du0)


class MagnusSegment:
    """Dense fourth-order Magnus trajectory on a piece with variable q.

    The step count is the one the Magnus ladder accepts from the start
    state divided by s = max(1, |u0|, |du0|), so the stop test is relative
    to the start state's size. Only that count's (qvals, h) is kept: the
    state at node k (x = a + k h) is the running product of the first k
    step matrices applied to the unscaled start state, so its bits depend
    on the settled count alone. end is the last node, at b.
    """

    def __init__(self, piece, a: float, b: float, lam: float, u0: float, du0: float):
        s = max(1.0, abs(u0), abs(du0))
        qv, h, _ = magnus_ladder(piece, a, b, lam, u0 / s, du0 / s)
        self.h = h
        self.piece = piece
        self.lam_f = np.full((1, 1), lam)
        n = qv.shape[0]
        self.nodes = a + h * np.arange(n + 1)
        # The last node is b itself, so eval(b) returns end.
        self.nodes[-1] = b
        us, dus = [u0], [du0]
        u, du = u0, du0
        top, bottom = magnus_steps(qv, h, self.lam_f)
        for e11, e12, e21, e22 in zip(*top[:, 0].tolist(), *bottom[:, 0].tolist()):
            u, du = e11 * u + e12 * du, e21 * u + e22 * du
            us.append(u)
            dus.append(du)
        self.node_u = np.array(us)
        self.node_du = np.array(dus)
        if not (np.all(np.isfinite(self.node_u)) and np.all(np.isfinite(self.node_du))):
            raise NonFiniteState("propagation produced non-finite values")
        self.end = u, du

    def eval(self, x):
        xs = np.asarray(x, dtype=float)
        flat = np.atleast_1d(xs).ravel()
        # Mirror a backward segment so searchsorted sees increasing nodes.
        sign = 1.0 if self.h > 0 else -1.0
        k = np.searchsorted(sign * self.nodes, sign * flat, side="right") - 1
        k = np.clip(k, 0, len(self.nodes) - 1)
        t = flat - self.nodes[k]
        qv = self.piece.evaluate(self.nodes[k][:, None]
                                 + t[:, None] * np.asarray(_GAUSS_OFFSETS)[None, :])
        steps = [e[:, 0] for e in magnus_steps(qv, t, self.lam_f)]
        u, du = _product(steps, (self.node_u[k], self.node_du[k]))
        return u.reshape(xs.shape), du.reshape(xs.shape)


# ----------------------------------------------------------------------
# Piecewise solutions
# ----------------------------------------------------------------------

@dataclass
class PiecewiseSolution:
    """A shot solution: dense per-subinterval trajectories plus interface states.

    segments[j] covers subinterval j. left_states[j]/right_states[j] are the
    exact chained states at the ends of subinterval j, so the one-sided
    values at interface i are right_states[i] (the h_i - 0 side) and
    left_states[i+1] (the h_i + 0 side). scale multiplies everything
    (eigenfunction normalization uses it).
    """

    problem: ValidatedProblem
    lam: float
    segments: list
    left_states: list
    right_states: list
    scale: float = 1.0

    def eval(self, x, side: str | None = None):
        """(u, u') at x, applying the overall scale.

        At an interface point the left-side value is returned unless
        side='right'. Vectorized over x (side then applies to every
        interface hit): the points on constant segments take one exact step
        together, from their own segment's start, and each other segment
        evaluates its points in one batch. Segments work pointwise, so one
        call over the points of several subintervals gives the same bits as
        one call per subinterval.
        Raises OutOfDomain for x outside [-1, 1] and for non-finite x.
        """
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if not ((xs >= -1.0) & (xs <= 1.0)).all():
            raise OutOfDomain("evaluation outside [-1, 1]")
        # Interface points land on the left piece unless side='right'.
        idx = np.asarray(self.problem.interfaces).searchsorted(
            xs, side="right" if side == "right" else "left")
        u = np.empty_like(xs)
        du = np.empty_like(xs)
        const = [isinstance(seg, ConstantSegment) for seg in self.segments]
        on_const = np.asarray(const)[idx]
        if on_const.any():
            table = np.array([(seg.a, seg.w, seg.u0, seg.du0) if c else (0.0,) * 4
                              for seg, c in zip(self.segments, const)])
            a, w, u0, du0 = table.take(idx[on_const], axis=0).T
            u[on_const], du[on_const] = constant_step(w, xs[on_const] - a, u0, du0)
        for j in np.flatnonzero(np.bincount(idx[~on_const])):
            sel = idx == j
            u[sel], du[sel] = self.segments[j].eval(xs[sel])
        u *= self.scale
        du *= self.scale
        if scalar:
            return float(u[0]), float(du[0])
        return u, du

    def u(self, x, side: str | None = None):
        return self.eval(x, side)[0]

    def boundary_state(self, which: str) -> tuple:
        """(u, u') at x=-1 ('left') or x=+1 ('right'), scale applied.
        Raises NonFiniteState if either is not finite."""
        state = self.left_states[0] if which == "left" else self.right_states[-1]
        u, du = self.scale * np.asarray(state)
        if not (np.isfinite(u) and np.isfinite(du)):
            raise NonFiniteState(f"state ({u}, {du}) is not finite")
        return u, du

    def transmission_residual(self) -> float:
        """Max relative violation of u(h-0) = delta u(h+0) (and u')."""
        worst = 0.0
        for i, d in enumerate(self.problem.jumps):
            um, dum = self.right_states[i]
            up, dup = self.left_states[i + 1]
            scale = max(abs(um), abs(dum), abs(up), abs(dup), 1e-300)
            worst = max(worst,
                        abs(um - d * up) / scale,
                        abs(dum - d * dup) / scale)
        return worst

    def scaled(self, c: float) -> "PiecewiseSolution":
        return replace(self, scale=self.scale * c)

    def to_csv(self, path) -> None:
        """Dump the trajectory as CSV columns (x, u, du), CSV_SAMPLES
        points per subinterval, both ends included, each end from its own
        subinterval: so an interface appears twice, with u(h-0) = delta u(h+0)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "u", "du"])
            for a, b in self.problem.subintervals():
                xs = np.linspace(a, b, CSV_SAMPLES)
                u, du = self.eval(xs)
                u[0], du[0] = self.eval(a, side="right")
                for xi, ui, dui in zip(xs, u, du):
                    writer.writerow([repr(float(xi)), repr(float(ui)), repr(float(dui))])


def _shoot(problem, lam, backward):
    vp = as_validated(problem)
    lam = float(lam)

    def cross(piece, x0, x1, u, du):
        if piece.is_constant:
            seg = ConstantSegment(x0, x1, piece.constant_value - lam, u, du)
        else:
            seg = MagnusSegment(piece, x0, x1, lam, u, du)
        return seg, float(seg.end[0]), float(seg.end[1])

    return PiecewiseSolution(vp, lam, *chain(vp, lam, cross, backward=backward))


def shoot_phi(problem, lam: float) -> PiecewiseSolution:
    """Left solution: starts at x=-1 with (alpha_2, -alpha_1).

    Crossing interface i divides the state by delta_i, which enforces the
    transmission conditions; see :func:`sltrans.propagator.chain`.
    """
    return _shoot(problem, lam, backward=False)


def shoot_chi(problem, lam: float) -> PiecewiseSolution:
    """Right solution: starts at x=1 with (b2'*lam + b2, b1'*lam + b1).

    Integrates right to left; crossing interface i multiplies the state by
    delta_i. By construction it satisfies the lambda-dependent right
    boundary condition for every lambda.
    """
    return _shoot(problem, lam, backward=True)


# ----------------------------------------------------------------------
# Picard (successive approximation) cross-check
# ----------------------------------------------------------------------

class _PanelGL:
    """Composite Gauss-Legendre panels with cumulative partial integrals.

    Holds the node layout on [a, b]; integrands are supplied as node-value
    arrays. Partial integrals up to an arbitrary point reuse the same rule
    on the subrange, interpolating the integrand from the panel's nodes
    (barycentric, same reference nodes for every panel).
    """

    def __init__(self, a: float, b: float, n_panels: int):
        self.a = a
        self.b = b
        self.edges = np.linspace(a, b, n_panels + 1)
        self.ref_x, self.ref_w = _gauss_rule(PICARD_NODES)
        x, w = panel_nodes(a, b, n_panels, PICARD_NODES)
        self.nodes = x.reshape(n_panels, PICARD_NODES)   # (P, g)
        self.node_w = w.reshape(n_panels, PICARD_NODES)
        # Barycentric weights for the reference nodes.
        diff = self.ref_x[:, None] - self.ref_x[None, :]
        np.fill_diagonal(diff, 1.0)
        self.bary_w = 1.0 / np.prod(diff, axis=1)

    def interp(self, values, panel: int, x):
        """Barycentric interpolation of node values within one panel."""
        lo, hi = self.edges[panel], self.edges[panel + 1]
        t = 2.0 * (np.asarray(x, float) - lo) / (hi - lo) - 1.0
        t = np.atleast_1d(t)
        num = np.zeros_like(t)
        den = np.zeros_like(t)
        exact = np.full(t.shape, -1, dtype=int)
        for k, tk in enumerate(self.ref_x):
            d = t - tk
            hit = np.abs(d) < 1e-14
            exact[hit] = k
            d[hit] = 1.0
            c = self.bary_w[k] / d
            num += c * values[panel, k]
            den += c
        out = num / den
        fix = exact >= 0
        if np.any(fix):
            out[fix] = values[panel, exact[fix]]
        return out

    def cumulative_at_edges(self, values):
        """Integral from a to each panel edge given integrand node values."""
        per_panel = np.sum(values * self.node_w, axis=1)
        return np.concatenate([[0.0], np.cumsum(per_panel)])

    def partial(self, values, cum_edges, x: float) -> float:
        """Integral from a to x."""
        p = int(np.searchsorted(self.edges, x, side="right")) - 1
        p = max(0, min(p, len(self.edges) - 2))
        lo = self.edges[p]
        if x <= lo:
            return float(cum_edges[p])
        half = 0.5 * (x - lo)
        mid = 0.5 * (x + lo)
        sub_x = mid + half * self.ref_x
        sub_v = self.interp(values, p, sub_x)
        return float(cum_edges[p] + half * np.dot(self.ref_w, sub_v))


class PicardSegment:
    """Trajectory on one piece in the integral-equation representation.

    u(x) = A cos(s(x-a)) + (B/s) sin(s(x-a))
           + (1/s) * [sin(sx) * Ic(x) - cos(sx) * Is(x)]

    where Ic, Is are the running integrals of cos(sy) q(y) u(y) and
    sin(sy) q(y) u(y). The derivative swaps the trig factors accordingly.
    """

    def __init__(self, a, b, s, A, B, grid: _PanelGL, node_u, piece):
        self.a = a
        self.b = b
        self.s = s
        self.A = A
        self.B = B
        self.grid = grid
        self.node_u = node_u
        q_nodes = piece.evaluate(grid.nodes)
        self._gc = np.cos(s * grid.nodes) * q_nodes * node_u
        self._gs = np.sin(s * grid.nodes) * q_nodes * node_u
        self._cum_c = grid.cumulative_at_edges(self._gc)
        self._cum_s = grid.cumulative_at_edges(self._gs)

    def eval(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        u = np.empty_like(xs)
        du = np.empty_like(xs)
        s, A, B = self.s, self.A, self.B
        for i, xi in enumerate(xs):
            t = xi - self.a
            ic = self.grid.partial(self._gc, self._cum_c, xi)
            is_ = self.grid.partial(self._gs, self._cum_s, xi)
            u[i] = (A * np.cos(s * t) + (B / s) * np.sin(s * t)
                    + (np.sin(s * xi) * ic - np.cos(s * xi) * is_) / s)
            du[i] = (-A * s * np.sin(s * t) + B * np.cos(s * t)
                     + np.cos(s * xi) * ic + np.sin(s * xi) * is_)
        if np.asarray(x).ndim == 0:
            return float(u[0]), float(du[0])
        return u, du


def picard_phi(problem, lam: float) -> PiecewiseSolution:
    """Left solution by successive approximation of the integral equations.

    Independent of the differential integrators: each subinterval solves

        u(x) = u(a) cos(s(x-a)) + (u'(a)/s) sin(s(x-a))
               + (1/s) int_a^x sin(s(x-y)) q(y) u(y) dy

    by at most PICARD_ITERATIONS Picard iterations on composite
    Gauss-Legendre panels of PICARD_NODES nodes (panel count tied to |s|),
    chaining interface values with the 1/delta jumps. Requires
    lambda = s^2 > 0. Raises NonConvergence if the final update is still
    above PICARD_TOL relative to the solution size.
    """
    vp = as_validated(problem)
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("picard_phi requires lambda = s^2 with s real and nonzero")
    s = float(np.sqrt(lam))

    segments, left_states, right_states = [], [], []
    u0, du0 = vp.alpha2, -vp.alpha1
    bp = vp.breakpoints
    worst_update = 0.0
    for j, piece in enumerate(vp.pieces):
        a, b = bp[j], bp[j + 1]
        n_panels = max(2, int(np.ceil((b - a) * (abs(s) + 4.0) / np.pi)))
        grid = _PanelGL(a, b, n_panels)
        xs = grid.nodes
        t = xs - a
        A, B = u0, du0
        base = A * np.cos(s * t) + (B / s) * np.sin(s * t)
        q_nodes = piece.evaluate(xs)
        cos_sx = np.cos(s * xs)
        sin_sx = np.sin(s * xs)
        u_nodes = base.copy()
        update = np.inf
        for _ in range(PICARD_ITERATIONS):
            gc = cos_sx * q_nodes * u_nodes
            gs = sin_sx * q_nodes * u_nodes
            cum_c = grid.cumulative_at_edges(gc)
            cum_s = grid.cumulative_at_edges(gs)
            new_u = np.empty_like(u_nodes)
            for p in range(xs.shape[0]):
                for k in range(xs.shape[1]):
                    xi = xs[p, k]
                    ic = grid.partial(gc, cum_c, xi)
                    is_ = grid.partial(gs, cum_s, xi)
                    new_u[p, k] = base[p, k] + (sin_sx[p, k] * ic - cos_sx[p, k] * is_) / s
            update = float(np.max(np.abs(new_u - u_nodes)))
            u_nodes = new_u
            if update == 0.0:
                break
        scale = max(1.0, float(np.max(np.abs(u_nodes))))
        worst_update = max(worst_update, update / scale)
        seg = PicardSegment(a, b, s, A, B, grid, u_nodes, piece)
        segments.append(seg)
        left_states.append((u0, du0))
        ub, dub = seg.eval(b)
        right_states.append((ub, dub))
        u0, du0 = ub, dub
        if j < vp.m:
            u0 /= vp.jumps[j]
            du0 /= vp.jumps[j]
    if worst_update > PICARD_TOL:
        raise NonConvergence(
            f"picard update still {worst_update:.3e} after {PICARD_ITERATIONS} iterations"
        )
    return PiecewiseSolution(vp, lam, segments, left_states, right_states)
