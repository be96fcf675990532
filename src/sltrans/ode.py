"""Dense initial-value integration of -u'' + q u = lambda u across subintervals.

Builds the two shot solutions used throughout: the left solution (started
at x = -1 from the left boundary condition) and the right solution (started
at x = 1 from the lambda-dependent right boundary data). Both carry the
interface jumps so that u(h-0) = delta * u(h+0) and likewise for u'.

Both run on :func:`sltrans.propagator.chain`, which holds the start states
and the jump rule, and on its propagation kernel, so dense trajectories and
the characteristic function share one chain and one integrator.
Constant-q pieces get the exact closed-form transfer. Variable-q pieces take
the step count the fourth-order Magnus ladder settles on (rtol 1e-12 by
default), store the state at every step node as the running product of the
step matrices, and reach a point between nodes with one partial Magnus step.
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


class NonConvergence(RuntimeError):
    """Successive approximation failed to contract within the iteration budget."""


@dataclass(frozen=True)
class StateVector:
    """Solution value and first derivative at a point."""

    u: float
    du: float

    def __post_init__(self):
        if not (np.isfinite(self.u) and np.isfinite(self.du)):
            raise NonFiniteState(f"state ({self.u}, {self.du}) is not finite")

    def __iter__(self):
        return iter((self.u, self.du))

    def scaled(self, c: float) -> "StateVector":
        return StateVector(self.u * c, self.du * c)


# ----------------------------------------------------------------------
# Dense segments
# ----------------------------------------------------------------------

class ConstantSegment:
    """Exact trajectory on a piece where q is constant."""

    def __init__(self, a: float, b: float, w: float, u0: float, du0: float):
        self.a = a
        self.b = b
        self.w = w
        self.u0 = u0
        self.du0 = du0

    def eval(self, x):
        t = np.asarray(x, dtype=float) - self.a
        return constant_step(self.w, t, self.u0, self.du0)


class MagnusSegment:
    """Dense fourth-order Magnus trajectory on a piece with variable q.

    The step count is the one the Magnus ladder accepts for this start
    state, with the stop test scaled by at least the start state's size.
    The state at node k (x = a + k h) is the running product of the first
    k step matrices applied to the start state.
    """

    def __init__(self, piece, a: float, b: float, lam: float, u0: float,
                 du0: float, rtol: float):
        qv, h, _ = magnus_ladder(piece, a, b, lam, u0, du0, rtol=rtol,
                                 scale_floor=max(1.0, abs(u0), abs(du0)))
        self.h = h
        self.piece = piece
        self.lam_f = np.full((1, 1), lam)
        n = qv.shape[0]
        self.nodes = a + h * np.arange(n + 1)
        # The last node is b itself, so eval(b) returns the chained end state.
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


def _integrate_dense(piece, a: float, b: float, lam: float, init, rtol):
    """Dense trajectory over [a, b] (either direction) within one piece."""
    u0, du0 = init
    if piece.is_constant:
        return ConstantSegment(a, b, piece.constant_value - lam, u0, du0)
    return MagnusSegment(piece, a, b, lam, u0, du0, rtol)


def integrate_segment(problem, lam: float, interval, init, at: str = "a",
                      rtol: float = 1e-12):
    """Integrate one segment lying inside a single subinterval closure.

    init is the state at endpoint `at` ('a' or 'b'); integration runs toward
    the other endpoint. Returns a dense trajectory with an eval(x) method.
    """
    vp = as_validated(problem)
    a, b = float(interval[0]), float(interval[1])
    if a >= b:
        raise ValueError("interval must satisfy a < b")
    if a < -1.0 or b > 1.0:
        raise OutOfDomain(f"segment [{a}, {b}] leaves [-1, 1]")
    for h in vp.interfaces:
        if a < h < b:
            raise ValueError(f"segment [{a}, {b}] spans the interface at {h}")
    mid = 0.5 * (a + b)
    piece = vp.pieces[vp.subinterval_index(mid)]
    init = StateVector(*init) if not isinstance(init, StateVector) else init
    if at == "a":
        return _integrate_dense(piece, a, b, lam, (init.u, init.du), rtol)
    if at == "b":
        return _integrate_dense(piece, b, a, lam, (init.u, init.du), rtol)
    raise ValueError("at must be 'a' or 'b'")


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

    def du(self, x, side: str | None = None):
        return self.eval(x, side)[1]

    def boundary_state(self, which: str) -> StateVector:
        """State at x=-1 ('left') or x=+1 ('right')."""
        state = self.left_states[0] if which == "left" else self.right_states[-1]
        return StateVector(*(self.scale * np.asarray(state)))

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

    def ode_residual(self, samples_per_piece: int = 7, fd_step: float = 1e-5) -> float:
        """Max relative defect of -u'' + q u = lambda u on interior samples.

        u'' is taken as a centered difference of the stored derivative, so
        this measures the trajectory's internal consistency.
        """
        worst = 0.0
        for j, (a, b) in enumerate(self.problem.subintervals()):
            pad = (b - a) * 0.05 + fd_step
            xs = np.linspace(a + pad, b - pad, samples_per_piece)
            u, _ = self.eval(xs)
            _, dup = self.eval(xs + fd_step)
            _, dum = self.eval(xs - fd_step)
            upp = (dup - dum) / (2.0 * fd_step)
            q = self.problem.pieces[j].evaluate(xs)
            resid = np.abs(upp - (q - self.lam) * u)
            scale = max(float(np.max(np.abs(u))) * max(abs(self.lam), 1.0), 1e-12)
            worst = max(worst, float(np.max(resid)) / scale)
        return worst

    def scaled(self, c: float) -> "PiecewiseSolution":
        return replace(self, scale=self.scale * c)

    def to_csv(self, path, samples_per_piece: int = 200) -> None:
        """Dump the trajectory as CSV columns (x, u, du)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "u", "du"])
            for a, b in self.problem.subintervals():
                xs = np.linspace(a, b, samples_per_piece)
                u, du = self.eval(xs)
                for xi, ui, dui in zip(xs, u, du):
                    writer.writerow([repr(float(xi)), repr(float(ui)), repr(float(dui))])


def _shoot(problem, lam, rtol, backward):
    vp = as_validated(problem)
    lam = float(lam)

    def cross(piece, x0, x1, u, du):
        seg = _integrate_dense(piece, x0, x1, lam, (u, du), rtol)
        u1, du1 = seg.eval(x1)
        return seg, float(u1), float(du1)

    return PiecewiseSolution(vp, lam, *chain(vp, lam, cross, backward=backward))


def shoot_phi(problem, lam: float, *, rtol: float = 1e-12) -> PiecewiseSolution:
    """Left solution: starts at x=-1 with (alpha_2, -alpha_1).

    Crossing interface i divides the state by delta_i, which enforces the
    transmission conditions; see :func:`sltrans.propagator.chain`.
    """
    return _shoot(problem, lam, rtol, backward=False)


def shoot_chi(problem, lam: float, *, rtol: float = 1e-12) -> PiecewiseSolution:
    """Right solution: starts at x=1 with (b2'*lam + b2, b1'*lam + b1).

    Integrates right to left; crossing interface i multiplies the state by
    delta_i. By construction it satisfies the lambda-dependent right
    boundary condition for every lambda.
    """
    return _shoot(problem, lam, rtol, backward=True)


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

    def __init__(self, a: float, b: float, n_panels: int, n_nodes: int = 12):
        self.a = a
        self.b = b
        self.edges = np.linspace(a, b, n_panels + 1)
        self.ref_x, self.ref_w = _gauss_rule(n_nodes)
        x, w = panel_nodes(a, b, n_panels, n_nodes)
        self.nodes = x.reshape(n_panels, n_nodes)   # (P, g)
        self.node_w = w.reshape(n_panels, n_nodes)
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


def picard_phi(problem, lam: float, iterations: int = 30, *,
               tol: float = 1e-9, nodes_per_panel: int = 12) -> PiecewiseSolution:
    """Left solution by successive approximation of the integral equations.

    Independent of the differential integrators: each subinterval solves

        u(x) = u(a) cos(s(x-a)) + (u'(a)/s) sin(s(x-a))
               + (1/s) int_a^x sin(s(x-y)) q(y) u(y) dy

    by Picard iteration on composite Gauss-Legendre panels (panel count tied
    to |s|), chaining interface values with the 1/delta jumps. Requires
    lambda = s^2 > 0. Raises NonConvergence if the final update is still
    above tol relative to the solution size.
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
    update_history = []
    for j, piece in enumerate(vp.pieces):
        a, b = bp[j], bp[j + 1]
        n_panels = max(2, int(np.ceil((b - a) * (abs(s) + 4.0) / np.pi)))
        grid = _PanelGL(a, b, n_panels, nodes_per_panel)
        xs = grid.nodes
        t = xs - a
        A, B = u0, du0
        base = A * np.cos(s * t) + (B / s) * np.sin(s * t)
        q_nodes = piece.evaluate(xs)
        cos_sx = np.cos(s * xs)
        sin_sx = np.sin(s * xs)
        u_nodes = base.copy()
        update = np.inf
        piece_updates = []
        for _ in range(iterations):
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
            piece_updates.append(update)
            u_nodes = new_u
            if update == 0.0:
                break
        update_history.append(piece_updates)
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
    if worst_update > tol:
        raise NonConvergence(
            f"picard update still {worst_update:.3e} after {iterations} iterations"
        )
    sol = PiecewiseSolution(vp, lam, segments, left_states, right_states)
    sol.picard_updates = update_history
    return sol
