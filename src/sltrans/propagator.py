"""Fast endpoint propagation of u'' = (q(x) - lambda) u across subintervals.

This module powers characteristic-function scans and root refinement, where
only boundary/interface states are needed and the same problem is evaluated
at many lambda. States are propagated with 2x2 transfer matrices:

* constant-q pieces use the exact trigonometric/hyperbolic matrix in a
  single step;
* variable-q pieces use a fourth-order Magnus scheme on two-point Gauss
  nodes with step doubling until the endpoint state stabilizes. The scheme
  reduces to the exact matrix when q is constant, and its error constant
  depends on the variation of q rather than on lambda, so large-lambda
  scans stay cheap. The node potentials do not depend on lambda either:
  they are computed once per piece and step count and kept on the piece
  (see :attr:`sltrans.problem.PotentialPiece.memo`), so every ladder, N(lambda)
  call and dense shot on the same problem reuses them.

All functions are vectorized over a lambda array and return states at
piece ends only. :func:`chain` is the one place that knows the start states
of the two shot solutions and the interface jump rule; the endpoint states
(:func:`endpoint_chain`), the dense trajectories of :mod:`sltrans.ode` and
the eigenvalue count each run on it with their own per-piece crossing.
:mod:`sltrans.ode` builds its dense (plottable) trajectories of one lambda
from the same kernel: :func:`magnus_ladder` picks the step count and
:func:`magnus_steps` gives the step matrices it chains.
"""

from __future__ import annotations

import numpy as np

from .problem import as_validated

_SQRT3 = np.sqrt(3.0)
_GAUSS_OFFSETS = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)


class NonFiniteState(RuntimeError):
    """Propagation produced a NaN or infinity."""


class StepSizeUnderflow(RuntimeError):
    """Step refinement hit its budget without stabilizing: on the piece
    `interval` the passes with n_steps / 2 and `n_steps` steps still
    disagree. `lam` is the worst-off lambda of the batch, whose endpoint
    state moved by `gap` where the stop test allowed rtol * `scale`."""

    def __init__(self, message: str, *, interval=None, n_steps=None,
                 lam=None, gap=None, scale=None):
        super().__init__(message)
        self.interval, self.n_steps = interval, n_steps
        self.lam, self.gap, self.scale = lam, gap, scale


_TAYLOR_RADIUS = 1e-8


def _hyperbolic(z):
    r = np.sqrt(z)
    return np.cosh(r), np.sinh(r) / r


def _trigonometric(z):
    r = np.sqrt(-z)
    return np.cos(r), np.sin(r) / r


def _taylor(z):
    return 1.0 + z / 2.0 + z * z / 24.0, 1.0 + z / 6.0 + z * z / 120.0


def cos_sinc(z):
    """Stable (C, S) with C = cos(sqrt(-z)) and S = sin(sqrt(-z))/sqrt(-z).

    For z > 0 the pair continues to (cosh(sqrt(z)), sinh(sqrt(z))/sqrt(z));
    near z = 0 a Taylor series avoids the 0/0. Both are entire functions of
    z, which is what makes the propagation seamless across lambda = q.

    Complex z is accepted too (the entire-function branch applies), which
    lets callers differentiate in lambda by a complex step.

    When every z takes one branch (the usual case for the points of one
    piece at one lambda) that branch runs on the whole array with no masks;
    otherwise each branch runs on its masked part. Float64 ufuncs give the
    same bits either way. Every z lands in exactly one branch, NaN
    included (the Taylor branch takes what the others leave), so NaN in
    gives NaN out.
    """
    z = np.asarray(z)
    cplx = np.iscomplexobj(z)
    z = np.asarray(z, dtype=complex if cplx else float)
    shape = z.shape
    z = np.atleast_1d(z)
    if cplx:
        branches = [(~(np.abs(z) < _TAYLOR_RADIUS), _hyperbolic)]
    else:
        branches = [(z >= _TAYLOR_RADIUS, _hyperbolic),
                    (z <= -_TAYLOR_RADIUS, _trigonometric)]
    for sel, branch in branches:
        if sel.all():
            C, S = branch(z)
            return C.reshape(shape), S.reshape(shape)
    branches.append((~np.logical_or.reduce([sel for sel, _ in branches]), _taylor))
    C = np.empty_like(z)
    S = np.empty_like(z)
    for sel, branch in branches:
        if sel.any():
            C[sel], S[sel] = branch(z[sel])
    return C.reshape(shape), S.reshape(shape)


def constant_step(w, t, u, du):
    """Exact transfer over a step of length t with constant w = q - lambda."""
    z = w * t * t
    C, S = cos_sinc(z)
    u_new = C * u + t * S * du
    du_new = w * t * S * u + C * du
    return u_new, du_new


def magnus_exponent(qvals, h, lam_f):
    """(d, wbar, z) of the step exponents Omega = [[d, h], [h * wbar, -d]],
    Omega^2 = z I, shaped as in :func:`magnus_steps`."""
    q1 = qvals[:, 0][:, None]
    q2 = qvals[:, 1][:, None]
    wbar = 0.5 * (q1 + q2) - lam_f
    d = (-(_SQRT3 * h * h / 12.0)) * (q2 - q1)
    z = d * d + (h * h) * wbar
    return d, wbar, z


def magnus_steps(qvals, h, lam_f):
    """Entries (e11, e12, e21, e22) of fourth-order Magnus step matrices.

    qvals has shape (n_steps, 2): the potential at the two Gauss nodes of
    each step. h is the signed step, a scalar or an (n_steps, 1) column.
    lam_f is a (1, n_lam) row; every entry comes out (n_steps, n_lam).
    """
    d, wbar, z = magnus_exponent(qvals, h, lam_f)
    C, S = cos_sinc(z)
    e11 = C + S * d
    e22 = C - S * d
    e12 = S * h + np.zeros_like(C)
    e21 = S * h * wbar
    return e11, e12, e21, e22


def _magnus_pass(qvals, h, lam, u, du):
    """One sweep of fourth-order Magnus steps.

    qvals has shape (n_steps, 2): the potential at the two Gauss nodes of
    each step. h is the signed step. lam, u, du are broadcastable arrays.

    All step matrices are formed at once (vectorized over steps and over
    the lambda batch) and combined by pairwise products, so the Python-level
    work is log2(n_steps) array operations instead of n_steps of them. The
    pairing keeps chronological order: entry 2k+1 acts after entry 2k, and
    an odd leftover (the latest block) stays at the tail for the next level.
    """
    target = np.broadcast_shapes(np.shape(lam), np.shape(u), np.shape(du))
    lam_f = np.reshape(np.broadcast_to(np.asarray(lam), target), (1, -1))
    u0 = np.reshape(np.broadcast_to(np.asarray(u), target), (-1,))
    du0 = np.reshape(np.broadcast_to(np.asarray(du), target), (-1,))
    e11, e12, e21, e22 = magnus_steps(qvals, h, lam_f)

    while e11.shape[0] > 1:
        m = e11.shape[0]
        even = (m // 2) * 2
        a11, a12 = e11[1:even:2], e12[1:even:2]
        a21, a22 = e21[1:even:2], e22[1:even:2]
        b11, b12 = e11[0:even:2], e12[0:even:2]
        b21, b22 = e21[0:even:2], e22[0:even:2]
        c11 = a11 * b11 + a12 * b21
        c12 = a11 * b12 + a12 * b22
        c21 = a21 * b11 + a22 * b21
        c22 = a21 * b12 + a22 * b22
        if m % 2:
            c11 = np.concatenate([c11, e11[-1:]])
            c12 = np.concatenate([c12, e12[-1:]])
            c21 = np.concatenate([c21, e21[-1:]])
            c22 = np.concatenate([c22, e22[-1:]])
        e11, e12, e21, e22 = c11, c12, c21, c22

    u_new = e11[0] * u0 + e12[0] * du0
    du_new = e21[0] * u0 + e22[0] * du0
    return u_new.reshape(target), du_new.reshape(target)


def magnus_nodes(qvals, h, lam, u, du):
    """(u, du) at every Magnus node, each (n_steps + 1, n_lam), up to a
    positive factor per entry; lam, u and du are 1-D of length n_lam.

    The prefix products of the step matrices take log2(n_steps) doubling
    passes, each rescaled to unit max-norm, which keeps the direction.
    """
    e = list(magnus_steps(qvals, h, np.reshape(lam, (1, -1))))
    span = 1
    while span < e[0].shape[0]:
        a11, a12, a21, a22 = (x[span:] for x in e)
        b11, b12, b21, b22 = (x[:-span] for x in e)
        c = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
        scale = np.max(np.abs(np.stack(c)), axis=0)
        e = [np.concatenate([x[:span], y / scale]) for x, y in zip(e, c)]
        span *= 2
    e11, e12, e21, e22 = e
    u_nodes = np.concatenate([u[None, :], e11 * u + e12 * du])
    du_nodes = np.concatenate([du[None, :], e21 * u + e22 * du])
    return u_nodes, du_nodes


def _piece_node_q(piece, x0: float, x1: float, n_steps: int):
    """Potential values at the Magnus Gauss nodes of each step, and h.

    They do not depend on lambda, so each (x0, x1, n_steps) is evaluated
    once per piece and kept, read-only, in ``piece.memo``.
    """
    key = (x0, x1, n_steps)
    hit = piece.memo.get(key)
    if hit is None:
        h = (x1 - x0) / n_steps
        starts = x0 + h * np.arange(n_steps)
        xs = starts[:, None] + h * np.asarray(_GAUSS_OFFSETS)[None, :]
        qvals = piece.evaluate(xs)
        qvals.setflags(write=False)
        hit = piece.memo[key] = (qvals, h)
    return hit


def magnus_ladder(piece, x0: float, x1: float, lam, u, du, *,
                  rtol: float = 1e-12, scale_floor: float = 1.0):
    """Double the Magnus step count on a variable piece until it settles.

    Passes go from x0 to x1 (x1 < x0 integrates backwards) and stop once the
    endpoint state moves by at most rtol * max(|u(x1)|, |u'(x1)|,
    scale_floor). Returns (qvals, h, (u1, du1)) of the accepted pass.
    """
    n = max(8, int(np.ceil(16 * abs(x1 - x0))))
    qv, h = _piece_node_q(piece, x0, x1, n)
    cur = _magnus_pass(qv, h, lam, u, du)
    for _ in range(9):
        n *= 2
        qv, h = _piece_node_q(piece, x0, x1, n)
        nxt = _magnus_pass(qv, h, lam, u, du)
        scale = np.maximum(np.maximum(np.abs(nxt[0]), np.abs(nxt[1])), scale_floor)
        gap = np.maximum(np.abs(nxt[0] - cur[0]), np.abs(nxt[1] - cur[1]))
        if np.all(gap <= rtol * scale):
            if not (np.all(np.isfinite(nxt[0])) and np.all(np.isfinite(nxt[1]))):
                raise NonFiniteState("propagation produced non-finite values")
            return qv, h, nxt
        cur = nxt
    k = int(np.argmax(np.ravel(gap / scale)))
    worst = np.ravel(np.broadcast_to(lam, np.shape(gap)))[k].item()
    raise StepSizeUnderflow(
        f"piece [{x0}, {x1}] did not stabilize within {n} Magnus steps "
        f"(worst at lambda = {worst})",
        interval=(x0, x1), n_steps=n, lam=worst,
        gap=float(np.ravel(gap)[k]), scale=float(np.ravel(scale)[k]))


def propagate_piece(piece, x0: float, x1: float, lam, u, du, *, rtol: float = 1e-12):
    """Propagate a state across one potential piece from x0 to x1.

    x1 < x0 integrates backwards. Constant pieces are exact in one step;
    otherwise the Magnus step count doubles until the endpoint state moves
    by less than rtol (relative to the state magnitude, floored at 1).
    """
    if x1 == x0:
        return u, du
    lam = np.asarray(lam)
    if not np.iscomplexobj(lam):
        lam = lam.astype(float)
    if piece.is_constant:
        w = piece.constant_value - lam
        return constant_step(w, x1 - x0, u, du)
    return magnus_ladder(piece, x0, x1, lam, u, du, rtol=rtol)[2]


def chain(problem, lam, cross, *, backward=False):
    """Carry a shot solution across every subinterval, with its jumps.

    The left solution starts at x = -1 from (alpha_2, -alpha_1) and divides
    the state by delta_i after crossing interface i; the right solution
    (backward=True) starts at x = 1 from (beta_2'*lambda + beta_2,
    beta_1'*lambda + beta_1) and multiplies it by delta_i. Either way the
    one-sided values satisfy u(h_i-0) = delta_i * u(h_i+0), and so does u'.

    cross(piece, x0, x1, u, du) -> (segment, u1, du1) carries a state over
    one piece. Returns (segments, left, right): per subinterval j, whatever
    cross made there and the (u, du) at its left and right ends.
    """
    vp = as_validated(problem)
    bp = vp.breakpoints
    if backward:
        u, du = vp.beta2p * lam + vp.beta2, vp.beta1p * lam + vp.beta1
        order = range(vp.m, -1, -1)
    else:
        u, du = np.full_like(lam, vp.alpha2), np.full_like(lam, -vp.alpha1)
        order = range(vp.m + 1)
    segments, starts, ends = [], [], []
    for j in order:
        if starts:  # the interface just crossed
            jump = vp.jumps[j] if backward else 1.0 / vp.jumps[j - 1]
            u, du = u * jump, du * jump
        starts.append((u, du))
        x0, x1 = (bp[j + 1], bp[j]) if backward else (bp[j], bp[j + 1])
        seg, u, du = cross(vp.pieces[j], x0, x1, u, du)
        segments.append(seg)
        ends.append((u, du))
    if backward:
        return segments[::-1], ends[::-1], starts[::-1]
    return segments, starts, ends


def endpoint_chain(problem, lam, *, backward=False, rtol: float = 1e-12):
    """(left, right): the states of a shot solution at the two ends of every
    subinterval, each (u, du) an array over the lambda batch; see :func:`chain`.
    """
    lam = np.asarray(lam)
    if not np.iscomplexobj(lam):
        lam = lam.astype(float)

    def cross(piece, x0, x1, u, du):
        return (None, *propagate_piece(piece, x0, x1, lam, u, du, rtol=rtol))

    return chain(problem, lam, cross, backward=backward)[1:]


def phi_boundary_form(problem, lam, *, rtol: float = 1e-12):
    """(lambda*b1' + b1)*u(1) - (lambda*b2' + b2)*u'(1) for the left solution.

    The characteristic function is delta_sq_prod times this; see
    :func:`sltrans.characteristic.omega`.
    """
    vp = as_validated(problem)
    lam = np.asarray(lam)
    if not np.iscomplexobj(lam):
        lam = lam.astype(float)
    u1, du1 = endpoint_chain(vp, lam, rtol=rtol)[1][-1]
    return (vp.beta1p * lam + vp.beta1) * u1 - (vp.beta2p * lam + vp.beta2) * du1
