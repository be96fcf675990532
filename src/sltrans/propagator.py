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
* the step count a piece settles on hardly moves from one call to the
  next, so the ladder starts two levels below the piece's last settled
  count (:attr:`sltrans.problem.PotentialPiece.settled`) and falls back to
  the cold start when that could settle coarser; see :func:`magnus_ladder`
  for what stays bit-identical and for the fallback when no pair settles.

The kernel is lambda-major. :func:`magnus_steps` gives the step matrices
as two rows, (e11, e12) and (e21, e22), each one (2, n_lam, n_steps)
array, so every ufunc's inner loop runs along the steps, not along a
lambda batch that is often one long, and no array holds more than two
matrix entries. A batched sweep (:func:`_magnus_pass`, and the node
sweep of the eigenvalue count) runs in balanced blocks of lambda rows,
:func:`row_blocks`, each of at most BLOCK_ENTRIES = 2**18 lambda-steps
(a quarter of that in the node sweep), so a block's (2, n_lam, n_steps)
arrays hold at most 2**19 entries (4 MiB of float64) each, and the
working set of a wide scan or count does not grow with its width. Every
lambda's bits are its own in a batch, so the blocks move no bit.

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
# The lambda-steps one block of a batched Magnus sweep holds; see row_blocks.
# Smaller blocks hold less memory but page-fault more: glibc gives the
# freed top of the heap back to the system once it exceeds about twice the
# largest array of a block, so every call whose pass is over half a block
# maps its pages afresh. At 2**18 the passes of root refinement stay
# under that; at 2**16 a polynomial-q solve took 17 times the page faults.
BLOCK_ENTRIES = 1 << 18


class NonFiniteState(RuntimeError):
    """Propagation produced a NaN or infinity."""


class StepSizeUnderflow(RuntimeError):
    """Step refinement hit its budget without stabilizing: on the piece
    `interval` the passes with n_steps / 2 and `n_steps` steps still
    disagree, and no consecutive pair came within 100 rtol. `lam` is the
    worst-off lambda of the batch, whose endpoint state moved by `gap`
    where the stop test allowed rtol * `scale`."""

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


def _fill_real(z, trig, hyp):
    """(C, S) of real z that takes both the trigonometric and the
    hyperbolic branch: each branch's ufuncs write in place where its mask
    holds, so the long runs of one sign along a lambda row need no gather
    or scatter. The same ufunc reaches every element as in _trigonometric
    and _hyperbolic, so the bits are theirs. Elements in neither mask are
    left unset."""
    C = np.empty_like(z)
    S = np.empty_like(z)
    r = np.empty_like(z)
    np.negative(z, out=r, where=trig)
    np.sqrt(r, out=r, where=trig)
    np.cos(r, out=C, where=trig)
    np.sin(r, out=S, where=trig)
    np.divide(S, r, out=S, where=trig)
    np.sqrt(z, out=r, where=hyp)
    np.cosh(r, out=C, where=hyp)
    np.sinh(r, out=S, where=hyp)
    np.divide(S, r, out=S, where=hyp)
    return C, S


def cos_sinc(z):
    """Stable (C, S) with C = cos(sqrt(-z)) and S = sin(sqrt(-z))/sqrt(-z).

    For z > 0 the pair continues to (cosh(sqrt(z)), sinh(sqrt(z))/sqrt(z));
    near z = 0 a Taylor series avoids the 0/0. Both are entire functions of
    z, which is what makes the propagation seamless across lambda = q.

    Complex z is accepted too (the entire-function branch applies), which
    lets callers differentiate in lambda by a complex step.

    When every z takes one branch (the usual case for the points of one
    piece at one lambda) that branch runs on the whole array, of any shape,
    with no masks; otherwise real z runs each branch in place under its
    mask (_fill_real), and complex z and the Taylor remainder run on their
    gathered parts. Float64 ufuncs give the same bits either way. Every z
    lands in exactly one branch, NaN included (the Taylor branch takes what
    the others leave), so NaN in gives NaN out. C and S are arrays of z's
    shape, 0-d for a scalar: numpy multiplies complex scalars with other
    rounding than complex arrays, so scalars would move the complex-step
    omega' bits.
    """
    z = np.asarray(z)
    z = np.asarray(z, dtype=complex if z.dtype.kind == "c" else float)
    if z.dtype.kind == "c":
        branches = [(~(np.abs(z) < _TAYLOR_RADIUS), _hyperbolic)]
    else:
        branches = [(z <= -_TAYLOR_RADIUS, _trigonometric),
                    (z >= _TAYLOR_RADIUS, _hyperbolic)]
    for sel, branch in branches:
        if sel.all():
            C, S = branch(z)
            return np.asarray(C), np.asarray(S)
    masks = [sel for sel, _ in branches]
    if z.dtype.kind == "c":
        C, S = np.empty_like(z), np.empty_like(z)
        C[masks[0]], S[masks[0]] = _hyperbolic(z[masks[0]])
    else:
        C, S = _fill_real(z, *masks)
    rest = ~np.logical_or.reduce(masks)
    if rest.any():
        C[rest], S[rest] = _taylor(z[rest])
    return C, S


def constant_step(w, t, u, du):
    """Exact transfer over a step of length t with constant w = q - lambda."""
    z = w * t * t
    C, S = cos_sinc(z)
    u_new = C * u + t * S * du
    du_new = w * t * S * u + C * du
    return u_new, du_new


def magnus_exponent(qvals, h, lam_f):
    """(d, wbar, z) of the step exponents Omega = [[d, h], [h * wbar, -d]],
    Omega^2 = z I, for qvals (n_steps, 2), h a scalar or an (n_steps,) row
    and lam_f an (n_lam, 1) column: d is (n_steps,), wbar and z are
    (n_lam, n_steps)."""
    q1, q2 = qvals.T
    wbar = 0.5 * (q1 + q2) - lam_f
    d = (-(_SQRT3 * h * h / 12.0)) * (q2 - q1)
    z = d * d + (h * h) * wbar
    return d, wbar, z


def magnus_steps(qvals, h, lam_f):
    """The rows (e11, e12) and (e21, e22) of fourth-order Magnus step
    matrices, each a (2, n_lam, n_steps) array.

    qvals has shape (n_steps, 2): the potential at the two Gauss nodes of
    each step. h is the signed step, a scalar or an (n_steps,) row, and
    lam_f an (n_lam, 1) column.
    """
    d, wbar, z = magnus_exponent(qvals, h, lam_f)
    C, S = cos_sinc(z)
    del z
    top = np.empty((2, *C.shape), dtype=C.dtype)
    bottom = np.empty_like(top)
    np.multiply(S, d, out=bottom[1])
    np.add(C, bottom[1], out=top[0])
    np.subtract(C, bottom[1], out=bottom[1])
    np.multiply(S, h, out=top[1])
    np.multiply(top[1], wbar, out=bottom[0])
    return top, bottom


def _product(a, b):
    """The rows of the 2x2 products a b. a is a pair of rows as
    :func:`magnus_steps` gives them; b is a pair of rows, or a state
    (u, du), that broadcasts against a's entries. Row i is
    fl(fl(a_i1 b[0]) + fl(a_i2 b[1]))."""
    return [row[0] * b[0] + row[1] * b[1] for row in a]


def row_blocks(n_rows: int, n_steps: int) -> list[slice]:
    """Balanced slices of range(n_rows), each of at most
    max(1, BLOCK_ENTRIES // n_steps) rows: a lambda-batched sweep over
    n_steps steps runs one block at a time, so its working set is bounded
    by BLOCK_ENTRIES lambda-steps, not by the width of the batch."""
    n_blocks = max(1, -(-n_rows // max(1, BLOCK_ENTRIES // n_steps)))
    edges = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _magnus_pass(qvals, h, lam, u, du):
    """One sweep of fourth-order Magnus steps.

    qvals has shape (n_steps, 2): the potential at the two Gauss nodes of
    each step. h is the signed step. lam, u, du are broadcastable arrays.

    The batch runs in the row blocks of :func:`row_blocks`. In a block all
    step matrices are formed at once (vectorized over steps and lambda)
    and combined by pairwise products, so the Python-level work is
    log2(n_steps) array operations instead of n_steps of them. The pairing
    keeps chronological order: entry 2k+1 acts after entry 2k, and an odd
    leftover (the latest product) stays at the tail for the next level.
    Every lambda's bits are its own, so the row blocks do not move them.
    """
    lam, u, du = np.broadcast_arrays(lam, u, du)
    shape = lam.shape
    lam, u, du = lam.ravel(), u.ravel(), du.ravel()
    ends = []
    for rows in row_blocks(lam.size, len(qvals)):
        e = magnus_steps(qvals, h, lam[rows, None])
        while e[0].shape[-1] > 1:
            m = e[0].shape[-1]
            even = m - m % 2
            c = _product([x[..., 1:even:2] for x in e], [x[..., 0:even:2] for x in e])
            if m % 2:
                c = [np.concatenate([y, x[..., -1:]], axis=-1) for x, y in zip(e, c)]
            e = c
        ends.append(_product([x[..., 0] for x in e], (u[rows], du[rows])))
    return tuple(np.concatenate(col).reshape(shape) for col in zip(*ends))


def magnus_nodes(qvals, h, lam, u, du):
    """(u, du) at every Magnus node, each (n_lam, n_steps + 1), up to a
    positive factor per entry; lam, u and du are 1-D of length n_lam.

    The prefix products of the step matrices take log2(n_steps) doubling
    passes, each rescaled to unit max-norm, which keeps the direction.
    The result holds every node of every lambda, so a wide batch calls
    this once per :func:`row_blocks` block (as the eigenvalue count does);
    every lambda's bits are its own, whatever block it runs in.
    """
    e = magnus_steps(qvals, h, np.reshape(lam, (-1, 1)))
    span = 1
    while span < e[0].shape[-1]:
        c = _product([x[..., span:] for x in e], [x[..., :-span] for x in e])
        scale = np.maximum(*(np.max(np.abs(y), axis=0) for y in c))
        for x, y in zip(e, c):
            np.divide(y, scale, out=x[..., span:])
        span *= 2
    start = (u[:, None], du[:, None])
    return tuple(np.concatenate([s, y], axis=1) for s, y in zip(start, _product(e, start)))


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
    scale_floor) at every lambda. Returns (qvals, h, (u1, du1)) of the
    accepted pass.

    The cold ladder starts at n0 = max(8, ceil(16 |x1 - x0|)) steps and
    doubles up to 2**9 n0. The ladder keeps the step count M of its last
    accepted pass in ``piece.settled``, per (x0, x1) and per batch or
    single lambda, and starts the next call at M/4 instead (when that is
    above n0). If the passes at M/4 and M/2 already agree, the cold ladder
    might have stopped at M/2 or lower, so it starts over from n0, reusing
    the passes it has. So the warm ladder returns the cold ladder's pass
    whenever the cold gaps exceed the tolerance at every level below M/2;
    otherwise it settles finer than cold, never coarser.

    When no pair settles, the finer pass of the consecutive pair with the
    smallest worst gap / scale is taken for the whole batch, provided that
    is at most 100 rtol: the gap falls 16x per doubling until it reaches
    round-off, and one lambda left on that floor above rtol must not fail
    the batch. Otherwise :class:`StepSizeUnderflow` reports the last pair.
    """
    n_cold = max(8, int(np.ceil(16 * abs(x1 - x0))))
    n_max = n_cold << 9
    key = (x0, x1, np.size(lam) > 1)
    start = max(piece.settled.get(key, 0) // 4, n_cold)
    passes = {}

    def run(n):
        if n not in passes:
            passes[n] = _magnus_pass(*_piece_node_q(piece, x0, x1, n), lam, u, du)
        return passes[n]

    n = start
    closest = (np.inf, 0)
    while n < n_max:
        cur, nxt = run(n), run(2 * n)
        n *= 2
        scale = np.maximum(np.maximum(np.abs(nxt[0]), np.abs(nxt[1])), scale_floor)
        gap = np.maximum(np.abs(nxt[0] - cur[0]), np.abs(nxt[1] - cur[1]))
        if np.all(gap <= rtol * scale):
            if n == 2 * start > 2 * n_cold:  # warm start settled at once
                n = start = n_cold
                continue
            break
        closest = min(closest, (float(np.max(gap / scale)), n))
    else:
        if not closest[0] <= 100.0 * rtol:
            k = int(np.argmax(np.ravel(gap / scale)))
            worst = np.ravel(np.broadcast_to(lam, np.shape(gap)))[k].item()
            raise StepSizeUnderflow(
                f"piece [{x0}, {x1}] did not stabilize within {n} Magnus steps "
                f"(worst at lambda = {worst})",
                interval=(x0, x1), n_steps=n, lam=worst,
                gap=float(np.ravel(gap)[k]), scale=float(np.ravel(scale)[k]))
        n = closest[1]
    qv, h = _piece_node_q(piece, x0, x1, n)
    out = passes[n]
    if not (np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))):
        raise NonFiniteState("propagation produced non-finite values")
    piece.settled[key] = n
    return qv, h, out


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


def boundary_form(problem, lam, u1, du1):
    """(lambda*b1' + b1)*u1 - (lambda*b2' + b2)*du1, the right boundary
    condition applied to the state (u1, du1) at x = 1."""
    vp = as_validated(problem)
    return (vp.beta1p * lam + vp.beta1) * u1 - (vp.beta2p * lam + vp.beta2) * du1
