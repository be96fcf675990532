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
as one (2, 2, n_lam, n_steps) array, so every ufunc's inner loop runs
along the steps, not along a lambda batch that is often one long. A
batched sweep (:func:`_magnus_pass`, and the node sweep of the eigenvalue
count) runs in balanced blocks of lambda rows, :func:`row_blocks`, each of
at most BLOCK_ENTRIES = 2**16 lambda-steps (a quarter of that in the node
sweep), so the working set of a wide scan or count does not grow with its
width. A block of :func:`_magnus_pass` runs in place, in a float
workspace that each thread allocates once and keeps: the step matrices,
the cos_sinc branches and every level of the pairwise product tree write
into it, so a pass allocates no block-sized array and faults in no fresh
pages. Every ufunc gets the operands it would get on fresh arrays, in the
same order, and every lambda's bits are its own in a batch, so neither the
workspace nor the blocks move a bit.

The lambda-derivative of a state travels the same way, in real arithmetic:
:func:`tangent_piece` carries a state and its derivative across a piece,
by the closed form on a constant piece and by :func:`_tangent_pass` on a
variable one: step matrices E and dE/dlambda, a product tree of (E, E')
pairs, and half-width blocks in the same workspace. That is where
:func:`sltrans.characteristic.omega_derivative` gets omega'.

All functions are vectorized over a lambda array and return states at
piece ends only. :func:`chain` is the one place that knows the start states
of the two shot solutions (and their lambda-derivatives) and the interface
jump rule; the endpoint states (:func:`endpoint_chain`), omega', the dense
trajectories of :mod:`sltrans.ode` and the eigenvalue count each run on it
with their own per-piece crossing.
:mod:`sltrans.ode` builds its dense (plottable) trajectories of one lambda
from the same kernel: :func:`magnus_ladder` picks the step count and
:func:`magnus_steps` gives the step matrices it chains.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .problem import as_validated

_SQRT3 = np.sqrt(3.0)
_GAUSS_OFFSETS = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
# The lambda-steps one block of a batched Magnus sweep holds; see row_blocks.
# A block of _magnus_pass runs in a workspace of _WS_ARRAYS arrays of
# BLOCK_ENTRIES entries (4 MiB of float64) that each thread allocates
# once and keeps, so a small block costs no page faults; a larger one
# would only hold more memory.
BLOCK_ENTRIES = 1 << 16
# The four step-matrix entries and a scratch array, then the first level
# of the product tree: four entries of ceil(n_steps / 2) columns and two
# scratch entries of n_steps // 2, up to three arrays and a column. With
# lambda-derivatives a block holds half the lambda-steps: eight entries
# and a scratch, then a level of eight entries and two scratch, at most
# seven arrays in all.
_WS_ARRAYS = 8


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
# Below it S'(z) = dS/dz takes its series, the k / (2k + 1)! z^(k - 1)
# terms to k = 9: the first one left out is below 2e-18 relative on
# |z| < 1, and above it the quotient (C - S) / (2 z) loses at most a few
# ulps to cancellation.
_SLOPE_RADIUS = 1.0
_SLOPE_SERIES = tuple(k / math.factorial(2 * k + 1) for k in range(9, 0, -1))


# Each branch writes its outputs at the elements `where` selects (all of
# them without it). A cos_sinc branch writes C and S with r as scratch;
# only the Taylor sums write over one of their inputs.

def _hyperbolic(z, C, S, r, where=True):
    np.sqrt(z, out=r, where=where)
    np.sinh(r, out=C, where=where)
    np.divide(C, r, out=S, where=where)
    np.cosh(r, out=C, where=where)


def _trigonometric(z, C, S, r, where=True):
    np.negative(z, out=S, where=where)
    np.sqrt(S, out=r, where=where)
    np.sin(r, out=C, where=where)
    np.divide(C, r, out=S, where=where)
    np.cos(r, out=C, where=where)


def _taylor(z, C, S, r, where=True):
    for out, k2, k4 in ((C, 2.0, 24.0), (S, 6.0, 120.0)):  # 1 + z/k2 + z*z/k4
        np.divide(z, k2, out=out, where=where)
        np.add(1.0, out, out=out, where=where)
        np.multiply(z, z, out=r, where=where)
        np.divide(r, k4, out=r, where=where)
        np.add(out, r, out=out, where=where)


def _slope_series(z, C, S, out, where=True):
    """S'(z) by Horner's rule on _SLOPE_SERIES."""
    np.multiply(z, _SLOPE_SERIES[0], out=out, where=where)
    for c in _SLOPE_SERIES[1:-1]:
        np.add(out, c, out=out, where=where)
        np.multiply(out, z, out=out, where=where)
    np.add(out, _SLOPE_SERIES[-1], out=out, where=where)


def _slope_quotient(z, C, S, out, where=True):
    """S'(z) = (C - S) / (2 z); the halving is exact."""
    np.subtract(C, S, out=out, where=where)
    np.divide(out, z, out=out, where=where)
    np.multiply(out, 0.5, out=out, where=where)


def _run_branches(branches, *args):
    """Run each (sel, branch) of branches on the elements sel picks: the
    one branch that picks every element runs on the whole array, with no
    mask. The same ufunc reaches every element either way, so the bits are
    the same."""
    for sel, branch in branches:
        if np.count_nonzero(sel) == sel.size:  # sel.all(), a third of the cost
            branch(*args)
            return
    for sel, branch in branches:
        if np.count_nonzero(sel):
            branch(*args, where=sel)


def _cos_sinc_into(z, C, S, r):
    """cos_sinc of z written into C and S, float arrays of z's shape, with
    r as scratch; see :func:`cos_sinc`."""
    trig, hyp = z <= -_TAYLOR_RADIUS, z >= _TAYLOR_RADIUS
    _run_branches([(trig, _trigonometric), (hyp, _hyperbolic), (~(trig | hyp), _taylor)],
                  z, C, S, r)


def _slope_into(z, C, S, out):
    """S'(z) = dS/dz written into out, for the C and S that cos_sinc gives
    at z: the quotient (C - S) / (2 z), or its series on |z| < _SLOPE_RADIUS.
    C'(z) = S / 2 needs no function of its own."""
    small = (z > -_SLOPE_RADIUS) & (z < _SLOPE_RADIUS)
    _run_branches([(small, _slope_series), (~small, _slope_quotient)], z, C, S, out)


def cos_sinc(z):
    """Stable (C, S) with C = cos(sqrt(-z)) and S = sin(sqrt(-z))/sqrt(-z).

    For z > 0 the pair continues to (cosh(sqrt(z)), sinh(sqrt(z))/sqrt(z));
    near z = 0 a Taylor series avoids the 0/0. Both are entire functions of
    z, which is what makes the propagation seamless across lambda = q.

    An array z runs each branch in place. When every z takes one branch
    (the usual case for the points of one piece at one lambda) that branch
    runs on the whole array, of any shape, with no masks; otherwise each
    branch runs under its mask, so the long runs of one sign along a lambda
    row need no gather or scatter. Every z lands in exactly one branch, NaN
    included (the Taylor branch takes what the others leave), so NaN in
    gives NaN out. A scalar z, the common case of a constant piece at one
    lambda, picks its branch by one Python comparison and returns numpy
    float64 scalars. Every path calls the same numpy ufuncs in the same
    order (math.sin may round differently), so it has the same bits.
    """
    if np.ndim(z) == 0:
        z = np.float64(z)
        if z <= -_TAYLOR_RADIUS:
            r = np.sqrt(-z)
            return np.cos(r), np.sin(r) / r
        if z >= _TAYLOR_RADIUS:
            r = np.sqrt(z)
            return np.cosh(r), np.sinh(r) / r
        return 1.0 + z / 2.0 + z * z / 24.0, 1.0 + z / 6.0 + z * z / 120.0
    z = np.asarray(z, dtype=float)
    out = np.empty((3, *z.shape))
    C, S = out[0, ...], out[1, ...]
    _cos_sinc_into(z, C, S, out[2, ...])
    return C, S


def constant_step(w, t, u, du):
    """Exact transfer over a step of length t with constant w = q - lambda."""
    z = w * t * t
    C, S = cos_sinc(z)
    u_new = C * u + t * S * du
    du_new = w * t * S * u + C * du
    return u_new, du_new


def _exponent_into(qvals, h, lam_f, wbar, z):
    """d of :func:`magnus_exponent`, with wbar and z written into the given
    (n_lam, n_steps) arrays."""
    q1, q2 = qvals.T
    np.subtract(0.5 * (q1 + q2), lam_f, out=wbar)
    d = (-(_SQRT3 * h * h / 12.0)) * (q2 - q1)
    np.multiply(h * h, wbar, out=z)
    np.add(d * d, z, out=z)
    return d


def _slots(n_slots, qvals, lam_f):
    """An uninitialised (n_slots, n_lam, n_steps) float array."""
    return np.empty((n_slots, len(lam_f), len(qvals)))


def magnus_exponent(qvals, h, lam_f):
    """(d, wbar, z) of the step exponents Omega = [[d, h], [h * wbar, -d]],
    Omega^2 = z I, for qvals (n_steps, 2), h a scalar or an (n_steps,) row
    and lam_f an (n_lam, 1) column: d is (n_steps,), wbar and z are
    (n_lam, n_steps)."""
    wbar, z = _slots(2, qvals, lam_f)
    return _exponent_into(qvals, h, lam_f, wbar, z), wbar, z


def _steps_into(qvals, h, lam_f, slots):
    """:func:`magnus_steps` written into slots, a (5, n_lam, n_steps) array:
    the step matrices take its first four entries, the fifth is scratch."""
    S, r, z, wbar, C = slots
    d = _exponent_into(qvals, h, lam_f, wbar, z)
    _cos_sinc_into(z, C, S, r)
    e11, e12, e21, e22 = slots[:4]
    np.multiply(S, h, out=e12)
    np.multiply(e12, wbar, out=e21)
    np.multiply(S, d, out=e22)
    np.add(C, e22, out=e11)
    np.subtract(C, e22, out=e22)
    return slots[:4].reshape(2, 2, *C.shape)


def _tangent_steps_into(qvals, h, lam_f, slots):
    """The step matrices E and their lambda-derivatives E' written into
    slots, a (9, n_lam, n_steps) array, as one (2, 2, 2, n_lam, n_steps)
    view of its first eight entries: E has the bits of :func:`magnus_steps`,
    and the ninth entry is scratch.

    E = C I + S Omega with C, S = cos_sinc(z) and dz/dlambda = -h^2, so
    dC = -h^2 S / 2, dS = -h^2 S'(z) and, since dOmega/dlambda has -h at
    (2, 1) only, E' = dC I + dS Omega - h S E_21: the entries of E with
    (C, S) replaced by (dC, dS), and -S h (that is, -e12) added to e21.
    """
    e11, e12, e21, e22, f11, f12, f21, f22, z = slots
    wbar, C, S, dS, dC = f22, f21, f12, f11, z
    d = _exponent_into(qvals, h, lam_f, wbar, z)
    _cos_sinc_into(z, C, S, e22)
    _slope_into(z, C, S, dS)
    np.multiply(S, h, out=e12)
    np.multiply(e12, wbar, out=e21)
    np.multiply(S, d, out=e22)
    np.add(C, e22, out=e11)
    np.subtract(C, e22, out=e22)
    np.multiply(S, -0.5 * h * h, out=dC)
    np.multiply(dS, -(h * h), out=dS)
    np.multiply(dS, h, out=f12)
    np.multiply(f12, wbar, out=f21)
    np.subtract(f21, e12, out=f21)
    np.multiply(dS, d, out=f22)
    np.add(dC, f22, out=f11)
    np.subtract(dC, f22, out=f22)
    return slots[:8].reshape(2, 2, 2, *z.shape)


def magnus_steps(qvals, h, lam_f):
    """Fourth-order Magnus step matrices as one (2, 2, n_lam, n_steps)
    array e: e[i, j] is the (i+1, j+1) entry of every step, and the rows
    e[0] = (e11, e12) and e[1] = (e21, e22) are what :func:`_product` takes.

    qvals has shape (n_steps, 2): the potential at the two Gauss nodes of
    each step. h is the signed step, a scalar or an (n_steps,) row, and
    lam_f an (n_lam, 1) column.
    """
    return _steps_into(qvals, h, lam_f, _slots(5, qvals, lam_f))


def _product(a, b):
    """The rows of the 2x2 products a b. a is a pair of rows as
    :func:`magnus_steps` gives them; b is a pair of rows, or a state
    (u, du), that broadcasts against a's entries. Row i is
    fl(fl(a_i1 b[0]) + fl(a_i2 b[1]))."""
    return [row[0] * b[0] + row[1] * b[1] for row in a]


def _carry(a, da, u, du):
    """States (u, du), each a (2, ...) stack of a value and its
    lambda-derivative, carried by a transfer matrix a with derivative da:
    the value goes to a (u, du) and the derivative to
    fl(da (u, du) + a (u', du')), each product formed as :func:`_product`
    forms it."""
    state, slope = (u[0], du[0]), (u[1], du[1])
    value = _product(a, state)
    slope = [x + y for x, y in zip(_product(da, state), _product(a, slope))]
    return tuple(np.stack(pair) for pair in zip(value, slope))


def row_blocks(n_rows: int, n_steps: int) -> list[slice]:
    """Balanced slices of range(n_rows), each of at most
    max(1, BLOCK_ENTRIES // n_steps) rows: a lambda-batched sweep over
    n_steps steps runs one block at a time, so its working set is bounded
    by BLOCK_ENTRIES lambda-steps, not by the width of the batch."""
    n_blocks = max(1, -(-n_rows // max(1, BLOCK_ENTRIES // n_steps)))
    edges = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


class _Workspace(threading.local):
    """Each thread's flat float Magnus workspace of _WS_ARRAYS *
    BLOCK_ENTRIES entries, allocated on first use and kept."""

    array = None


_WORKSPACE = _Workspace()


def _workspace():
    """This thread's workspace. It holds any block of :func:`row_blocks`
    with at most BLOCK_ENTRIES steps (half that with derivatives); the
    ladder stops at 2**14."""
    if _WORKSPACE.array is None:
        _WORKSPACE.array = np.empty(_WS_ARRAYS * BLOCK_ENTRIES)
    return _WORKSPACE.array


def _pair_level(e, out, scratch):
    """One level of the product tree: out[..., k] = e[..., 2k+1] e[..., 2k],
    and an odd leftover column of e carried to the tail of out. e is
    (2, 2, n_lam, m), out (2, 2, n_lam, ceil(m/2)) and scratch
    (2, n_lam, m // 2); row i of the products is :func:`_product`'s,
    fl(fl(a_i1 b[0]) + fl(a_i2 b[1]))."""
    m = e.shape[-1]
    half = m // 2
    a, b = e[..., 1:2 * half:2], e[..., 0:2 * half:2]
    for row, c in zip(a, out[..., :half]):
        np.multiply(row[0], b[0], out=c)
        np.multiply(row[1], b[1], out=scratch)
        np.add(c, scratch, out=c)
    if m % 2:
        out[..., half] = e[..., m - 1]


def _tangent_level(p, out, scratch):
    """:func:`_pair_level` of the pairs (E, E') in p, (2, 2, 2, n_lam, m),
    into out: a later B and an earlier A give (B A, B' A + B A'), row i of
    B' A + B A' summed left to right as
    fl(fl(fl(b'_i1 A[0] + b'_i2 A[1]) + b_i1 A'[0]) + b_i2 A'[1])."""
    m = p.shape[-1]
    half = m // 2
    _pair_level(p[0], out[0], scratch)
    later, dlater = p[..., 1:2 * half:2]
    earlier, dearlier = p[..., 0:2 * half:2]
    for row, drow, c in zip(later, dlater, out[1, ..., :half]):
        np.multiply(drow[0], earlier[0], out=c)
        for x, y in ((drow[1], earlier[1]), (row[0], dearlier[0]), (row[1], dearlier[1])):
            np.multiply(x, y, out=scratch)
            np.add(c, scratch, out=c)
    if m % 2:
        out[1, ..., half] = p[1, ..., m - 1]


def _step_products(qvals, h, lam, tangent=False):
    """For each block of :func:`row_blocks` over the 1-D lam, the rows and
    the product of all step matrices at those lambda, (2, 2, n_lam); with
    tangent, the product and its lambda-derivative, (2, 2, 2, n_lam). The
    product is a view into this thread's workspace, valid until the next
    block.

    In a block all step matrices are formed at once (vectorized over steps
    and lambda) and combined by pairwise products, so the Python-level work
    is log2(n_steps) array operations instead of n_steps of them. The
    pairing keeps chronological order: entry 2k+1 acts after entry 2k, and
    an odd leftover (the latest product) stays at the tail for the next
    level. Every lambda's bits are its own, so the row blocks do not move
    them.

    A block runs in place in the workspace (:func:`_workspace`): the step
    matrices and one scratch take its first (w + 1) E entries, with E the
    block's lambda-steps and w = 4 entries per matrix (8 with the
    derivatives); each level of the tree goes to the part the level before
    it left free, above w E or from 0 in turn, followed by a scratch for
    the second product terms. With derivatives a block has half as many
    rows, so its at most 14 E entries fit the same workspace.
    """
    width = 8 if tangent else 4
    n_steps = len(qvals)
    ws = _workspace()
    for rows in row_blocks(lam.size, n_steps * width // 4):
        lam_f = lam[rows, None]
        n_lam = len(lam_f)
        entries = n_lam * n_steps
        slots = ws[:(width + 1) * entries].reshape(width + 1, n_lam, n_steps)
        e = (_tangent_steps_into if tangent else _steps_into)(qvals, h, lam_f, slots)
        free = width * entries
        while e.shape[-1] > 1:
            m, half = e.shape[-1], e.shape[-1] // 2
            size = n_lam * (m - half)
            out = ws[free:free + width * size].reshape(*e.shape[:-1], m - half)
            scratch = ws[free + width * size:free + width * size + 2 * n_lam * half]
            (_tangent_level if tangent else _pair_level)(e, out, scratch.reshape(2, n_lam, half))
            e, free = out, width * entries - free
        yield rows, e[..., 0]


def _magnus_pass(qvals, h, lam, u, du):
    """One sweep of fourth-order Magnus steps; see :func:`_step_products`.

    qvals has shape (n_steps, 2): the potential at the two Gauss nodes of
    each step. h is the signed step. lam, u, du are broadcastable arrays.
    Only the end states leave the workspace.
    """
    lam, u, du = np.broadcast_arrays(lam, u, du)
    shape = lam.shape
    lam, u, du = lam.ravel(), u.ravel(), du.ravel()
    ends = [_product(top, (u[rows], du[rows])) for rows, top in _step_products(qvals, h, lam)]
    return tuple(np.concatenate(col).reshape(shape) for col in zip(*ends))


def _tangent_pass(qvals, h, lam, u, du):
    """:func:`_magnus_pass` with lambda-derivatives: lam is 1-D, u and du
    are (2, n_lam) stacks of the start states and their derivatives, and
    so are the end states returned (see :func:`_carry`). The values have
    the bits :func:`_magnus_pass` gives."""
    ends = [_carry(a, da, u[:, rows], du[:, rows])
            for rows, (a, da) in _step_products(qvals, h, lam, tangent=True)]
    return tuple(np.concatenate(col, axis=1) for col in zip(*ends))


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
    lam = np.asarray(lam, dtype=float)
    if piece.is_constant:
        w = piece.constant_value - lam
        return constant_step(w, x1 - x0, u, du)
    return magnus_ladder(piece, x0, x1, lam, u, du, rtol=rtol)[2]


def tangent_piece(piece, x0: float, x1: float, lam, u, du, *, rtol: float = 1e-12):
    """:func:`propagate_piece` with lambda-derivatives: lam is 1-D, and u,
    du and the end states returned are (2, n_lam) stacks of a state and its
    derivative in lambda (see :func:`_carry`).

    A constant piece carries them by its exact matrix
    T = [[C, t S], [w t S, C]] and the closed form
    T' = [[dC, t dS], [w t dS - t S, dC]], with dC = -t^2 S / 2 and
    dS = -t^2 S'(z), so the values have :func:`constant_step`'s bits. A
    variable piece runs the real ladder on the batch, then one tangent
    pass (:func:`_tangent_pass`) at the step count it settles on.
    """
    if piece.is_constant:
        t = x1 - x0
        w = piece.constant_value - lam
        z = w * t * t
        C, S = cos_sinc(z)
        dS = np.empty_like(z)
        _slope_into(z, C, S, dS)
        np.multiply(dS, -(t * t), out=dS)
        dC = S * (-0.5 * t * t)
        return _carry([[C, t * S], [w * t * S, C]],
                      [[dC, t * dS], [w * t * dS - t * S, dC]], u, du)
    qv, h, _ = magnus_ladder(piece, x0, x1, lam, u[0], du[0], rtol=rtol)
    return _tangent_pass(qv, h, lam, u, du)


def chain(problem, lam, cross, *, backward=False, tangent=False):
    """Carry a shot solution across every subinterval, with its jumps.

    The left solution starts at x = -1 from (alpha_2, -alpha_1) and divides
    the state by delta_i after crossing interface i; the right solution
    (backward=True) starts at x = 1 from (beta_2'*lambda + beta_2,
    beta_1'*lambda + beta_1) and multiplies it by delta_i. Either way the
    one-sided values satisfy u(h_i-0) = delta_i * u(h_i+0), and so does u'.

    cross(piece, x0, x1, u, du) -> (segment, u1, du1) carries a state over
    one piece. Returns (segments, left, right): per subinterval j, whatever
    cross made there and the (u, du) at its left and right ends. With
    tangent, u and du are stacks of the state and its lambda-derivative,
    starting from the start state's; the jumps do not depend on lambda.
    """
    vp = as_validated(problem)
    bp = vp.breakpoints
    if backward:
        u, du = vp.beta2p * lam + vp.beta2, vp.beta1p * lam + vp.beta1
        slopes = vp.beta2p, vp.beta1p
        order = range(vp.m, -1, -1)
    else:
        u, du = np.full_like(lam, vp.alpha2), np.full_like(lam, -vp.alpha1)
        slopes = 0.0, 0.0
        order = range(vp.m + 1)
    if tangent:
        u, du = (np.stack([x, np.full_like(x, dx)]) for x, dx in zip((u, du), slopes))
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
    lam = np.asarray(lam, dtype=float)

    def cross(piece, x0, x1, u, du):
        return (None, *propagate_piece(piece, x0, x1, lam, u, du, rtol=rtol))

    return chain(problem, lam, cross, backward=backward)[1:]


def boundary_form(problem, lam, u1, du1):
    """(lambda*b1' + b1)*u1 - (lambda*b2' + b2)*du1, the right boundary
    condition applied to the state (u1, du1) at x = 1."""
    vp = as_validated(problem)
    return (vp.beta1p * lam + vp.beta1) * u1 - (vp.beta2p * lam + vp.beta2) * du1
