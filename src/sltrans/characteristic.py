"""The characteristic function omega(lambda) and its diagnostics.

omega is the Wronskian of the two shot solutions on the first subinterval;
its zeros are exactly the eigenvalues. Since the Wronskian picks up a
delta_i^2 factor at each interface, the per-subinterval Wronskians omega_i
satisfy the chain

    omega_1 = delta_1^2 omega_2 = delta_1^2 delta_2^2 omega_3 = ...

which doubles as a bookkeeping diagnostic: `omega_samples` fills the
chain residuals. The production path (`omega`) never computes the right
solution at all; the right boundary data makes

    omega(lambda) = prod(delta_i^2) * [(lambda b1' + b1) u(1) - (lambda b2' + b2) u'(1)]

with u the left solution, and that is one endpoint propagation
(:func:`sltrans.propagator.boundary_form` of its end state).
`omega_samples` reads omega from the same forward chain that gives its
per-subinterval states.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass, field

import numpy as np

from . import propagator
from .problem import as_validated


@dataclass
class CharacteristicSample:
    """One evaluation of the characteristic function with diagnostics.

    omega_i[i] is the Wronskian of the two shot solutions on subinterval i
    (at its midpoint). chain_residuals[i] = omega - (prod of the first i
    delta^2 factors) * omega_i, which vanishes in exact arithmetic.
    """

    lam: float
    omega: float
    omega_i: list[float]
    chain_residuals: list[float]
    metadata: dict = field(default_factory=dict)

    @property
    def chain_residual_max(self) -> float:
        return max(abs(r) for r in self.chain_residuals)

    def chain_residual_rel(self) -> float:
        return self.chain_residual_max / max(1.0, abs(self.omega))


def real_lambda(lam) -> np.ndarray:
    """lam as a float array of its shape, checked before any propagation:
    TypeError for a complex lam, ValueError for a NaN or infinite one."""
    arr = np.asarray(lam)
    if arr.dtype.kind == "c":
        raise TypeError(f"lambda must be real, not {arr.dtype}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError("lambda must be finite")
    return arr


def omega(problem, lam, *, rtol: float = 1e-12):
    """Characteristic function via the left solution only.

    Vectorized: lam may be a real scalar or array (see :func:`real_lambda`).
    The right solution never enters; its boundary data appears through the
    closed boundary form.
    """
    vp = as_validated(problem)
    lam_arr = real_lambda(lam)
    end = propagator.endpoint_chain(vp, lam_arr, rtol=rtol)[1][-1]
    out = vp.delta_sq_prod * propagator.boundary_form(vp, lam_arr, *end)
    return float(out) if np.ndim(lam) == 0 else out


def _line_angle(y, x):
    """atan2(y, x) mod pi in [0, pi]; 0 exactly when y == 0, and pi only
    for an angle a rounding error short of it."""
    a = np.arctan2(y, x)
    return np.where(y == 0, 0.0, np.where(a < 0, a + np.pi, a))


def _step_zeros(z, d, h, u0, du0, u1, du1):
    """Zeros of u in (0, 1] along exp(t Omega) (u0, du0), where
    Omega = [[d, h], [., -d]] and Omega^2 = z I.

    For z < 0 the phase of (sqrt(-z) u, d u + h u') turns by exactly
    sqrt(-z), so the end phases give the count, and a zero at a node falls
    to the step that ends there. For z >= 0 there is at most one zero.
    """
    osc = z < 0
    om = np.sqrt(np.where(osc, -z, 0.0))
    psi0 = _line_angle(om * u0, d * u0 + h * du0)
    psi1 = _line_angle(om * u1, d * u1 + h * du1)
    turns = np.rint((psi0 + om - psi1) / np.pi)
    crossed = (u0 != 0) & ((u1 == 0) | (np.sign(u0) != np.sign(u1)))
    return np.where(osc, turns, crossed).astype(np.int64)


# The node sweep of eigenvalue_count holds every node state and the zero
# count's temporaries: about four times a Magnus pass's bytes per
# lambda-step, so its row blocks are a quarter as wide.
_NODE_WEIGHT = 4


def eigenvalue_count(problem, lam, *, rtol: float = 1e-12):
    """N(lambda), the number of eigenvalues strictly below lambda (vectorized).

    The Pruefer angle Theta of the line through (u', u) of the left solution
    is continuous across the jumps, which scale u and u' alike, and
    Theta(1) = pi Z + atan2(u, u') mod pi with Z the zeros of u on (-1, 1],
    counted per constant piece or Magnus step. The right condition asks for
    the line through (A, B) = (lambda b1' + b1, lambda b2' + b2), which
    turns back by pi at the rate rho / (A^2 + B^2) as lambda grows. So
    G = Theta(1) + atan2(rho, -(A b1' + B b2')) rises strictly from 0, and
    N = #{k : 0 < k pi + phi_beta < G} with phi_beta = atan2(b2', b1') mod pi
    (k = 0 is the bottom eigenvalue a nonzero b2' adds).
    """
    vp = as_validated(problem)
    lam_arr = np.atleast_1d(real_lambda(lam))

    def cross(piece, x0, x1, u, du):
        if piece.is_constant:
            # One exact step: the Magnus exponent of constant q.
            qv, h = np.full((1, 2), piece.constant_value), x1 - x0
        else:
            qv, h, _ = propagator.magnus_ladder(piece, x0, x1, lam_arr, u, du,
                                                rtol=rtol)
        zeros = np.empty(lam_arr.size, dtype=np.int64)
        u1, du1 = np.empty((2, lam_arr.size))
        # The end columns are copied out, which frees each block.
        for rows in propagator.row_blocks(lam_arr.size, _NODE_WEIGHT * len(qv)):
            d, _, z = propagator.magnus_exponent(qv, h, lam_arr[rows, None])
            us, dus = propagator.magnus_nodes(qv, h, lam_arr[rows], u[rows], du[rows])
            zeros[rows] = _step_zeros(z, d, h, us[:, :-1], dus[:, :-1],
                                      us[:, 1:], dus[:, 1:]).sum(axis=1)
            u1[rows], du1[rows] = us[:, -1], dus[:, -1]
        # Only the line matters: rescale to unit max-norm.
        scale = np.maximum(np.abs(u1), np.abs(du1))
        if not np.all(np.isfinite(scale)):
            raise propagator.NonFiniteState("counting produced non-finite states")
        return zeros, u1 / scale, du1 / scale

    piece_zeros, _, right = propagator.chain(vp, lam_arr, cross)
    zeros = sum(piece_zeros)
    u, du = right[-1]

    a = lam_arr * vp.beta1p + vp.beta1
    b = lam_arr * vp.beta2p + vp.beta2
    g = (np.pi * zeros + _line_angle(u, du)
         + np.arctan2(vp.rho, -(a * vp.beta1p + b * vp.beta2p)))
    phi_beta = float(_line_angle(vp.beta2p, vp.beta1p))
    n = np.maximum(np.ceil((g - phi_beta) / np.pi) - (phi_beta == 0.0), 0)
    n = n.astype(np.int64)
    return int(n[0]) if np.ndim(lam) == 0 else n


def omega_samples(problem, lams, *, rtol: float = 1e-12) -> list[CharacteristicSample]:
    """Every per-subinterval Wronskian and the chain residuals, one
    CharacteristicSample per lambda of the batch.

    Both shot solutions are propagated to each subinterval midpoint (the
    Wronskian is constant inside a subinterval, and midpoints stay clear of
    the one-sided ambiguity at the interfaces).
    """
    vp = as_validated(problem)
    lam_arr = np.atleast_1d(real_lambda(lams))
    phi_left, phi_right = propagator.endpoint_chain(vp, lam_arr, rtol=rtol)
    chi_right = propagator.endpoint_chain(vp, lam_arr, backward=True, rtol=rtol)[1]
    # omega() of the batch, read from phi's end state.
    omega_fast = vp.delta_sq_prod * propagator.boundary_form(vp, lam_arr,
                                                            *phi_right[-1])

    mids = [0.5 * (a + b) for a, b in vp.subintervals()]
    omega_cols = []
    for j, xm in enumerate(mids):
        pu, pdu = propagator.propagate_piece(
            vp.pieces[j], vp.breakpoints[j], xm, lam_arr, *phi_left[j], rtol=rtol)
        cu, cdu = propagator.propagate_piece(
            vp.pieces[j], vp.breakpoints[j + 1], xm, lam_arr, *chi_right[j], rtol=rtol)
        omega_cols.append(pu * cdu - pdu * cu)

    out = []
    for k, lamk in enumerate(lam_arr):
        w_prefix = 1.0
        om1 = float(omega_cols[0][k])
        omis = []
        resids = []
        for j in range(vp.m + 1):
            if j > 0:
                w_prefix *= vp.jumps[j - 1] ** 2
            omij = float(omega_cols[j][k])
            omis.append(omij)
            resids.append(om1 - w_prefix * omij)
        out.append(CharacteristicSample(
            lam=float(lamk),
            omega=om1,
            omega_i=omis,
            chain_residuals=resids,
            metadata={"rtol": rtol, "omega_boundary_form": float(omega_fast[k])},
        ))
    return out


def omega_derivative(problem, lam, *, rtol: float = 1e-12):
    """d omega / d lambda, vectorized over lam as :func:`omega` is.

    The left solution and its lambda-derivative travel together along
    :func:`sltrans.propagator.chain` (:func:`sltrans.propagator.tangent_piece`
    on every piece), so omega' comes in real arithmetic from one chain for
    the whole batch, also near a root, where a difference quotient loses
    digits to the integrator noise. On a variable piece the tangent pass
    runs at the step count the ladder settles on for the whole batch.
    """
    vp = as_validated(problem)
    lam_arr = np.atleast_1d(real_lambda(lam))

    def cross(piece, x0, x1, u, du):
        return (None, *propagator.tangent_piece(piece, x0, x1, lam_arr, u, du, rtol=rtol))

    u, du = propagator.chain(vp, lam_arr, cross, tangent=True)[2][-1]
    # d/dlambda of boundary_form: the state's derivative, then the form's own.
    form = (propagator.boundary_form(vp, lam_arr, u[1], du[1])
            + (vp.beta1p * u[0] - vp.beta2p * du[0]))
    out = vp.delta_sq_prod * form
    return float(out[0]) if np.ndim(lam) == 0 else out


def write_scan_csv(samples: list[CharacteristicSample], out) -> None:
    """CSV scan dump to a path or a text stream: lambda, s (when
    lambda >= 0), omega, each omega_i, and the worst chain residual."""
    if not samples:
        raise ValueError("no samples to write")
    n_intervals = len(samples[0].omega_i)
    header = ["lambda", "s_if_nonneg", "omega"]
    header += [f"omega{i + 1}" for i in range(n_intervals)]
    header += ["chain_residual_max"]
    with (contextlib.nullcontext(out) if hasattr(out, "write")
          else open(out, "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for sam in samples:
            s = np.sqrt(sam.lam) if sam.lam >= 0 else ""
            row = [repr(sam.lam), repr(float(s)) if s != "" else "", repr(sam.omega)]
            row += [repr(v) for v in sam.omega_i]
            row += [repr(sam.chain_residual_max)]
            writer.writerow(row)
