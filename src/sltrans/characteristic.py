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
`omega_samples` runs both endpoint chains once and takes each omega_i at
the left end of its subinterval, so omega_1 comes from the right
solution's left boundary form; omega itself it reads from the forward
chain's end state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import propagator
from .problem import as_validated


@dataclass
class CharacteristicSample:
    """One evaluation of the characteristic function with diagnostics.

    omega_i[i] is the Wronskian of the two shot solutions on subinterval i
    (at its left end). chain_residuals[i] = omega - (prod of the first i
    delta^2 factors) * omega_i, which vanishes in exact arithmetic.
    omega_boundary_form is :func:`omega` at lam, read from the left
    solution's end state.
    """

    lam: float
    omega: float
    omega_i: list[float]
    chain_residuals: list[float]
    omega_boundary_form: float

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


def omega(problem, lam):
    """Characteristic function via the left solution only.

    Vectorized over a real scalar or an array of any shape (:func:`real_lambda`).
    The right solution never enters; its boundary data appears through the
    closed boundary form.
    """
    vp = as_validated(problem)
    lam_arr = real_lambda(lam)
    end = propagator.endpoint_chain(vp, lam_arr)[1][-1]
    out = vp.delta_sq_prod * propagator.boundary_form(vp, lam_arr, *end)
    return float(out) if np.ndim(lam) == 0 else out


def eigenvalue_count(problem, lam):
    """N(lambda), the number of eigenvalues strictly below lambda (vectorized).

    The Pruefer angle Theta of the line through (u', u) of the left solution
    is continuous across the jumps, which scale u and u' alike, and
    Theta(1) = pi Z + atan2(u, u') mod pi with Z the zeros of u on (-1, 1],
    counted per piece on the Magnus product tree (:func:`propagator.count_pass`)
    of the steps :func:`propagator.magnus_ladder` crosses it with.
    The right condition asks for the line through (A, B) = (lambda b1' + b1,
    lambda b2' + b2), which turns back by pi at the rate rho / (A^2 + B^2)
    as lambda grows. So G = Theta(1) + atan2(rho, -(A b1' + B b2')) rises
    strictly from 0, and N = #{k : 0 < k pi + phi_beta < G} with phi_beta =
    atan2(b2', b1') mod pi (k = 0 is the bottom eigenvalue a nonzero b2' adds).
    """
    vp = as_validated(problem)
    lam_arr = real_lambda(lam).ravel()

    def cross(piece, x0, x1, u, du):
        qv, h, _ = propagator.magnus_ladder(piece, x0, x1, lam_arr, u, du)
        return propagator.count_pass(qv, h, lam_arr, u, du)

    piece_zeros, _, right = propagator.chain(vp, lam_arr, cross)
    zeros = sum(piece_zeros)
    u, du = right[-1]

    a = lam_arr * vp.beta1p + vp.beta1
    b = lam_arr * vp.beta2p + vp.beta2
    g = (np.pi * zeros + propagator.line_angle(u, du)
         + np.arctan2(vp.rho, -(a * vp.beta1p + b * vp.beta2p)))
    phi_beta = float(propagator.line_angle(vp.beta2p, vp.beta1p))
    n = np.maximum(np.ceil((g - phi_beta) / np.pi) - (phi_beta == 0.0), 0)
    n = n.astype(np.int64)
    return int(n[0]) if np.ndim(lam) == 0 else n.reshape(np.shape(lam))


def omega_samples(problem, lams) -> list[CharacteristicSample]:
    """Every per-subinterval Wronskian and the chain residuals, one
    CharacteristicSample per lambda, in ``np.ravel`` order for a lams of
    any shape.

    The left and the right solution each run one endpoint chain, and
    omega_i[j] is their Wronskian at the left end of subinterval j, where
    both chained states are one-sided on piece j; so omega_i[0] is the
    right solution's left boundary form, alpha_2 chi'(-1) + alpha_1 chi(-1).
    """
    vp = as_validated(problem)
    lam_arr = real_lambda(lams).ravel()
    phi_left, phi_right = propagator.endpoint_chain(vp, lam_arr)
    chi_left = propagator.endpoint_chain(vp, lam_arr, backward=True)[0]
    # omega() of the batch, read from phi's end state.
    omega_fast = vp.delta_sq_prod * propagator.boundary_form(vp, lam_arr,
                                                            *phi_right[-1])
    w = np.array([pu * cdu - pdu * cu
                  for (pu, pdu), (cu, cdu) in zip(phi_left, chi_left)])
    prefix = np.cumprod([1.0, *(d ** 2 for d in vp.jumps)])
    resid = w[0] - prefix[:, None] * w
    return [CharacteristicSample(
                lam=lamk, omega=wk[0], omega_i=wk, chain_residuals=rk,
                omega_boundary_form=fk)
            for lamk, wk, rk, fk in zip(lam_arr.tolist(), w.T.tolist(),
                                        resid.T.tolist(), omega_fast.tolist())]


def omega_derivative(problem, lam):
    """d omega / d lambda, vectorized over lam as :func:`omega` is.

    The left solution and its lambda-derivative travel together along
    :func:`sltrans.propagator.chain` (:func:`sltrans.propagator.tangent_piece`
    on every piece), so omega' comes in real arithmetic from one chain for
    the whole batch, also near a root, where a difference quotient loses
    digits to the integrator noise. On a variable piece the tangent pass
    runs at the step count the ladder settles on for the whole batch.
    """
    vp = as_validated(problem)
    lam_arr = real_lambda(lam).ravel()

    def cross(piece, x0, x1, u, du):
        return (None, *propagator.tangent_piece(piece, x0, x1, lam_arr, u, du))

    u, du = propagator.chain(vp, lam_arr, cross, tangent=True)[2][-1]
    # d/dlambda of boundary_form: the state's derivative, then the form's own.
    form = (propagator.boundary_form(vp, lam_arr, u[1], du[1])
            + (vp.beta1p * u[0] - vp.beta2p * du[0]))
    out = vp.delta_sq_prod * form
    return float(out[0]) if np.ndim(lam) == 0 else out.reshape(np.shape(lam))
