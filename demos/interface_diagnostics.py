"""What the transmission conditions do, made visible.

Three experiments on a problem with interfaces at x = -0.3 and x = 0.4:

1. The characteristic function can be evaluated from the Wronskian of the
   left and right solutions on any of the three subintervals. The three
   values differ by the cumulative squared jump factors, and after that
   rescaling they must agree. The chain residual measures how well they do.

2. The jump conditions rescale a solution and its derivative by the same
   factor, and rescaling a piece of a solution by a constant never stops
   it from solving the equation or the homogeneous boundary conditions.
   So the eigenvalues cannot depend on the jump sizes at all, whatever the
   potential. The sweep shows that to machine precision, with q = 0 and
   with q = 1.

3. What the jumps do change: the eigenfunctions themselves (each crossing
   divides the trajectory by delta), and the geometry of the space the
   eigenvectors are orthonormal in (the subinterval weights).
"""

import dataclasses

import numpy as np

import sltrans as st
from sltrans.characteristic import omega_samples
from sltrans.eigensolve import find_eigenvalues


def base_spec(q_const):
    return st.ProblemSpec(
        potential=st.PiecewisePotential.constant(q_const),
        interfaces=(-0.3, 0.4),
        jumps=(2.0, 0.5),
        alpha=(1.0, 1.0),
        beta=(0.5, 1.0),
        beta_prime=(1.0, 0.25),
    )


def show_chain(spec):
    vp = st.as_validated(spec)
    print(f"inner-product weights per subinterval: {vp.weights}")
    print(f"{'lambda':>8} {'omega_1':>14} {'omega_2':>14} {'omega_3':>14} "
          f"{'chain residual':>15}")
    for lam in (-5.0, 2.0, 40.0, 300.0):
        sample = omega_samples(vp, [lam])[0]
        o1, o2, o3 = sample.omega_i
        print(f"{lam:8.1f} {o1:14.6g} {o2:14.6g} {o3:14.6g} "
              f"{sample.chain_residual_rel():15.2e}")


def show_jump_sweep(q_const):
    print(f"\nfirst four eigenvalues while the first jump factor varies "
          f"(q = {q_const}):")
    jump_values = (0.5, 1.0, 2.0, 3.0)
    table = []
    for d1 in jump_values:
        spec = dataclasses.replace(base_spec(q_const), jumps=(d1, 0.5))
        eigs = find_eigenvalues(spec, 4)
        table.append([e.lam for e in eigs])
    print(f"{'delta_1':>8} " + " ".join(f"{'lambda_' + str(n):>16}"
                                        for n in range(4)))
    for d1, lams in zip(jump_values, table):
        print(f"{d1:8.1f} " + " ".join(f"{lam:16.10f}" for lam in lams))
    spread = np.max(np.ptp(np.asarray(table), axis=0))
    print(f"largest spread across jump values: {spread:.3e}")


def show_eigenfunction_dependence():
    print("\nthe spectrum ignores the jumps; the eigenfunctions do not.")
    print("normalized third eigenfunction at three points, per jump choice:")
    xs = (-0.6, 0.0, 0.8)
    print(f"{'delta_1':>8} " + " ".join(f"{'u(' + str(x) + ')':>12}"
                                        for x in xs))
    for d1 in (0.5, 1.0, 2.0):
        spec = dataclasses.replace(base_spec(0.0), jumps=(d1, 0.5))
        eig = find_eigenvalues(spec, 3)[2]
        vals = " ".join(f"{eig.phi.u(x):12.6f}" for x in xs)
        print(f"{d1:8.1f} {vals}")


def main():
    print("== per-subinterval evaluations of omega ==")
    show_chain(base_spec(1.0))

    print("\n== jump invariance of the spectrum ==")
    show_jump_sweep(0.0)
    show_jump_sweep(1.0)

    show_eigenfunction_dependence()


if __name__ == "__main__":
    main()
