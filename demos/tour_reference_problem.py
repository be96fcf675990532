"""Tour of the solver on a problem with a known closed form.

The problem: q = 0 on [-1, 1], one interface at x = 0 with jump factor 1,
Dirichlet-type condition on the left (u(-1) = 0), and a right condition
whose coefficients depend on the eigenvalue:

    lambda * u(1) - u'(1) = 0.

Because the jump factor is 1 and q vanishes, the characteristic function
collapses to

    omega(s^2) = -s sin(2s) + cos(2s),

so every number the solver produces can be checked against a one-line
formula. The tour walks through validation, scanning, refinement, and the
per-root diagnostics.
"""

import numpy as np

import sltrans as st
from sltrans.characteristic import eigenvalue_count, omega
from sltrans.eigensolve import bracket_scan, find_eigenvalues


def closed_form(s):
    return -s * np.sin(2 * s) + np.cos(2 * s)


def main():
    spec = st.ProblemSpec(
        potential=st.PiecewisePotential.constant(0.0),
        interfaces=(0.0,),
        jumps=(1.0,),
        alpha=(1.0, 0.0),
        beta=(0.0, 1.0),
        beta_prime=(1.0, 0.0),
    )
    vp = st.as_validated(spec)

    print("== problem ==")
    print(f"subintervals: {vp.subintervals()}")
    print(f"inner-product weights: {vp.weights}, rho = {vp.rho}")
    print(f"asymptotic case: {st.classify_case(vp).name}")
    print()

    print("== characteristic function vs closed form ==")
    s_grid = np.linspace(0.25, 8.0, 7)
    print(f"{'s':>6} {'omega (solver)':>18} {'omega (formula)':>18}")
    for s in s_grid:
        print(f"{s:6.2f} {omega(vp, s * s):18.12f} {closed_form(s):18.12f}")
    print()

    print("== scan ==")
    scan = bracket_scan(vp, s_max=10.0)
    print(f"{len(scan.brackets)} sign-change brackets below s = 10; "
          f"the eigenvalue count there is {eigenvalue_count(vp, 100.0)}")
    print()

    print("== eigenvalues ==")
    eigs = find_eigenvalues(vp, 8)
    print(f"{'n':>2} {'s_n':>16} {'formula residual':>18} {'|omega| scaled':>15}")
    for e in eigs:
        print(f"{e.n:2d} {e.s:16.12f} {abs(closed_form(e.s)):18.2e} "
              f"{e.residuals['omega_scaled']:15.2e}")
    print()

    print("== diagnostics of the third eigenpair ==")
    e = eigs[2]
    for key, val in sorted(e.residuals.items()):
        print(f"  {key:38s} {val:.3e}")
    u, du = e.phi.eval(-1.0)
    print(f"  left boundary state: u(-1) = {u:.3e}, u'(-1) = {du:.6f}")
    print(f"  scalar slot (right-form value): {e.scalar:.6f}")


if __name__ == "__main__":
    main()
