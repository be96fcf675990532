"""Re-measure the ROADMAP's single-run baselines.

    python3 perfbench/baselines.py

Run from the checkout root. Each row is the median of three runs, with
BLAS/OpenMP pinned to one thread, next to the figure the ROADMAP quotes.
The ROADMAP does not name its specs; these use the test suite's canonical
constant-q problem and its case-1 piecewise-linear problem.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from run import THREAD_VARS  # noqa: E402

os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402
import sltrans as st  # noqa: E402
from sltrans.problem import PotentialPiece  # noqa: E402

import tracing  # noqa: E402

CONSTANT = st.ProblemSpec(st.PiecewisePotential.constant(0.0), (0.0,), (2.0,),
                          (1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
POLYNOMIAL = st.ProblemSpec(
    st.PiecewisePotential.from_pieces([PotentialPiece("polynomial", coeffs=(1.0, 1.0)),
                                       PotentialPiece("polynomial", coeffs=(2.0, -0.5))]),
    (0.2,), (1.5,), (1.0, 1.0), (0.0, 1.0), (1.0, 0.3))
OMEGA_LAMS = np.linspace(0.0, 40.0, 2000) ** 2
REPEATS = 3


def timed(fn) -> tuple[float, dict]:
    """Median seconds of fn() and the traced per-layer counts of one call."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open("request")
        fn()
        tracer.close(root)
    finally:
        tracer.uninstall()
    return statistics.median(times), tracing.request_metrics(tracer.spans)


def main() -> int:
    rows = [
        ("constant q, n = 20", 0.05, lambda: st.eigensolve.find_eigenvalues(CONSTANT, 20)),
        ("constant q, n = 100", 0.23, lambda: st.eigensolve.find_eigenvalues(CONSTANT, 100)),
        ("polynomial q, n = 20", 4.0, lambda: st.eigensolve.find_eigenvalues(POLYNOMIAL, 20)),
        ("omega, 2000 lambda, polynomial q", 1.7,
         lambda: st.eigensolve.omega(POLYNOMIAL, OMEGA_LAMS)),
    ]
    print(f"{'row':<34} {'measured_s':>10} {'roadmap_s':>9} {'ratio':>6}  omega calls")
    for name, roadmap, fn in rows:
        seconds, m = timed(fn)
        print(f"{name:<34} {seconds:>10.3f} {roadmap:>9.2f} {seconds / roadmap:>6.2f}"
              f"  {m['characteristic.omega.calls']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
