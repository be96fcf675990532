"""The sampled pieces' not-a-knot spline against SciPy's CubicSpline.

sltrans builds the spline in numpy alone, in SciPy's arithmetic; only this
test imports SciPy, as the reference. Coefficients, values at the knots,
between them and beyond both ends, and integrals over random bounds agree
to 1e-14 relative to the largest magnitude compared, on seeded random grids
of 2 to 79 knots.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipyCubicSpline

from sltrans.problem import PotentialPiece

RTOL = 1e-14


def _close(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want)))
    assert np.all(np.abs(got - want) <= RTOL * scale), np.max(np.abs(got - want)) / scale


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 17, 33, 65, 79])
def test_spline_matches_scipy(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        steps = rng.uniform(0.05, 1.0, n) * rng.uniform(0.01, 1.0)
        x = rng.uniform(-1.0, 0.5) + np.cumsum(steps)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 2.0)
        _check_grid(x, y, rng)


def _check_grid(x, y, rng):
    piece = PotentialPiece("sampled", x=tuple(x), values=tuple(y))
    ref = ScipyCubicSpline(x, y)
    # coef rows hold ascending powers, SciPy's c descending ones
    for power in range(4):
        _close(piece._spline.coef[power], ref.c[3 - power])

    width = x[-1] - x[0]
    points = np.concatenate([x, rng.uniform(x[0], x[-1], 200),
                             rng.uniform(x[0] - 0.2 * width, x[0], 20),
                             rng.uniform(x[-1], x[-1] + 0.2 * width, 20)])
    _close(piece.evaluate(points), ref(points))
    block = points[-240:].reshape(4, 60)
    _close(piece.evaluate(block), ref(block))

    ends = [(x[0], x[-1]), (x[-1], x[0]), tuple(rng.choice(x, 2))]
    ends += [tuple(rng.uniform(x[0] - 0.1 * width, x[-1] + 0.1 * width, 2))
             for _ in range(10)]
    got = [piece.integral(a, b) for a, b in ends]
    want = [float(ref.integrate(a, b)) for a, b in ends]
    _close(got, want)
