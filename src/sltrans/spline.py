"""The not-a-knot cubic spline of a sampled potential piece.

The spline is the one of de Boor, *A Practical Guide to Splines* (1978):
C2 at every knot and C3 at the second and the second-to-last. It is built
and evaluated in SciPy's ``CubicSpline``/``PPoly`` arithmetic, operation for
operation, so the two agree bit for bit while sltrans needs numpy alone:

- the slopes solve SciPy's banded not-a-knot system, in the elimination
  and back-substitution order of LAPACK ``dgtsv``, on Python floats (three
  knots: ``numpy.linalg.solve`` on SciPy's 3x3 system; two: the chord);
- the coefficients are ``CubicHermiteSpline``'s;
- a point takes the interval with ``x[i] <= point < x[i+1]``, the last one
  closed and the end ones extrapolated, and sums the powers of
  ``point - x[i]`` in ascending order, not by Horner's rule;
- the integral sums, interval by interval, the antiderivative's
  differences in PPoly's order.
"""

from __future__ import annotations

import numpy as np


def _slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot derivatives of the not-a-knot spline through (x, y), given
    dx = diff(x) and the chord slopes diff(y) / dx."""
    n = len(x)
    if n == 2:
        return np.array([slope[0], slope[0]])
    if n == 3:
        a = np.array([[1.0, 1.0, 0.0],
                      [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]),
                      2 * slope[1]])
        return np.linalg.solve(a, b)
    # Row i reads dl[i-1]*s[i-1] + d[i]*s[i] + du[i]*s[i+1] = b[i].
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    du = [d0, *dx[:-1].tolist()]
    dl = [*dx[1:].tolist(), d1]
    b = np.concatenate((
        [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1],
    )).tolist()
    # dgtsv: Gaussian elimination, swapping rows i and i+1 only where the
    # subdiagonal entry is larger; a swap fills the second superdiagonal,
    # which is kept in dl[i].
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


class CubicSpline:
    """Not-a-knot cubic spline through the strictly increasing knots ``x``
    with values ``y``, at least two of them.

    ``coef[k, i]`` is the coefficient of ``(t - x[i])**k`` in the cubic on
    [x[i], x[i+1]]: row 0 the values (plus 0.0, as PPoly's sum starts from
    zero), row 1 the slopes, rows 2 and 3 the quadratic and cubic terms.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        s = _slopes(x, dx, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.coef = np.stack((y[:-1] + 0.0, s[:-1], (slope - s[:-1]) / dx - t, t / dx))

    def _interval(self, t):
        # i with x[i] <= t < x[i+1], counted as the interior knots at or
        # left of t: the last interval is closed, the end ones run on.
        return np.searchsorted(self.x[1:-1], t, "right")

    def __call__(self, t):
        """Values at the points ``t``, in an array of their shape."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = self._interval(flat)
        s = flat - self.x.take(i)
        s2 = s * s
        c0, c1, c2, c3 = self.coef.take(i, axis=1)
        return (c0 + c1 * s + c2 * s2 + c3 * (s2 * s)).reshape(t.shape)

    def _antiderivative(self, i: int, s: float) -> float:
        """Integral of interval i's cubic from x[i] to x[i] + s."""
        c0, c1, c2, c3 = self.coef[:, i].tolist()
        s2 = s * s
        s3 = s2 * s
        return 0.0 + c0 * s + c1 * s2 * 0.5 + c2 * s3 * (1 / 3) + c3 * (s3 * s) * 0.25

    def integrate(self, a: float, b: float) -> float:
        """Integral over [a, b]; b < a gives minus the one over [b, a]."""
        a, b, sign = float(a), float(b), 1.0
        if b < a:
            a, b, sign = b, a, -1.0
        x = self.x.tolist()
        first, last = (int(i) for i in self._interval([a, b]))
        total = 0.0
        for i in range(first, last + 1):
            end = (b if i == last else x[i + 1]) - x[i]
            start = a - x[i] if i == first else 0.0
            total += self._antiderivative(i, end) - self._antiderivative(i, start)
        return total * sign
