"""The one composite Gauss-Legendre rule of the weighted space: the first
panel count for a frequency, and the nodes and weights of a grid.
:func:`sltrans.hilbert._settled_gram` doubles the grid until it settles.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

QUAD_NODES = 12


class QuadratureNotConverged(RuntimeError):
    """Panel doubling failed to reach the requested tolerance."""


@lru_cache(maxsize=32)
def _gauss_rule(n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return x, w


def panels_for(a: float, b: float, freq: float) -> int:
    """Panel count keeping under one oscillation period per 12-node panel."""
    return max(2, int(np.ceil((b - a) * (abs(freq) + 4.0) / 4.0)))


def panel_nodes(a: float, b: float, n_panels: int, n_nodes: int):
    """Nodes and weights of composite Gauss-Legendre on [a, b].

    Returns flat arrays of length n_panels * n_nodes.
    """
    xr, wr = _gauss_rule(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
    w = (half[:, None] * wr[None, :]).ravel()
    return x, w


def fixed_quad(f, a: float, b: float, n_panels: int = 1) -> float:
    x, w = panel_nodes(a, b, n_panels, QUAD_NODES)
    return float(np.dot(w, np.asarray(f(x), dtype=float)))
