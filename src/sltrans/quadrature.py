"""The one composite Gauss-Legendre rule: panel count, nodes, and
per-subinterval weights for the sums sum_j w_j int_j of the weighted space.
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


def subinterval_rules(subintervals, freq: float):
    """Every subinterval's nodes, concatenated, and each one's weights.

    Subinterval (a, b) gets :func:`panels_for`'s count at freq.
    """
    rules = [panel_nodes(a, b, panels_for(a, b, freq), QUAD_NODES)
             for a, b in subintervals]
    return np.concatenate([x for x, _ in rules]), [w for _, w in rules]


def weighted_sum(space_weights, rule_weights, values) -> float:
    """sum_j w_j int_j f from f's values at the nodes of
    :func:`subinterval_rules`: one dot product per subinterval."""
    total = 0.0
    start = 0
    for wj, w in zip(space_weights, rule_weights):
        total += wj * float(np.dot(w, values[start:start + len(w)]))
        start += len(w)
    return total
