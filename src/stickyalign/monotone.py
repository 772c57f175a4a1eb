"""Isotonic projection onto the monotone cone, and lower convex envelopes.

The monotone cone is the set of nondecreasing sequences (discretized quantile
functions).  :func:`project_monotone` computes the weighted L2 projection onto
it by pool-adjacent-violators (PAVA).  The projection is the right derivative
of the convexified primitive, so :func:`lower_convex_envelope` reads the hull
of :func:`cumulative_primitive` off the same fit: its vertices are the nodes
where the fit steps up.  Restricted by ``joins`` to the pairs of clusters in
contact, the same fit is the projection onto the cone's tangent cone, which
is the sticky merge rule at one instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "PiecewiseLinear",
    "project_monotone",
    "lower_convex_envelope",
    "cumulative_primitive",
]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by its breakpoints.

    ``nodes`` must be strictly increasing; evaluation outside the node span
    clamps to the boundary values (quantile-function convention).
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, m):
        return np.interp(m, self.nodes, self.values)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.nodes)


def _weights_like(values: np.ndarray, weights) -> np.ndarray:
    if weights is None:
        return np.ones_like(values)
    w = np.asarray(weights, dtype=float)
    if w.shape != values.shape:
        raise ValueError("weights must match values in shape")
    if (w <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    return w


def project_monotone(values, weights=None, joins=None) -> np.ndarray:
    """Weighted L2 projection onto nondecreasing sequences (isotonic fit).

    Pool-adjacent-violators with weighted pooling.  Blocks carry the running
    sums (w, w*y) and violations are tested by cross-multiplication, the
    chord-slope comparison on the cumulative primitive.

    ``joins`` holds one bool per adjacent pair ``(i, i+1)``, ``None`` flagging
    every pair.  Pooling crosses only flagged pairs, and only their entries are
    visited: the fit is monotone on each maximal run of flagged pairs and the
    identity elsewhere, the projection onto the tangent cone at the clusters
    those runs form.

    The weighted mean is preserved exactly and the map is a contraction in
    every weighted L^p norm.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be a 1-d array")
    if joins is None:
        at, sizes = slice(None), [v.size]
    else:
        joins = np.asarray(joins)
        if joins.dtype != bool or joins.shape != (max(v.size - 1, 0),):
            raise ValueError("joins must hold one bool per adjacent pair of values")
        pad = np.concatenate(([False], joins, [False]))
        s, e = (pad[1:] != pad[:-1]).nonzero()[0].reshape(-1, 2).T  # pairs s..e-1: entries s..e
        at = (pad[1:] | pad[:-1]).nonzero()[0]
        sizes = (e - s + 1).tolist()
    w = _weights_like(v, weights)[at]
    wl, wyl = w.tolist(), (w * v[at]).tolist()

    sw, swy, counts = [], [], []  # pooled weight, weight*value and count per block
    entries = zip(wl, wyl)
    for size in sizes:
        # a barrier block: -inf * wi > wyi * 1.0 never holds, so nothing pools into it
        sw.append(1.0)
        swy.append(-np.inf)
        counts.append(0)
        for wi, wyi in islice(entries, size):
            ci = 1
            # pool while the previous block mean exceeds the new one
            while swy[-1] * wi > wyi * sw[-1]:
                wi += sw.pop()
                wyi += swy.pop()
                ci += counts.pop()
            sw.append(wi)
            swy.append(wyi)
            counts.append(ci)
    if len(counts) == len(wl) + len(sizes):
        return v.copy()
    reps = np.array(counts)
    out = v.copy()
    # an entry that pools with nothing is its own projection
    out[at] = np.where((reps > 1).repeat(reps), (np.array(swy) / np.array(sw)).repeat(reps), v[at])
    return out


def cumulative_primitive(values, weights=None) -> PiecewiseLinear:
    """Integral of the step function with the given values and weights.

    Nodes are the cumulative weights prefixed with 0; node values the running
    weighted sums.  The slope of segment i recovers values[i]; the lower convex
    envelope of this primitive has the isotonic fit as its slopes.
    """
    v = np.asarray(values, dtype=float)
    w = _weights_like(v, weights)
    nodes = np.concatenate(([0.0], np.cumsum(w)))
    vals = np.concatenate(([0.0], np.cumsum(w * v)))
    return PiecewiseLinear(nodes, vals)


def lower_convex_envelope(values, weights=None) -> PiecewiseLinear:
    """Greatest convex function below ``cumulative_primitive(values, weights)``.

    The envelope's slopes are the isotonic fit, so its vertices are the end
    nodes and every node where :func:`project_monotone` strictly increases:
    each flat run of the fit is one segment.  Vertex values are the
    primitive's own, so the endpoint values survive exactly.
    """
    pl = cumulative_primitive(values, weights)
    rises = np.flatnonzero(np.diff(project_monotone(values, weights)) > 0.0) + 1
    keep = np.concatenate(([0], rises, [pl.nodes.size - 1]))
    return PiecewiseLinear(pl.nodes[keep], pl.values[keep])
