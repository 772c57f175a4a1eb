"""Isotonic projection onto the monotone cone, and lower convex envelopes.

The monotone cone is the set of nondecreasing sequences (discretized quantile
functions).  :func:`project_monotone` computes the weighted L2 projection onto
it by pool-adjacent-violators (PAVA).  The projection is the right derivative
of the convexified primitive, so :func:`lower_convex_envelope` reads the hull
of :func:`cumulative_primitive` off the same fit: its vertices are the nodes
where the fit steps up.  Block variants project onto the flat subspace of a
partition (:func:`project_subspace`) and onto its tangent cone
(:func:`project_tangent_cone`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseLinear",
    "project_monotone",
    "lower_convex_envelope",
    "cumulative_primitive",
    "project_subspace",
    "project_tangent_cone",
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

    def is_convex(self, tol: float = 0.0) -> bool:
        """True when chord slopes are nondecreasing (within ``tol``)."""
        s = self.slopes
        return bool(np.all(np.diff(s) >= -tol))


def _weights_like(values: np.ndarray, weights) -> np.ndarray:
    if weights is None:
        return np.ones_like(values)
    w = np.asarray(weights, dtype=float)
    if w.shape != values.shape:
        raise ValueError("weights must match values in shape")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    return w


def project_monotone(values, weights=None) -> np.ndarray:
    """Weighted L2 projection onto nondecreasing sequences (isotonic fit).

    Pool-adjacent-violators with weighted pooling.  Blocks carry the running
    sums (w, w*y) and violations are tested by cross-multiplication, the
    chord-slope comparison on the cumulative primitive.

    The weighted mean is preserved exactly and the map is a contraction in
    every weighted L^p norm.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be a 1-d array")
    if v.size == 0:
        return v.copy()
    w = _weights_like(v, weights)

    sw: list[float] = []  # pooled weight per block
    swy: list[float] = []  # pooled weight*value per block
    counts: list[int] = []
    for wi, wyi in zip(w.tolist(), (w * v).tolist()):
        ci = 1
        # pool while the previous block mean exceeds the new one
        while swy and swy[-1] * wi > wyi * sw[-1]:
            wi += sw.pop()
            wyi += swy.pop()
            ci += counts.pop()
        sw.append(wi)
        swy.append(wyi)
        counts.append(ci)
    if len(counts) == v.size:
        return v.copy()
    reps = np.array(counts)
    out = np.repeat(np.array(swy) / np.array(sw), reps)
    alone = np.repeat(reps == 1, reps)
    out[alone] = v[alone]  # an entry that pools with nothing is its own projection
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


def _validate_blocks(blocks, n: int) -> list[tuple[int, int]]:
    out = []
    prev_stop = 0
    for blk in blocks:
        try:
            start, stop = int(blk[0]), int(blk[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"malformed partition block {blk!r}") from exc
        if not (0 <= start < stop <= n) or start < prev_stop:
            raise ValueError(
                f"partition blocks must be disjoint ordered half-open ranges in [0,{n}); got {blk!r}"
            )
        prev_stop = stop
        out.append((start, stop))
    return out


def project_subspace(values, blocks, weights=None) -> np.ndarray:
    """Replace each half-open index block by its weighted mean.

    Indices not covered by any block pass through unchanged.  This is the
    orthogonal projection onto the subspace of functions constant on the
    blocks; it preserves the overall weighted mean and is idempotent.
    """
    v = np.asarray(values, dtype=float)
    w = _weights_like(v, weights)
    out = v.copy()
    for start, stop in _validate_blocks(blocks, v.size):
        out[start:stop] = np.sum(w[start:stop] * v[start:stop]) / np.sum(w[start:stop])
    return out


def project_tangent_cone(values, blocks, weights=None) -> np.ndarray:
    """Isotonic fit independently within each block, identity elsewhere.

    This is the projection onto the tangent cone of the monotone cone at a
    configuration whose maximal clusters are the given blocks: inside a
    cluster the perturbation must be nondecreasing, across distinct clusters
    it is unconstrained.
    """
    v = np.asarray(values, dtype=float)
    w = _weights_like(v, weights)
    out = v.copy()
    for start, stop in _validate_blocks(blocks, v.size):
        out[start:stop] = project_monotone(v[start:stop], w[start:stop])
    return out

