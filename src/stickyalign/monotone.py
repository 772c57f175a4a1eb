"""Isotonic projection onto the monotone cone, and lower convex envelopes.

The monotone cone is the set of nondecreasing sequences (discretized quantile
functions).  Two routes compute the weighted L2 projection onto it:

* :func:`project_monotone` - pool-adjacent-violators (PAVA), the O(n)
  production path;
* slopes of :func:`lower_convex_envelope` applied to the cumulative primitive
  of the sequence - the geometric cross-check path.

The two are the same function mathematically (the projection is the right
derivative of the convexified primitive), and the tests pin them to each other
to 1e-14.  Block variants project onto the flat subspace of a partition
(:func:`project_subspace`) and onto its tangent cone
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
    sums (w, w*y) and violations are tested by cross-multiplication, which
    keeps the arithmetic identical to chord slopes of the cumulative primitive
    and so bit-consistent with the envelope route.

    The weighted mean is preserved exactly and the map is a contraction in
    every weighted L^p norm.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be a 1-d array")
    n = v.size
    if n == 0:
        return v.copy()
    w = _weights_like(v, weights)

    sw = np.empty(n)  # pooled weight per block
    swy = np.empty(n)  # pooled weight*value per block
    counts = np.empty(n, dtype=np.intp)
    top = 0
    for i in range(n):
        sw[top] = w[i]
        swy[top] = w[i] * v[i]
        counts[top] = 1
        top += 1
        # merge while the previous block mean exceeds the new one
        while top > 1 and swy[top - 2] * sw[top - 1] > swy[top - 1] * sw[top - 2]:
            sw[top - 2] += sw[top - 1]
            swy[top - 2] += swy[top - 1]
            counts[top - 2] += counts[top - 1]
            top -= 1
    out = np.repeat(swy[:top] / sw[:top], counts[:top])
    alone = np.repeat(counts[:top] == 1, counts[:top])
    out[alone] = v[alone]  # an entry that pools with nothing is its own projection
    return out


def cumulative_primitive(values, weights=None) -> PiecewiseLinear:
    """Integral of the step function with the given values and weights.

    Nodes are the cumulative weights prefixed with 0; node values the running
    weighted sums.  The slope of segment i recovers values[i], so convexifying
    this primitive and reading slopes is the envelope route to isotonic fit.
    """
    v = np.asarray(values, dtype=float)
    w = _weights_like(v, weights)
    nodes = np.concatenate(([0.0], np.cumsum(w)))
    vals = np.concatenate(([0.0], np.cumsum(w * v)))
    return PiecewiseLinear(nodes, vals)


def lower_convex_envelope(pl: PiecewiseLinear) -> PiecewiseLinear:
    """Greatest convex function below ``pl`` (lower hull of its breakpoints).

    Monotone-chain sweep keeping strictly left turns, so collinear interior
    points are dropped and the result is the canonical minimal representation.
    Endpoint values always survive.
    """
    xs, ys = pl.nodes, pl.values
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross <= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)
    return PiecewiseLinear(np.array(hx), np.array(hy))


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

