"""Exact 1-D transport distances, the velocity semidistance, and the energy.

In one dimension the optimal coupling between two measures is the monotone
one, so W_p is just the L^p(0,1) distance between quantile functions.  For
atomic measures both quantiles are step functions; merging their breakpoint
grids makes the difference piecewise constant and every integral exact.
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import Ensemble, QuantileFunction
from .kernels import Kernel

__all__ = [
    "wasserstein",
    "velocity_semidistance",
    "energy",
]


def merged_cells(q1: QuantileFunction, q2: QuantileFunction):
    """Common refinement of two quantile grids.

    Returns ``(widths, idx1, idx2)``: positive cell widths of the refined
    grid and, per refined cell, the index of the generating cell in each
    input.
    """
    edges = np.unique(np.concatenate(([0.0, 1.0], q1.breakpoints, q2.breakpoints)))
    widths = np.diff(edges)
    left = edges[:-1]
    idx1 = np.searchsorted(q1.breakpoints, left, side="right")
    idx2 = np.searchsorted(q2.breakpoints, left, side="right")
    return widths, idx1, idx2


def _lp_step(diff: np.ndarray, widths: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(diff))) if diff.size else 0.0
    return float(np.sum(widths * np.abs(diff) ** p) ** (1.0 / p))


def wasserstein(q1: QuantileFunction, q2: QuantileFunction, p: float = 2.0) -> float:
    """W_p distance via the quantile (monotone-coupling) identity; p >= 1.

    ``p = inf`` gives the sup distance over the merged grid.
    """
    if p < 1.0:
        raise ValueError(f"wasserstein order must satisfy p >= 1, got {p}")
    widths, idx1, idx2 = merged_cells(q1, q2)
    return _lp_step(q1.values[idx1] - q2.values[idx2], widths, p)


def velocity_semidistance(q1: QuantileFunction, v1, q2: QuantileFunction, v2,
                          p: float = 2.0) -> float:
    """U_p: the L^p(0,1) distance between velocities read along each quantile.

    ``v1``/``v2`` are cellwise velocities aligned with the cells of the
    respective quantile function.  This is a semidistance: distinct particle
    configurations with the same velocity profile along mass are at U_p = 0.
    """
    if p < 1.0:
        raise ValueError(f"order must satisfy p >= 1, got {p}")
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != q1.values.shape or v2.shape != q2.values.shape:
        raise ValueError("cell velocities must align with the quantile cells")
    widths, idx1, idx2 = merged_cells(q1, q2)
    return _lp_step(v1[idx1] - v2[idx2], widths, p)


def energy(ensemble: Ensemble, kernel: Kernel) -> float:
    """Interaction energy minus the natural-velocity pairing.

    0.5 * sum_ab M_a M_b W_Phi(x_a - x_b)  -  sum_cells m psi x(cluster).

    The linear term pairs original-resolution psi with the cluster position
    each cell currently occupies, which is the discrete form of the
    functional on L^2(0,1); pooling psi first gives the same value.
    """
    x = ensemble.positions
    quad = kernel.energy(x, ensemble.masses)
    lin = float(np.sum(ensemble.cell_masses * ensemble.cell_psi * x[ensemble.lineage]))
    return quad - lin
