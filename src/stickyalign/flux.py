"""Static clustering predictor: flux function, envelope, regions, subgroups.

Everything here is computed from the *initial* data alone.  The flux

    A(m) = integral_0^m psi-bar   (piecewise linear, slopes = cell psi)

and its lower convex envelope A** split the mass interval [0,1) into

* supercritical cells, where A > A**: this mass clusters in finite time no
  matter what the kernel does;
* critical cells, where A = A** on a linear segment wider than the cell: the
  segment is a cluster candidate whose fate depends on the kernel's origin
  singularity;
* subcritical cells, where the envelope slope strictly increases across both
  cell boundaries: no clustering at this mass.

A maximal interval of constant A** slope is a *subgroup*: the mass that can
ever aggregate.  Distinct subgroups have strictly increasing slopes (their
natural velocities), and stay separated by an explicit positive distance for
all time (:func:`separation_bound`); the inter-subgroup distance either grows
linearly (thin-tail kernels, large velocity gap) or stays inside a computable
band (:func:`flocking_thresholds`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, QuantileFunction
from .exceptions import KernelRangeError
from .kernels import Kernel
from .monotone import PiecewiseLinear, cumulative_primitive, lower_convex_envelope

__all__ = [
    "RegionLabel",
    "Forecast",
    "Regime",
    "Subgroup",
    "Region",
    "FluxAnalysis",
    "FlockingThresholds",
    "build_flux",
    "analyze",
    "predicted_partition",
    "separation_bound",
    "flocking_thresholds",
]


class RegionLabel(str, enum.Enum):
    SUPERCRITICAL = "Supercritical"
    CRITICAL = "Critical"
    SUBCRITICAL = "Subcritical"


class Forecast(str, enum.Enum):
    NO_CLUSTER = "NoCluster"
    FINITE_TIME_CLUSTER = "FiniteTimeCluster"
    INFINITE_TIME_CLUSTER = "InfiniteTimeCluster"


class Regime(str, enum.Enum):
    THIN_TAIL_DIVERGE = "ThinTailDiverge"
    FAT_TAIL_BOUND = "FatTailBound"


@dataclass(frozen=True)
class Region:
    """Maximal run of cells sharing one label, as a half-open mass interval."""

    m_lo: float
    m_hi: float
    label: RegionLabel


@dataclass(frozen=True)
class Subgroup:
    """Maximal constant-slope interval of A**.

    ``cells`` is the half-open cell index range, ``psi`` the common envelope
    slope (the subgroup's natural velocity), ``forecast`` its clustering fate.
    """

    m_lo: float
    m_hi: float
    cells: tuple[int, int]
    psi: float
    forecast: Forecast


@dataclass(frozen=True)
class FlockingThresholds:
    """Distance behavior of one ordered subgroup pair.

    ThinTailDiverge: centers drift apart at least linearly with ``rate``.
    FatTailBound: the outer-edge distance is eventually confined below
    ``upper`` and the limiting distance is at least ``lower``; either bound is
    None when the velocity gap exceeds the primitive's range.
    """

    regime: Regime
    rate: float | None
    lower: float | None
    upper: float | None


def build_flux(ensemble: Ensemble) -> PiecewiseLinear:
    """Flux A on the original cell grid: nodes at cumulative cell masses,
    slopes the cell natural velocities, A(0) = 0."""
    return cumulative_primitive(ensemble.cell_psi, ensemble.cell_masses)


@dataclass(frozen=True)
class FluxAnalysis:
    """Full static analysis: flux, envelope, per-cell labels, subgroups."""

    kernel: Kernel
    A: PiecewiseLinear
    A_star_star: PiecewiseLinear
    cell_labels: tuple[RegionLabel, ...]
    regions: tuple[Region, ...]
    subgroups: tuple[Subgroup, ...]

    @property
    def envelope_slopes_per_cell(self) -> np.ndarray:
        """A** slope over each cell (== isotonic fit of cell psi)."""
        mids = 0.5 * (self.A.nodes[:-1] + self.A.nodes[1:])
        seg = np.clip(np.searchsorted(self.A_star_star.nodes, mids, side="right") - 1,
                      0, self.A_star_star.nodes.size - 2)
        return self.A_star_star.slopes[seg]

    def subgroup_at(self, m: float) -> Subgroup:
        """Subgroup whose half-open mass interval contains ``m``."""
        for sg in self.subgroups:
            if sg.m_lo <= m < sg.m_hi:
                return sg
        if m == self.subgroups[-1].m_hi:  # right endpoint convention
            return self.subgroups[-1]
        raise ValueError(f"mass coordinate {m} outside [0, 1]")


def _label_cells(A: PiecewiseLinear, hull: PiecewiseLinear,
                 eps_env: float) -> list[RegionLabel]:
    """Per-cell classification from the node gaps A - A**.

    A cell is Supercritical iff the gap exceeds eps_env at either of its
    endpoint nodes (the gap is linear within a cell, so that is equivalent to
    exceeding it somewhere inside).  Otherwise the cell agrees with the
    envelope; it is Critical when its hull segment spans more than one cell
    (a linear piece of A** wider than the cell) and Subcritical when the cell
    is a hull segment of its own (slope strictly increases at both ends).
    """
    gaps = A.values - hull(A.nodes)
    # hull segment index containing each cell (cells never straddle vertices)
    mids = 0.5 * (A.nodes[:-1] + A.nodes[1:])
    seg = np.clip(np.searchsorted(hull.nodes, mids, side="right") - 1,
                  0, hull.nodes.size - 2)
    seg_cells = np.bincount(seg, minlength=hull.nodes.size - 1)
    labels = []
    for i in range(A.nodes.size - 1):
        if gaps[i] > eps_env or gaps[i + 1] > eps_env:
            labels.append(RegionLabel.SUPERCRITICAL)
        elif seg_cells[seg[i]] > 1:
            labels.append(RegionLabel.CRITICAL)
        else:
            labels.append(RegionLabel.SUBCRITICAL)
    return labels


def _forecast_for(cells: tuple[int, int], labels: list[RegionLabel],
                  kernel: Kernel) -> Forecast:
    a, b = cells
    if b - a == 1:
        return Forecast.NO_CLUSTER
    sup = [lab is RegionLabel.SUPERCRITICAL for lab in labels[a:b]]
    if kernel.reciprocal_phi_integrable_at_zero:
        return Forecast.FINITE_TIME_CLUSTER
    if all(sup):
        # fully supercritical subgroups collapse in finite time for any kernel
        return Forecast.FINITE_TIME_CLUSTER
    if kernel.vanishes:
        return Forecast.FINITE_TIME_CLUSTER if any(sup) else Forecast.NO_CLUSTER
    return Forecast.INFINITE_TIME_CLUSTER


def analyze(ensemble: Ensemble, kernel: Kernel, eps_env: float | None = None) -> FluxAnalysis:
    """Run the whole static pipeline on the initial data."""
    A = build_flux(ensemble)
    hull = lower_convex_envelope(A)
    if eps_env is None:
        eps_env = 1e-12 * (1.0 + float(np.max(np.abs(A.values))))
    labels = _label_cells(A, hull, eps_env)

    regions = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] is not labels[start]:
            regions.append(Region(float(A.nodes[start]), float(A.nodes[i]), labels[start]))
            start = i

    # subgroups are exactly the hull segments (collinear nodes were popped,
    # so segment slopes strictly increase)
    subgroups = []
    for k in range(hull.nodes.size - 1):
        lo, hi = float(hull.nodes[k]), float(hull.nodes[k + 1])
        a = int(np.searchsorted(A.nodes, lo, side="left"))
        b = int(np.searchsorted(A.nodes, hi, side="left"))
        psi = float((hull.values[k + 1] - hull.values[k]) / (hi - lo))
        cells = (a, b)
        subgroups.append(Subgroup(lo, hi, cells, psi,
                                  _forecast_for(cells, labels, kernel)))

    return FluxAnalysis(kernel=kernel, A=A, A_star_star=hull,
                        cell_labels=tuple(labels), regions=tuple(regions),
                        subgroups=tuple(subgroups))


def predicted_partition(analysis: FluxAnalysis, ensemble: Ensemble) -> list[tuple[int, int]]:
    """Forecast of the final cell partition at a long finite horizon.

    Weakly singular kernels collapse every non-singleton subgroup; all other
    kernels collapse exactly the maximal supercritical cell runs by any
    finite time.  Cells pre-merged at construction (initial clusters) stay
    together regardless, so those bonds are OR-ed in.
    """
    n = ensemble.n_cells
    bound = np.zeros(max(n - 1, 0), dtype=bool)  # bond between cell i and i+1

    if analysis.kernel.reciprocal_phi_integrable_at_zero:
        for sg in analysis.subgroups:
            a, b = sg.cells
            bound[a:b - 1] = True
    else:
        labels = analysis.cell_labels
        for i in range(n - 1):
            if labels[i] is RegionLabel.SUPERCRITICAL and labels[i + 1] is RegionLabel.SUPERCRITICAL:
                bound[i] = True

    lin = ensemble.lineage
    bound |= (lin[1:] == lin[:-1])

    blocks = []
    start = 0
    for i in range(n - 1):
        if not bound[i]:
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, n))
    return blocks


def _segment_slope_at(analysis: FluxAnalysis, m: float) -> float:
    """Right-derivative of A** at mass m (left limit at m = 1)."""
    hull = analysis.A_star_star
    k = int(np.searchsorted(hull.nodes, m, side="right")) - 1
    k = min(max(k, 0), hull.nodes.size - 2)
    return float(hull.slopes[k])


def separation_bound(analysis: FluxAnalysis, initial: QuantileFunction,
                     m1: float, m2: float) -> float:
    """Time-independent lower bound on X_t(m2) - X_t(m1).

    Requires the envelope slopes psi' = (A**)'(m1) < psi'' = (A**)'(m2), i.e.
    the two mass coordinates sit in distinct subgroups.  With
    sigma = (psi'' - psi')/2, the attraction can never close distances below
    eta = 2 Phi^{-1}(sigma/2) (infinite when sigma/2 is out of Phi's range),
    so the gap stays at least min(initial gap, eta).
    """
    psi1 = _segment_slope_at(analysis, m1)
    psi2 = _segment_slope_at(analysis, m2)
    if not psi1 < psi2:
        raise ValueError(
            f"separation bound needs increasing subgroup velocities; got {psi1} !< {psi2}")
    sigma = 0.5 * (psi2 - psi1)
    kernel = analysis.kernel
    if kernel.vanishes or 0.5 * sigma >= kernel.big_phi_sup:
        eta = math.inf
    else:
        try:
            eta = 2.0 * kernel.inv_big_phi(0.5 * sigma)
        except KernelRangeError:
            eta = math.inf
    gap0 = float(initial(m2)) - float(initial(m1))
    return min(gap0, eta)


def flocking_thresholds(analysis: FluxAnalysis, first: int, second: int) -> FlockingThresholds:
    """Distance regime of subgroup pair (first < second, by index).

    Thin tail (velocity gap above the L1 norm of phi): the center distance
    grows at least linearly at ``rate = gap - l1``.  Otherwise the pair is in
    the bounded regime: outer-edge distance eventually below
    Phi^{-1}(gap / mass span) and limiting distance at least
    2 Phi^{-1}(gap / 2); each None when the argument leaves Phi's range.
    """
    if not 0 <= first < second < len(analysis.subgroups):
        raise ValueError("need two distinct subgroup indices in order")
    sg1 = analysis.subgroups[first]
    sg2 = analysis.subgroups[second]
    gap = sg2.psi - sg1.psi
    if gap <= 0.0:
        raise ValueError("subgroup velocities must increase with index")
    kernel = analysis.kernel
    l1 = kernel.phi_l1_norm
    if gap > l1:
        return FlockingThresholds(Regime.THIN_TAIL_DIVERGE, rate=gap - l1,
                                  lower=None, upper=None)
    span = sg2.m_hi - sg1.m_lo

    def _inv(y: float) -> float | None:
        if y >= kernel.big_phi_sup:
            return None
        try:
            return float(kernel.inv_big_phi(y))
        except KernelRangeError:
            return None

    return FlockingThresholds(Regime.FAT_TAIL_BOUND, rate=None,
                              lower=None if (lo := _inv(0.5 * gap)) is None else 2.0 * lo,
                              upper=_inv(gap / span))
