"""Static clustering predictor: flux function, envelope, regions, subgroups.

Everything here is computed from the *initial* data alone.  The flux

    A(m) = integral_0^m psi-bar   (piecewise linear, slopes = cell psi)

and its lower convex envelope A** split the mass interval [0,1) into
supercritical cells (A > A**: this mass clusters in finite time whatever the
kernel), critical cells (A = A** on a segment wider than the cell: a cluster
candidate whose fate depends on the kernel's origin singularity) and
subcritical cells (no clustering at this mass).  :func:`analyze` states the
exact labeling and forecast rules.

A maximal interval of constant A** slope is a *subgroup*: the mass that can
ever aggregate.  Distinct subgroups have strictly increasing slopes (their
natural velocities); the inter-subgroup distance either grows linearly
(thin-tail kernels, large velocity gap) or stays inside a computable band
(:func:`flocking_thresholds`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .exceptions import InvalidScenarioError
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


_LABELS = tuple(RegionLabel)  # the label and forecast codes below index these
_FORECASTS = tuple(Forecast)


def analyze(ensemble: Ensemble, kernel: Kernel) -> FluxAnalysis:
    """Run the whole static pipeline on the initial data.

    A cell is Supercritical iff the gap A - A** exceeds
    ``1e-12 * (1 + max |A|)`` at either of its end nodes (the gap is linear
    within a cell, so that is equivalent to exceeding it somewhere inside).
    Otherwise the cell agrees with the envelope; it is Critical when its hull
    segment spans more than one cell (a linear piece of A** wider than the
    cell) and Subcritical when the cell is a hull segment of its own (slope
    strictly increases at both ends).

    The subgroups are exactly the hull segments, the flat runs of the
    isotonic fit of the cell psi.  A one-cell subgroup does not
    cluster.  A wider one clusters in finite time when 1/Phi is integrable at
    the origin, or when all its cells are supercritical; under the vanishing
    kernel it clusters in finite time iff any cell is supercritical and never
    otherwise; for every other kernel it clusters in infinite time.
    """
    A = build_flux(ensemble)
    hull = lower_convex_envelope(ensemble.cell_psi, ensemble.cell_masses)
    eps_env = 1e-12 * (1.0 + float(np.max(np.abs(A.values))))
    edges = np.searchsorted(A.nodes, hull.nodes)
    widths = np.diff(edges)

    above = A.values - hull(A.nodes) > eps_env
    sup = above[:-1] | above[1:]
    codes = np.where(sup, 0, np.where(np.repeat(widths > 1, widths), 1, 2))
    labels = tuple(_LABELS[c] for c in codes.tolist())
    cuts = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), codes.size]
    regions = tuple(Region(float(A.nodes[a]), float(A.nodes[b]), labels[a])
                    for a, b in zip(cuts[:-1], cuts[1:]))

    n_sup = np.add.reduceat(sup.astype(np.intp), edges[:-1])
    finite = (kernel.reciprocal_phi_integrable_at_zero | (n_sup == widths)
              | (kernel.vanishes & (n_sup > 0)))
    fates = np.where(widths == 1, 0, np.where(finite, 1, 0 if kernel.vanishes else 2))
    subgroups = tuple(
        Subgroup(lo, hi, (a, b), psi, _FORECASTS[f])
        for lo, hi, a, b, psi, f in zip(hull.nodes[:-1].tolist(), hull.nodes[1:].tolist(),
                                        edges[:-1].tolist(), edges[1:].tolist(),
                                        hull.slopes.tolist(), fates.tolist()))

    return FluxAnalysis(kernel=kernel, A=A, A_star_star=hull, cell_labels=labels,
                        regions=regions, subgroups=subgroups)


def predicted_partition(analysis: FluxAnalysis, ensemble: Ensemble) -> list[tuple[int, int]]:
    """Forecast of the final cell partition at a long finite horizon.

    Weakly singular kernels collapse every non-singleton subgroup; all other
    kernels collapse exactly the maximal supercritical cell runs by any
    finite time.  Cells pre-merged at construction (initial clusters) stay
    together regardless, so only an initial cluster start can be a cut.
    """
    cuts = ensemble.starts[1:]
    if analysis.kernel.reciprocal_phi_integrable_at_zero:
        # the first cell of each subgroup (hull vertices are A nodes)
        cuts = cuts[np.isin(cuts, np.searchsorted(analysis.A.nodes, analysis.A_star_star.nodes))]
    else:
        # compare objects: against a plain str-valued member numpy compares strings
        sup = (np.asarray(analysis.cell_labels, dtype=object)
               == np.array(RegionLabel.SUPERCRITICAL, dtype=object))
        cuts = cuts[~(sup[cuts - 1] & sup[cuts])]
    bounds = [0, *cuts.tolist(), ensemble.n_cells]
    return list(zip(bounds[:-1], bounds[1:]))


def _pair_thresholds(analysis: FluxAnalysis, first: np.ndarray, second: np.ndarray):
    """``(rate, lower, upper, thin)`` of the subgroup pairs ``(first[k], second[k])``,
    read off the envelope: psi is its slopes, a pair's mass span runs from node
    ``first`` to node ``second + 1``.  ``thin`` marks a velocity gap above the L1
    norm of phi; ``rate`` is NaN off it, ``lower`` and ``upper`` NaN where their
    argument leaves Phi's range (always so on a thin pair)."""
    hull, kernel = analysis.A_star_star, analysis.kernel
    gap = hull.slopes[second] - hull.slopes[first]
    if np.any(gap <= 0.0):
        raise InvalidScenarioError("subgroup velocities must increase with index")
    thin = gap > kernel.phi_l1_norm
    y = np.stack((0.5 * gap, gap / (hull.nodes[second + 1] - hull.nodes[first])))
    ok = y < kernel.big_phi_sup
    half, upper = np.where(ok, kernel.inv_big_phi(np.where(ok, y, 0.0)), np.nan)
    return np.where(thin, gap - kernel.phi_l1_norm, np.nan), 2.0 * half, upper, thin


def flocking_thresholds(analysis: FluxAnalysis, first: int, second: int) -> FlockingThresholds:
    """Distance regime of subgroup pair (first < second, by index).

    Thin tail (velocity gap above the L1 norm of phi): the center distance
    grows at least linearly at ``rate = gap - l1``.  Otherwise the pair is in
    the bounded regime: outer-edge distance eventually below
    Phi^{-1}(gap / mass span) and limiting distance at least
    2 Phi^{-1}(gap / 2); each None when the argument leaves Phi's range.
    Raises :class:`InvalidScenarioError` when the velocity gap is not
    positive, as between subgroups that rounding split at tied psi.  This is
    one pair of the array evaluation :func:`~stickyalign.verify.check_flocking`
    runs on all adjacent pairs at once.
    """
    if not 0 <= first < second < len(analysis.subgroups):
        raise ValueError("need two distinct subgroup indices in order")
    rate, lower, upper, thin = (a[0].item() for a in _pair_thresholds(
        analysis, np.array([first]), np.array([second])))
    if thin:
        return FlockingThresholds(Regime.THIN_TAIL_DIVERGE, rate=rate, lower=None, upper=None)
    return FlockingThresholds(Regime.FAT_TAIL_BOUND, rate=None,
                              lower=None if np.isnan(lower) else lower,
                              upper=None if np.isnan(upper) else upper)
