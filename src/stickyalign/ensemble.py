"""Particle/cluster state and its quantile-function representation.

An :class:`Ensemble` is a finite mass distribution on the line: cells are the
original particles (immutable once constructed), clusters are the current
maximal groups of stuck-together cells.  The *natural velocity*

    psi_i = v_i + sum_j m_j Phi(x_i - x_j)

is computed once from the initial data and is the conserved slope field of the
reduced first-order dynamics: between collisions each cluster's psi is
constant, and at a collision the merged cluster's psi is the mass-weighted
mean of its constituents.

A cluster is a run of consecutive cells, stored once as ``starts``, its first
cell.  Cluster mass and psi are pooled from the cells with ``np.sum``, never
updated incrementally: a merge re-pools its merged blocks from their own cells
and carries every other cluster over, never touching the conserved cell data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidEnsembleError
from .kernels import Kernel

__all__ = [
    "Ensemble",
    "QuantileFunction",
    "natural_velocities",
]

#: relative slack allowed on sum(masses) == 1 at construction
MASS_BUDGET_TOL = 1e-12


def _block_sums(a, starts) -> np.ndarray:
    """``np.sum`` of each block ``a[..., starts[k]:starts[k + 1]]``, bit for bit:
    a zero in front of every block makes ``np.add.reduceat`` add in that order."""
    return np.add.reduceat(np.insert(a, starts, 0.0, axis=-1),
                           starts + np.arange(starts.size), axis=-1)


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _checked_cells(masses, positions, velocities, *, normalize: bool = False):
    """Raw cell arrays as float ``(m, x, v)``: equal-length, nonempty, 1-d and
    finite, masses positive with a total within ``MASS_BUDGET_TOL`` of 1 (or
    rescaled to 1 with ``normalize``), positions nondecreasing; otherwise
    :class:`InvalidEnsembleError`."""
    m = np.array(masses, dtype=float)
    x = np.array(positions, dtype=float)
    v = np.array(velocities, dtype=float)
    if not (m.shape == x.shape == v.shape) or m.ndim != 1 or m.size == 0:
        raise InvalidEnsembleError("masses, positions, velocities must be equal-length 1-d")
    if np.any(~np.isfinite(m)) or np.any(~np.isfinite(x)) or np.any(~np.isfinite(v)):
        raise InvalidEnsembleError("state must be finite")
    if np.any(m <= 0.0):
        raise InvalidEnsembleError("masses must be strictly positive")
    total = float(np.sum(m))
    if normalize:
        m = m / total
    elif abs(total - 1.0) > MASS_BUDGET_TOL:
        raise InvalidEnsembleError(f"masses must sum to 1 (got {total!r})")
    if np.any(x[1:] < x[:-1]):  # compared, not subtracted: a gap may overflow
        raise InvalidEnsembleError("positions must be nondecreasing")
    return m, x, v


def _checked_psi(m, x, v, kernel: Kernel) -> np.ndarray:
    """psi = v + (Phi * rho)(x) of checked cell arrays; a non-finite result
    (an overflowing convolution) is an :class:`InvalidEnsembleError`."""
    psi = v + kernel.convolve(x, x, m)
    if not np.all(np.isfinite(psi)):
        raise InvalidEnsembleError("natural velocities must be finite")
    return psi


def natural_velocities(masses, positions, velocities, kernel: Kernel) -> np.ndarray:
    """psi_i = v_i + sum_j m_j Phi(x_i - x_j), through ``kernel.convolve``.

    The cells and the result are checked as :meth:`Ensemble.from_particles`
    checks them, but the masses may have any positive total.  The self term
    vanishes because Phi(0) = 0, so weakly singular kernels are safe here
    (only the primitive is evaluated).
    """
    _, x, v = _checked_cells(masses, positions, velocities, normalize=True)
    return _checked_psi(np.asarray(masses, dtype=float), x, v, kernel)


@dataclass(frozen=True)
class Ensemble:
    """Cluster-resolved state over an immutable cell (original particle) grid.

    Attributes
    ----------
    cell_masses, cell_positions, cell_velocities, cell_psi
        Original particle data, frozen at construction.
    starts
        First cell index of each cluster: ``starts[0] == 0``, strictly
        increasing, one entry per cluster.
    masses, positions, velocities, psi
        Per-cluster state.  ``positions`` strictly increasing across clusters;
        ``masses`` and ``psi`` are the cellwise sums/means of their block.
    """

    cell_masses: np.ndarray
    cell_positions: np.ndarray
    cell_velocities: np.ndarray
    cell_psi: np.ndarray
    starts: np.ndarray
    masses: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    psi: np.ndarray

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_particles(masses, positions, velocities, kernel: Kernel,
                       *, normalize: bool = False) -> "Ensemble":
        """Build the initial ensemble from raw particles.

        Positions must be nondecreasing.  Exactly coincident particles are
        pre-merged into a single cluster (mass-weighted velocity and psi), so
        the cluster positions are strictly increasing from the start.  With
        ``normalize`` the masses are rescaled to total 1; otherwise a total
        off by more than ``MASS_BUDGET_TOL`` is an error.
        """
        m, x, v = _checked_cells(masses, positions, velocities, normalize=normalize)
        psi = _checked_psi(m, x, v, kernel)
        starts = np.flatnonzero(np.concatenate(([True], x[1:] > x[:-1])))
        return Ensemble._assemble(m, x, v, psi, starts,
                                  cluster_positions=x[starts], cluster_velocities=None)

    @staticmethod
    def _assemble(cell_m, cell_x, cell_v, cell_psi, starts,
                  cluster_positions, cluster_velocities) -> "Ensemble":
        """Common path: pool every cluster's mass/psi from its cells.

        ``cluster_velocities=None`` pools cell velocities too (construction
        time); a loaded record passes its saved cluster velocities instead.
        """
        cm = _block_sums(cell_m, starts)
        cpsi = _block_sums(cell_m * cell_psi, starts) / cm
        if cluster_velocities is None:
            cluster_velocities = _block_sums(cell_m * cell_v, starts) / cm
        return Ensemble(
            cell_masses=_frozen(cell_m),
            cell_positions=_frozen(cell_x),
            cell_velocities=_frozen(cell_v),
            cell_psi=_frozen(cell_psi),
            starts=_frozen(starts, np.intp),
            masses=_frozen(cm),
            positions=_frozen(cluster_positions),
            velocities=_frozen(cluster_velocities),
            psi=_frozen(cpsi),
        )

    # -- basic geometry -------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.cell_masses.size

    @property
    def n_clusters(self) -> int:
        return self.masses.size

    @property
    def bounds(self) -> np.ndarray:
        """Cluster k holds the cells ``bounds[k]:bounds[k + 1]``."""
        return np.append(self.starts, self.n_cells)

    @cached_property
    def lineage(self) -> np.ndarray:
        """Cell index -> cluster index (read-only, derived from ``starts``)."""
        return _frozen(np.repeat(np.arange(self.n_clusters), np.diff(self.bounds)), np.intp)

    def cluster_cell_ranges(self) -> list[tuple[int, int]]:
        """Half-open cell index range of each cluster, in order."""
        b = self.bounds.tolist()
        return list(zip(b[:-1], b[1:]))

    def validate(self) -> None:
        """Re-check all structural invariants; raise on violation."""
        _checked_cells(self.cell_masses, self.cell_positions, self.cell_velocities)
        if np.any(np.diff(self.positions) <= 0.0):
            raise InvalidEnsembleError("cluster positions must be strictly increasing")
        if (self.starts.size != self.n_clusters or self.starts[:1].tolist() != [0]
                or np.any(np.diff(self.bounds) <= 0)):
            raise InvalidEnsembleError("starts must begin at 0 and increase strictly "
                                       "below n_cells, one per cluster")
        mass = _block_sums(self.cell_masses, self.starts)
        if np.any(np.abs(mass - self.masses) > 1e-12):
            raise InvalidEnsembleError("cluster mass must pool its cells")
        pooled = _block_sums(self.cell_masses * self.cell_psi, self.starts) / mass
        if np.any(np.abs(pooled - self.psi) > 1e-12 * (1.0 + np.abs(pooled))):
            raise InvalidEnsembleError("cluster psi must be the pooled cell psi")

    # -- evolution helpers ----------------------------------------------

    def evolved(self, positions, velocities) -> "Ensemble":
        """Same clusters, new positions/velocities (integrator output)."""
        x = _frozen(positions)
        if x.shape != self.positions.shape:
            raise InvalidEnsembleError("evolved positions must keep the cluster count")
        return dataclasses.replace(self, positions=x, velocities=_frozen(velocities))

    def merged(self, runs: list[tuple[int, int]]) -> "Ensemble":
        """Merge each half-open *cluster*-index run into one cluster.

        Pooled position and velocity are the mass-weighted means of the
        participating clusters (the momentum-conserving inelastic rule), pooled
        mass and psi those of the run's own cells, each one ``np.sum``; a
        cluster in no run, or in a run of one, is carried over exactly.
        """
        n = self.n_clusters
        keep = np.ones(n, dtype=bool)  # old cluster i starts a new cluster
        masses, positions, velocities, psi = (
            a.copy() for a in (self.masses, self.positions, self.velocities, self.psi))
        bounds = self.bounds
        prev_stop = 0
        for start, stop in runs:
            if not (0 <= start < stop <= n) or start < prev_stop:
                raise InvalidEnsembleError(f"malformed merge run {(start, stop)!r}")
            prev_stop = stop
            if stop - start > 1:
                keep[start + 1:stop] = False
                w = self.masses[start:stop]
                positions[start] = np.sum(w * self.positions[start:stop]) / np.sum(w)
                velocities[start] = np.sum(w * self.velocities[start:stop]) / np.sum(w)
                a, b = bounds[start], bounds[stop]
                masses[start] = np.sum(self.cell_masses[a:b])
                psi[start] = np.sum(self.cell_masses[a:b] * self.cell_psi[a:b]) / masses[start]
        return dataclasses.replace(
            self, starts=_frozen(self.starts[keep], np.intp), masses=_frozen(masses[keep]),
            positions=_frozen(positions[keep]), velocities=_frozen(velocities[keep]),
            psi=_frozen(psi[keep]))

    # -- measure-side views ---------------------------------------------

    def to_quantile(self) -> "QuantileFunction":
        """Quantile (monotone-rearrangement) view of the cluster measure."""
        theta = np.cumsum(self.masses)[:-1]
        return QuantileFunction(breakpoints=_frozen(theta), values=self.positions)

    def convolve_big_phi(self, kernel: Kernel, at):
        """(Phi * rho)(at) = sum_j m_j Phi(at - x_j); scalar or vectorized."""
        out = kernel.convolve(np.atleast_1d(at), self.positions, self.masses)
        if np.isscalar(at) or getattr(at, "ndim", 1) == 0:
            return float(out[0])
        return out

    def momentum(self) -> float:
        return float(np.sum(self.masses * self.velocities))


@dataclass(frozen=True)
class QuantileFunction:
    """Right-continuous step quantile function of an atomic measure.

    ``breakpoints`` are the interior cumulative masses (strictly increasing,
    in (0,1)); ``values`` has one entry per cell and is nondecreasing.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.size != vals.size - 1:
            raise InvalidEnsembleError("need exactly one breakpoint between consecutive cells")
        if bp.size and (np.any(np.diff(bp) <= 0.0) or bp[0] <= 0.0 or bp[-1] >= 1.0):
            raise InvalidEnsembleError("breakpoints must be strictly increasing inside (0,1)")
        if np.any(np.diff(vals) < 0.0):
            raise InvalidEnsembleError("quantile values must be nondecreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def cell_widths(self) -> np.ndarray:
        edges = np.concatenate(([0.0], self.breakpoints, [1.0]))
        return np.diff(edges)

    def __call__(self, m):
        idx = np.searchsorted(self.breakpoints, m, side="right")
        return self.values[idx]
