"""Shared scenario generators, the ensemble invariants, and the oracles that fast
paths are tested against: the hull sweep for the envelope and the unfiltered
vector contact trigger.

Masses are built as dyadic rationals (integer / 2**20) summing to exactly one:
every partial sum and every pooled cluster mass is then exactly representable,
so mass conservation can be asserted with ``==`` instead of a tolerance.
"""

import numpy as np
import pytest

from stickyalign import (
    AllToAll,
    CompactBump,
    Ensemble,
    Exponential,
    PiecewiseLinear,
    PowerLaw,
    Zero,
)
from stickyalign.ensemble import _block_sums, _frozen

MASS_DENOM_POW = 20

KERNEL_POOL = (
    Zero(),
    AllToAll(0.8),
    PowerLaw(1.0, 0.5, 1.0),
    Exponential(0.9),
    CompactBump(1.0, 2.0),
)


def dyadic_masses(rng: np.random.Generator, n: int,
                  denom_pow: int = MASS_DENOM_POW) -> np.ndarray:
    """n positive masses k/2**denom_pow with sum exactly 1.0."""
    denom = 1 << denom_pow
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [denom])))
    return parts.astype(float) / denom


def random_scenario(rng: np.random.Generator, n_max: int = 50, *,
                    kernel=None, scale: float = 1.5, min_gap: float = 1e-4):
    """A sorted random ensemble + kernel; masses dyadic, positions distinct."""
    n = int(rng.integers(2, n_max + 1))
    if kernel is None:
        kernel = KERNEL_POOL[int(rng.integers(len(KERNEL_POOL)))]
    m = dyadic_masses(rng, n)
    x = np.sort(rng.normal(scale=scale, size=n)) + np.arange(n) * min_gap
    v = rng.normal(scale=1.5, size=n)
    return Ensemble.from_particles(m, x, v, kernel), kernel


def ensemble_with_psi(masses, positions, psi, kernel, **kwargs) -> Ensemble:
    """An ensemble whose natural velocities are exactly ``psi``, with the raw
    velocities backed out as ``psi - conv``.

    ``Ensemble.from_particles`` would recompute psi as ``v + conv``, which can
    miss ``psi`` by an ulp and split a tie between cells; for some ``psi`` no
    float ``v`` hits it (``v`` has the coarser ulp), so ``psi`` is set as
    given, on the cells that ``from_particles`` checks and groups.
    """
    psi = np.asarray(psi, dtype=float)
    ens = Ensemble.from_particles(masses, positions, np.zeros_like(psi), kernel, **kwargs)
    m, x = ens.cell_masses, ens.cell_positions
    cells = (m, x, _frozen(psi - kernel.convolve(x, m)), _frozen(psi))
    exact = Ensemble._assemble(cells, ens.starts, ens.positions)
    assert np.array_equal(exact.cell_psi, psi)
    return exact


def validate_ensemble(ens: Ensemble) -> None:
    """Assert the invariants every ensemble keeps: strictly increasing cluster
    positions, ``starts`` that begin at 0 and increase strictly below the cell
    count, one per cluster, and cluster mass and psi bit-equal to the pools of
    their cells."""
    assert np.all(np.diff(ens.positions) > 0.0), "cluster positions must increase strictly"
    assert (ens.starts.size == ens.n_clusters and ens.starts[:1].tolist() == [0]
            and np.all(np.diff(ens.bounds) > 0)), f"malformed starts {ens.starts}"
    mass = _block_sums(ens.cell_masses, ens.starts)
    assert mass.tobytes() == ens.masses.tobytes(), "cluster mass must pool its cells"
    psi = _block_sums(ens.cell_masses * ens.cell_psi, ens.starts) / mass
    assert psi.tobytes() == ens.psi.tobytes(), "cluster psi must pool its cells"


def cell_ranges(snapshot: Ensemble) -> list[tuple[int, int]]:
    """Half-open cell ranges of a snapshot's clusters, the form of ``predicted_partition``."""
    b = snapshot.bounds.tolist()
    return list(zip(b[:-1], b[1:]))


def rewrite_record(directory, drop=(), **arrays) -> None:
    """Replace (or, with ``drop``, delete) members of a saved ``record.npz``."""
    path = directory / "record.npz"
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files if name not in drop}
    np.savez(path, **{**members, **arrays})


def sweep_envelope(pl: PiecewiseLinear) -> PiecewiseLinear:
    """Greatest convex function below ``pl`` (lower hull of its breakpoints).

    Monotone-chain sweep keeping strictly left turns, so collinear interior
    points are dropped and the result is the canonical minimal representation.
    Endpoint values always survive.  This is the geometric oracle for
    ``lower_convex_envelope``, which reads the hull off the isotonic fit.
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


def first_trigger_unfiltered(x0, v0, x1, v1, h, eps, s_tol):
    """Earliest contact trigger of ``dynamics._first_trigger``, computed for
    every gap at once: the Hermite cubic of each gap is evaluated at all its
    candidates (interior critical points and s = 1) with no prefilter, and
    the brackets that open before the smallest bracket end are bisected.
    This is the oracle for the control-point prefilter of the library's
    version, which must return the same value bit for bit.
    """
    d = np.diff(x0)
    g1 = np.diff(x1)
    dg0 = np.diff(v0)
    dg1 = np.diff(v1)
    a = 2.0 * d + h * dg0 - 2.0 * g1 + h * dg1
    b = -3.0 * d - 2.0 * h * dg0 + 3.0 * g1 - h * dg1
    c = h * dg0
    thr = np.where(d > eps, eps, 0.0)
    qa, qb = 3.0 * a, 2.0 * b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * c), qb))
        roots = np.where(qa != 0.0, [q / qa, c / q], -c / qb)
    roots = np.where((0.0 < roots) & (roots < 1.0), roots, 1.0)
    nodes = np.vstack([np.zeros_like(d), np.sort(roots, axis=0), np.ones_like(d)])
    s = nodes[1:]
    below = ((a * s + b) * s + c) * s + d <= thr
    gaps = np.flatnonzero((d > thr) & below.any(axis=0))
    if gaps.size == 0:
        return None
    k = np.argmax(below[:, gaps], axis=0)
    lo, hi = nodes[k, gaps], nodes[k + 1, gaps]
    keep = lo < hi.min()
    cubics = np.stack([a, b, c, d, thr])[:, gaps[keep]].T.tolist()
    crossings = []
    for (ai, bi, ci, di, ti), lo_i, hi_i in zip(cubics, lo[keep].tolist(), hi[keep].tolist()):
        while hi_i - lo_i > s_tol:
            mid = 0.5 * (lo_i + hi_i)
            if ((ai * mid + bi) * mid + ci) * mid + di <= ti:
                hi_i = mid
            else:
                lo_i = mid
        crossings.append(hi_i)
    return min(crossings)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)
