"""Shared scenario generators, and the hull sweep the envelope is tested against.

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
    """Back out raw velocities so the natural velocities come out as ``psi``."""
    m = np.asarray(masses, dtype=float)
    x = np.asarray(positions, dtype=float)
    conv = kernel.convolve(x, x, m)
    return Ensemble.from_particles(m, x, np.asarray(psi, dtype=float) - conv,
                                   kernel, **kwargs)


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)
