"""Seeded inputs of the benchmark workloads, and the closed forms the output
checks use in place of the library's.

Instance ``i`` of workload ``k`` draws its inputs from
``numpy.random.default_rng([seed, k, i])``, so the same seed gives the same
particles and no two instances or workloads share a stream.  Positions are sorted normal
draws.  Masses are dyadic rationals summing to exactly 1, drawn the way
``tests/conftest.py::dyadic_masses`` draws them; the generator is copied
here so that a change to the test helpers cannot change the benchmark's
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASS_DENOM_POW = 20
INSTANCES = 4  # independent scenarios per seed: a run's figures average over them
T_END = 4.0
SNAPSHOT_DT = 0.25


@dataclass(frozen=True)
class Workload:
    """One scenario and how often each short phase repeats within a round.

    ``reps`` maps a phase name to the number of timed calls per round; a
    phase that lasts milliseconds is timed over many calls per round, so that
    its fastest call is found in every run.
    """

    name: str
    index: int
    n: int
    kernel: dict
    reps: dict


WORKLOADS = {
    w.name: w for w in (
        Workload("exp-rarefaction", 0, 600, {"type": "exponential", "a": 1.0},
                 {"setup": 5, "predict": 20}),
        Workload("zero-collapse", 1, 300, {"type": "zero"},
                 {"setup": 10, "predict": 50, "save": 2, "load": 2, "verify": 2}),
        Workload("powerlaw-mixed", 2, 100, {"type": "power_law", "c": 1.0, "beta": 0.5, "R": 1.0},
                 {"setup": 10, "predict": 50, "save": 2, "load": 2, "verify": 2}),
    )
}


def dyadic_masses(rng: np.random.Generator, n: int,
                  denom_pow: int = MASS_DENOM_POW) -> np.ndarray:
    """n positive masses k/2**denom_pow with sum exactly 1.0."""
    denom = 1 << denom_pow
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [denom])))
    return parts.astype(float) / denom


def particles(workload: Workload, seed: int, instance: int):
    """(masses, positions, velocities) of one instance of a workload."""
    rng = np.random.default_rng([seed, workload.index, instance])
    n = workload.n
    m = dyadic_masses(rng, n)
    x = np.sort(rng.normal(size=n))
    if workload.name == "exp-rarefaction":
        # nondecreasing velocities give nondecreasing psi: gaps never close
        v = np.sort(rng.normal(scale=0.5, size=n))
    elif workload.name == "zero-collapse":
        # compressive flow with bounded noise: every prefix mean of x0 + 4v
        # stays above the suffix mean, so all cells meet by t = 4
        v = -x + rng.uniform(-0.25, 0.25, size=n)
    else:
        v = rng.normal(size=n)
    return m, x, v


# -- closed forms of Phi and W, written apart from stickyalign.kernels ----


def big_phi(kernel: dict, d: np.ndarray) -> np.ndarray:
    """Odd primitive Phi of the kernel at the differences ``d``."""
    a = np.abs(d)
    kind = kernel["type"]
    if kind == "zero":
        return np.zeros_like(d)
    if kind == "exponential":
        return np.sign(d) * kernel["a"] * -np.expm1(-a)
    if kind == "power_law":
        c, beta, R = kernel["c"], kernel["beta"], kernel["R"]
        near = c / (1.0 - beta) * np.minimum(a, R) ** (1.0 - beta)
        far = c * R ** -beta * -np.expm1(-np.maximum(a - R, 0.0))
        return np.sign(d) * (near + far)
    raise ValueError(f"no closed form for {kind!r}")


def w_potential(kernel: dict, d: np.ndarray) -> np.ndarray:
    """Even potential W with W' = Phi and W(0) = 0."""
    a = np.abs(d)
    kind = kernel["type"]
    if kind == "zero":
        return np.zeros_like(d)
    if kind == "exponential":
        return kernel["a"] * (a + np.expm1(-a))
    if kind == "power_law":
        c, beta, R = kernel["c"], kernel["beta"], kernel["R"]
        near = c / ((1.0 - beta) * (2.0 - beta)) * np.minimum(a, R) ** (2.0 - beta)
        over = np.maximum(a - R, 0.0)
        phi_r = c / (1.0 - beta) * R ** (1.0 - beta)
        far = phi_r * over + c * R ** -beta * (over + np.expm1(-over))
        return near + far
    raise ValueError(f"no closed form for {kind!r}")


_ROWS = 128  # row block of the dense sums: keeps their temporaries small


def convolve(kernel: dict, at: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_j m_j Phi(at_i - x_j) by a direct sum over row blocks."""
    out = np.empty(at.size)
    for s in range(0, at.size, _ROWS):
        out[s:s + _ROWS] = big_phi(kernel, at[s:s + _ROWS, None] - x[None, :]) @ m
    return out


def energy(kernel: dict, x, masses, cell_masses, cell_psi, lineage) -> float:
    """0.5 sum_ab M_a M_b W(x_a - x_b) - sum_cells m psi x(cluster)."""
    quad = 0.0
    for s in range(0, x.size, _ROWS):
        quad += float(masses[s:s + _ROWS] @ w_potential(kernel, x[s:s + _ROWS, None] - x[None, :])
                      @ masses)
    return 0.5 * quad - float(np.sum(cell_masses * cell_psi * x[lineage]))
