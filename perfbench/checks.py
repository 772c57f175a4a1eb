"""Output checks made apart from the program.

Every check recomputes what it needs from the benchmark's own inputs and
closed forms (:mod:`workloads`): the natural velocities psi by a direct sum,
the energy with the benchmark's own W, the Zero-kernel snapshots with
``scipy.optimize.isotonic_regression`` and the collision-free Exponential
run with ``scipy.integrate.solve_ivp``.  None of them compares against a
stored copy of earlier output.  :func:`output_checks` returns one
``(name, passed, detail)`` per check.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import isotonic_regression

import workloads

IDENTITY_TOL = 1e-9      # centre of mass, momentum, Zero-kernel projection
REFERENCE_TOL = 1e-7     # exp-rarefaction against the solve_ivp reference


def _check(name, residual, tolerance):
    return name, bool(residual <= tolerance), f"residual {residual:.3g} (tolerance {tolerance:.3g})"


def _nested(earlier, later) -> bool:
    """Cells together at the earlier snapshot are together at the later one."""
    same = earlier.lineage[1:] == earlier.lineage[:-1]
    return bool(np.all(later.lineage[1:][same] == later.lineage[:-1][same]))


def _same_record(a, b) -> bool:
    """Bit-exact equality of everything a saved record carries."""
    if not np.array_equal(a.times, b.times) or len(a.snapshots) != len(b.snapshots):
        return False
    for s, t in zip(a.snapshots, b.snapshots):
        for field in ("positions", "velocities", "masses", "psi", "lineage", "cell_psi"):
            if not np.array_equal(getattr(s, field), getattr(t, field)):
                return False
    fields = ("time", "first_index", "last_index", "post_velocity", "post_psi")
    return ([tuple(getattr(e, f) for f in fields) for e in a.events]
            == [tuple(getattr(e, f) for f in fields) for e in b.events]
            and np.array_equal(a.phi_integrals, b.phi_integrals)
            and np.array_equal(a.v2_integrals, b.v2_integrals))


def _reference_positions(kernel, m, x, psi, t_end):
    """Positions at t_end of dx/dt = psi - Phi * rho with no collisions."""
    sol = solve_ivp(lambda t, y: psi - workloads.convolve(kernel, y, y, m), (0.0, t_end), x,
                    method="DOP853", rtol=1e-11, atol=1e-12, t_eval=[t_end])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def output_checks(workload, inputs, record, loaded, results, partition):
    """Check one pass of the six phases; ``record`` is what ``simulate``
    returned, ``loaded`` its saved-and-loaded copy, ``results`` the verify
    phase's check results and ``partition`` the predicted partition."""
    m, x, v = inputs
    kernel = workload.kernel
    n = workload.n
    psi = v + workloads.convolve(kernel, x, x, m)
    psi_scale = 1.0 + float(np.max(np.abs(psi)))
    snaps = record.snapshots
    times = record.times
    out = []

    out.append(("mass", all(float(np.sum(s.masses)) == 1.0 for s in snaps),
                "total mass of every snapshot is exactly 1"))
    centre = np.array([float(np.sum(s.masses * s.positions)) for s in snaps])
    expected = float(np.sum(m * x)) + times * float(np.sum(m * psi))
    out.append(_check("centre_of_mass", float(np.max(np.abs(centre - expected))), IDENTITY_TOL))
    momentum = np.array([float(np.sum(s.masses * s.velocities)) for s in snaps])
    out.append(_check("momentum", float(np.max(np.abs(momentum - np.sum(m * psi)))),
                      IDENTITY_TOL))
    out.append(("order_and_nesting",
                all(np.all(np.diff(s.positions) > 0.0) for s in snaps)
                and all(_nested(a, b) for a, b in zip(snaps, snaps[1:])),
                "cluster positions strictly increase; partitions are nested"))
    energies = np.array([workloads.energy(kernel, s.positions, s.masses, m, psi, s.lineage)
                         for s in snaps])
    out.append(_check("energy_nonincreasing", float(np.max(np.diff(energies), initial=0.0)),
                      IDENTITY_TOL * (1.0 + float(np.max(np.abs(energies))))))
    out.append(("verify_passes", bool(results) and all(r.passed for r in results),
                ", ".join(f"{r.name}={r.residual:.3g}" for r in results)))
    out.append(("round_trip", _same_record(record, loaded),
                "the loaded record equals the saved one bit for bit"))
    blocks = np.searchsorted([b for _, b in partition], np.arange(n), side="right")
    together = snaps[-1].lineage[1:] == snaps[-1].lineage[:-1]
    out.append(("forecast_refines",
                bool(np.all(blocks[1:][together] == blocks[:-1][together])),
                "every cluster at t_end lies inside one predicted block"))

    if workload.name == "zero-collapse":
        gap = max(float(np.max(np.abs(s.positions[s.lineage]
                                      - isotonic_regression(x + t * psi, weights=m).x)))
                  for t, s in zip(times, snaps))
        out.append(_check("projection_formula", gap, IDENTITY_TOL))
        out.append(("collapse", len(record.events) == n - 1 and snaps[-1].n_clusters == 1,
                    f"{len(record.events)} events, {snaps[-1].n_clusters} clusters at t_end"))
    elif workload.name == "exp-rarefaction":
        out.append(("no_merge", not record.events and all(s.n_clusters == n for s in snaps),
                    f"{len(record.events)} events"))
        ref = _reference_positions(kernel, m, x, psi, float(times[-1]))
        out.append(_check("reference_positions",
                          float(np.max(np.abs(snaps[-1].positions - ref))), REFERENCE_TOL))
    elif workload.name == "powerlaw-mixed":
        gap = max((abs(e.post_psi - float(np.sum(m[e.first_index:e.last_index + 1]
                                                 * psi[e.first_index:e.last_index + 1])
                                          / np.sum(m[e.first_index:e.last_index + 1])))
                   for e in record.events), default=0.0)
        out.append(_check("event_psi", gap, 1e-12 * psi_scale))
    return out
