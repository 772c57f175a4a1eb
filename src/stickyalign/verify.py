"""Post-hoc checkers that turn the model's conservation and entropy
structure into pass/fail diagnostics with residuals.

Each checker is pure and deterministic and returns a :class:`CheckResult`
(or raises on inputs it cannot assess, e.g. a record without accumulator
integrals).  Residual conventions:

* inequality checks report the worst violation (positive = violated,
  negative = margin), so ``passed == residual <= tolerance``;
* identity checks report an absolute difference.

The default tolerance everywhere is ``1e-9 * (1 + max |psi|)``: the
integrator's error floor dominates every residual in practice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MergeEvent, SimulationRecord, simulate
from .ensemble import Ensemble
from .exceptions import InvalidScenarioError
from .flux import FluxAnalysis, Regime, build_flux, flocking_thresholds
from .kernels import Kernel
from .metrics import energy, velocity_semidistance, wasserstein
from .monotone import project_monotone

__all__ = [
    "CheckResult",
    "check_barycentric",
    "check_rankine_hugoniot",
    "check_oleinik_entropy",
    "check_projection_formula",
    "check_stickiness",
    "check_conservation",
    "check_dissipation",
    "check_flocking",
    "convergence_study",
    "ConvergenceStudy",
    "ConvergenceRow",
    "verify_record",
    "report_json",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: tuple = field(default=(), compare=False)

    def __bool__(self) -> bool:
        return self.passed


def default_tolerance(cell_psi) -> float:
    return 1e-9 * (1.0 + float(np.max(np.abs(cell_psi))))


def _result(name: str, residual: float, tolerance: float, details=()) -> CheckResult:
    return CheckResult(name=name, passed=bool(residual <= tolerance),
                       residual=float(residual), tolerance=float(tolerance),
                       details=tuple(details))


# -- merge-event checks -------------------------------------------------


def _event_slice(event: MergeEvent, cell_psi, cell_masses):
    cell_psi = np.asarray(cell_psi, dtype=float)
    cell_masses = np.asarray(cell_masses, dtype=float)
    i0, i1 = event.first_index, event.last_index
    if not (0 <= i0 < i1 < cell_psi.size) or cell_masses.shape != cell_psi.shape:
        raise InvalidScenarioError(
            f"event range [{i0}, {i1}] incompatible with {cell_psi.size} cells")
    return cell_psi[i0:i1 + 1], cell_masses[i0:i1 + 1]


def check_barycentric(event: MergeEvent, cell_psi, cell_masses,
                      tolerance: float | None = None) -> CheckResult:
    """Merged psi lies between every suffix mean and prefix mean of its cells.

    For each split of the merged range, the mass-weighted mean of the right
    part must not exceed ``post_psi`` and the mean of the left part must not
    fall below it; the residual is the worst violation over all splits.
    """
    p, m = _event_slice(event, cell_psi, cell_masses)
    if tolerance is None:
        tolerance = default_tolerance(cell_psi)
    # at split k the left part is cells ..k and the right part cells k+1..,
    # so drop the full-range mean from each cumulative-mean array
    prefix = (np.cumsum(m * p) / np.cumsum(m))[:-1]
    suffix = (np.cumsum((m * p)[::-1]) / np.cumsum(m[::-1]))[::-1][1:]
    worst = max(float(np.max(suffix - event.post_psi)),
                float(np.max(event.post_psi - prefix)))
    return _result("barycentric", worst, tolerance)


def check_rankine_hugoniot(event: MergeEvent, cell_psi, cell_masses,
                           tolerance: float | None = None) -> CheckResult:
    """post_psi equals the chord slope of the flux over the merged mass range
    (the mass-weighted mean of the constituent cell psi)."""
    p, m = _event_slice(event, cell_psi, cell_masses)
    if tolerance is None:
        tolerance = default_tolerance(cell_psi)
    chord = float(np.sum(m * p) / np.sum(m))
    return _result("rankine_hugoniot", abs(event.post_psi - chord), tolerance)


# -- snapshot checks ----------------------------------------------------


def check_oleinik_entropy(record: SimulationRecord, t: float,
                          tolerance: float | None = None) -> CheckResult:
    """Entropy inequality of every current cluster against the flux chords.

    For a cluster spanning mass [M-, M+], each interior grid node k must
    satisfy chord(k, M+) <= psi_cluster <= chord(M-, k); equivalently the
    flux lies above the cluster's chord on the whole interval.
    """
    snap = record.snapshot_at(t)
    if tolerance is None:
        tolerance = default_tolerance(snap.cell_psi)
    flux = build_flux(snap)
    nodes, A = flux.nodes, flux.values
    worst = -math.inf
    for (a, b), psi in zip(snap.cluster_cell_ranges(), snap.psi):
        if b - a < 2:
            continue
        k = np.arange(a + 1, b)
        lower = (A[b] - A[k]) / (nodes[b] - nodes[k])
        upper = (A[k] - A[a]) / (nodes[k] - nodes[a])
        worst = max(worst, float(np.max(lower - psi)), float(np.max(psi - upper)))
    if worst == -math.inf:
        worst = 0.0  # no multi-cell clusters: vacuous pass
    return _result("oleinik_entropy", worst, tolerance)


def check_projection_formula(record: SimulationRecord, t: float,
                             tolerance: float | None = None) -> CheckResult:
    """X_t equals the monotone projection of (X0 + t psi - integral term).

    Assembles the free-flow-plus-interaction antiderivative on the original
    cell grid, projects it onto the monotone cone in the mass-weighted L2
    metric, and compares with the cluster positions the cells occupy at t.
    The identity is exact in continuum; the residual is dominated by the
    left-endpoint quadrature of the interaction integral, so the default
    tolerance scales with the snapshot spacing.
    """
    if record.phi_integrals is None:
        raise InvalidScenarioError(
            "record has no accumulator integrals; cannot check the projection formula")
    k = record.index_at(t)
    init = record.initial
    snap = record.snapshots[k]
    if tolerance is None:
        dt = float(np.min(np.diff(record.times))) if record.times.size > 1 else 1.0
        tolerance = 10.0 * (1.0 + float(np.max(np.abs(init.cell_psi)))) * dt
    z = init.cell_positions + t * init.cell_psi - record.phi_integrals[k]
    projected = project_monotone(z, weights=init.cell_masses)
    actual = snap.positions[snap.lineage]
    err = math.sqrt(float(np.sum(init.cell_masses * (projected - actual) ** 2)))
    return _result("projection_formula", err, tolerance)


def check_stickiness(record: SimulationRecord) -> CheckResult:
    """Cluster partitions are nested in time: merged cells never split.

    Partitions are nested exactly when every later cluster start is an
    earlier one.  Exact (tolerance 0); the residual counts the earlier
    clusters that a later start splits, summed over consecutive snapshots.
    """
    violations = 0
    for earlier, later in zip(record.snapshots, record.snapshots[1:]):
        foreign = np.setdiff1d(later.starts, earlier.starts)
        violations += np.unique(np.searchsorted(earlier.starts, foreign, side="right")).size
    return _result("stickiness", float(violations), 0.0)


def check_conservation(record: SimulationRecord,
                       tolerance: float = 1e-10) -> CheckResult:
    """Mass exactly conserved, momentum within tolerance, cluster count
    nonincreasing across snapshots."""
    m0 = float(np.sum(record.initial.cell_masses))
    p0 = record.initial.momentum()
    worst = 0.0
    counts = [s.n_clusters for s in record.snapshots]
    if any(b > a for a, b in zip(counts, counts[1:])):
        worst = math.inf
    for snap in record.snapshots:
        if float(np.sum(snap.masses)) != m0:
            worst = math.inf
        worst = max(worst, abs(snap.momentum() - p0))
    return _result("conservation", worst, tolerance)


def check_dissipation(record: SimulationRecord,
                      tolerance: float | None = None) -> CheckResult:
    """Energy balance: V(0) - V(t) equals the accumulated squared velocity
    norm, up to the first-order quadrature error of the accumulator."""
    if record.v2_integrals is None:
        raise InvalidScenarioError(
            "record has no accumulator integrals; cannot check dissipation")
    if tolerance is None:
        dt = float(np.min(np.diff(record.times))) if record.times.size > 1 else 1.0
        scale = 1.0 + float(np.max(np.abs(record.initial.cell_psi)))
        tolerance = 10.0 * scale * scale * dt
    e0 = energy(record.snapshots[0], record.kernel)
    worst = 0.0
    for snap, v2 in zip(record.snapshots, record.v2_integrals):
        worst = max(worst, abs(e0 - energy(snap, record.kernel) - v2))
    return _result("dissipation", worst, tolerance)


# -- flocking -----------------------------------------------------------


def _center_of_mass(snap: Ensemble, cells: tuple[int, int]) -> float:
    a, b = cells
    m = snap.cell_masses[a:b]
    return float(np.sum(m * snap.positions[snap.lineage[a:b]]) / np.sum(m))


def check_flocking(record: SimulationRecord, analysis: FluxAnalysis,
                   tolerance: float = 1e-6) -> CheckResult:
    """Observed subgroup separation against the predicted tail regime.

    For each adjacent subgroup pair: a thin-tail pair's center-of-mass gap
    must grow at least linearly at the predicted rate; a fat-tail pair's
    outer-edge distance, once below the upper threshold, must stay below it
    at the final time.  Details carry one observation dict per pair.
    """
    if len(analysis.subgroups) < 2:
        raise InvalidScenarioError("flocking check needs at least two subgroups")
    worst = 0.0
    observations = []
    for i in range(len(analysis.subgroups) - 1):
        sg1 = analysis.subgroups[i]
        sg2 = analysis.subgroups[i + 1]
        th = flocking_thresholds(analysis, i, i + 1)
        obs = {"pair": (i, i + 1), "regime": th.regime.value}
        if th.regime is Regime.THIN_TAIL_DIVERGE:
            gaps = np.array([_center_of_mass(s, sg2.cells) - _center_of_mass(s, sg1.cells)
                             for s in record.snapshots])
            required = gaps[0] + th.rate * record.times
            residual = float(np.max(required - gaps))
            obs["min_margin"] = -residual
        else:
            edges = np.array([s.positions[s.lineage[sg2.cells[1] - 1]]
                              - s.positions[s.lineage[sg1.cells[0]]]
                              for s in record.snapshots])
            obs["final_distance"] = float(edges[-1])
            if th.upper is None:
                residual = 0.0  # velocity gap beyond the primitive's range: no bound
            else:
                below = np.nonzero(edges <= th.upper)[0]
                residual = float(edges[-1] - th.upper) if below.size else 0.0
                obs["upper"] = th.upper
        worst = max(worst, residual)
        observations.append(obs)
    return _result("flocking", worst, tolerance, details=observations)


# -- refinement convergence ---------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    n_fine: int
    sup_w2: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    monotone: bool

    @property
    def passed(self) -> bool:
        return self.monotone and all(r.passed for r in self.rows)


def convergence_study(sampler, ns, t_grid, kernel: Kernel,
                      tolerance: float = 1e-6, slack: float = 0.10) -> ConvergenceStudy:
    """Refinement study: distance between consecutive resolutions of one profile.

    ``sampler(n)`` must return the n-cell discretization of a fixed profile.
    For each consecutive pair the study computes ``sup over t_grid`` of the
    W2 distance between the two runs, checks it against the stability bound

        ||X0_n - X0_fine||_2 + t_max ||psi_n - psi_fine||_2 + tolerance,

    and finally that the sup sequence is nonincreasing within ``slack``.
    """
    ns = list(ns)
    if len(ns) < 2:
        raise InvalidScenarioError("need at least two resolutions to compare")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid < 0.0):
        raise InvalidScenarioError("t_grid must be nonempty and nonnegative")
    t_max = float(np.max(t_grid))
    positive = np.diff(np.unique(np.concatenate(([0.0], t_grid))))
    snapshot_dt = float(np.min(positive)) if positive.size else 1.0

    records = {}
    for n in ns:
        ens = sampler(n)
        records[n] = simulate(ens, kernel, t_end=max(t_max, snapshot_dt),
                              snapshot_dt=snapshot_dt)

    rows = []
    sups = []
    for n, n_fine in zip(ns, ns[1:]):
        rec1, rec2 = records[n], records[n_fine]
        sup = max(wasserstein(rec1.snapshot_at(t).to_quantile(),
                              rec2.snapshot_at(t).to_quantile(), 2.0)
                  for t in t_grid)
        q1 = rec1.initial.to_quantile()
        q2 = rec2.initial.to_quantile()
        bound = (wasserstein(q1, q2, 2.0)
                 + t_max * velocity_semidistance(q1, rec1.initial.psi,
                                                 q2, rec2.initial.psi, 2.0)
                 + tolerance)
        rows.append(ConvergenceRow(n=n, n_fine=n_fine, sup_w2=float(sup),
                                   bound=float(bound), passed=bool(sup <= bound)))
        sups.append(sup)
    monotone = all(b <= a * (1.0 + slack) + 1e-15 for a, b in zip(sups, sups[1:]))
    return ConvergenceStudy(rows=tuple(rows), monotone=monotone)


# -- orchestration ------------------------------------------------------


def verify_record(record: SimulationRecord,
                  tolerance: float | None = None) -> list[CheckResult]:
    """Run every checker that applies to a record; returns one aggregated
    result per check.

    Event checks aggregate the worst residual over all merge events, the
    entropy check over all snapshot times.  Projection and dissipation are
    included only when the record carries accumulator integrals (records
    loaded from a directory without ``accumulators.csv`` do not).
    """
    cells_psi = record.initial.cell_psi
    cells_m = record.initial.cell_masses
    tol = default_tolerance(cells_psi) if tolerance is None else tolerance

    def aggregate(name, results):
        worst = max((r.residual for r in results), default=0.0)
        t = results[0].tolerance if results else tol
        return CheckResult(name=name, passed=all(r.passed for r in results),
                           residual=worst, tolerance=t)

    out = [
        aggregate("barycentric",
                  [check_barycentric(ev, cells_psi, cells_m, tol) for ev in record.events]),
        aggregate("rankine_hugoniot",
                  [check_rankine_hugoniot(ev, cells_psi, cells_m, tol) for ev in record.events]),
        aggregate("oleinik_entropy",
                  [check_oleinik_entropy(record, t, tol) for t in record.times]),
        check_stickiness(record),
        check_conservation(record),
    ]
    if record.phi_integrals is not None:
        out.append(check_projection_formula(record, float(record.times[-1])))
        out.append(check_dissipation(record))
    return out


def report_json(results) -> str:
    """Verification report: one {name, pass, residual, tolerance} per check."""
    return json.dumps([{"name": r.name, "pass": r.passed,
                        "residual": r.residual, "tolerance": r.tolerance}
                       for r in results], indent=2)
