"""Post-hoc checkers that turn the model's conservation and entropy
structure into pass/fail diagnostics with residuals.

Each checker is pure and deterministic and returns a :class:`CheckResult`
(or raises on inputs it cannot assess, e.g. a flocking check on one
subgroup).  Residual conventions:

* inequality checks report the worst violation (positive = violated,
  negative = margin), so ``passed == residual <= tolerance``;
* identity checks report an absolute difference.

The default tolerance everywhere is ``1e-9 * (1 + max |psi|)``: the
integrator's error floor dominates every residual in practice.

The three entropy checks are one chord test on the flux
``A = cumulative_primitive(cell_psi, cell_masses)``, with nodes M at the
cumulative cell masses and ``chord(i, j) = (A[j] - A[i]) / (M[j] - M[i])``.
Cells ``[lo, hi)`` held together at slope s are an entropy shock exactly when
A lies above their line: ``chord(k, hi) <= s <= chord(lo, k)`` at every
interior node k.  Oleinik is this test on every cluster with its psi,
barycentric on every merge with its ``post_psi`` (chords from an endpoint are
prefix and suffix means), and Rankine-Hugoniot is ``s == chord(lo, hi)``.
The cells never change, so :func:`verify_record` builds A once per record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MergeEvent, SimulationRecord, Tolerances, simulate
from .ensemble import _block_sums
from .exceptions import InvalidScenarioError
from .flux import FluxAnalysis, Regime, flocking_thresholds
from .kernels import Kernel
from .metrics import energy, velocity_semidistance, wasserstein
from .monotone import PiecewiseLinear, cumulative_primitive, project_monotone

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


# -- entropy checks: one flux, one chord test ----------------------------


def _chord(flux: PiecewiseLinear, i, j) -> np.ndarray:
    """Slope of the flux between nodes i and j (index arrays)."""
    return (flux.values[j] - flux.values[i]) / (flux.nodes[j] - flux.nodes[i])


def _chord_excess(flux: PiecewiseLinear, lo, hi, s) -> np.ndarray:
    """``max(chord(k, hi) - s, s - chord(lo, k))`` at every interior node k of
    every cell range ``[lo, hi)`` of slope s, range after range; positive
    where the flux dips below the range's line."""
    inner = hi - lo - 1
    owner = np.repeat(np.arange(lo.size), inner)
    k = np.arange(owner.size) + np.repeat(lo + 1 - (np.cumsum(inner) - inner), inner)
    s = s[owner]
    return np.maximum(_chord(flux, k, hi[owner]) - s, s - _chord(flux, lo[owner], k))


def _event_checks(events, cell_psi, cell_masses, tolerance=None):
    """The cells' flux, then the barycentric and Rankine-Hugoniot results of all events."""
    psi, m = np.asarray(cell_psi, dtype=float), np.asarray(cell_masses, dtype=float)
    lo = np.array([ev.first_index for ev in events], dtype=np.intp)
    hi = np.array([ev.last_index for ev in events], dtype=np.intp) + 1
    s = np.array([ev.post_psi for ev in events], dtype=float)
    bad = np.flatnonzero((lo < 0) | (hi - lo < 2) | (hi > psi.size) | (m.shape != psi.shape))
    if bad.size:
        ev = events[bad[0]]
        raise InvalidScenarioError(f"event range [{ev.first_index}, {ev.last_index}] "
                                   f"incompatible with {psi.size} cells")
    tol = default_tolerance(psi) if tolerance is None else tolerance
    flux = cumulative_primitive(psi, m)
    excess, jump = _chord_excess(flux, lo, hi, s), np.abs(s - _chord(flux, lo, hi))
    floor = -math.inf if s.size else 0.0  # no events: a vacuous pass with residual 0
    return (flux, _result("barycentric", np.max(excess, initial=floor), tol),
            _result("rankine_hugoniot", np.max(jump, initial=floor), tol))


def _oleinik(flux: PiecewiseLinear, snapshots, tolerance: float) -> CheckResult:
    """Entropy chords of every cluster of every snapshot; a snapshot of
    singletons passes vacuously with residual 0."""
    bounds = [snap.bounds for snap in snapshots]
    lo, hi = np.concatenate([b[:-1] for b in bounds]), np.concatenate([b[1:] for b in bounds])
    excess = _chord_excess(flux, lo, hi, np.concatenate([snap.psi for snap in snapshots]))
    floor = 0.0 if any(snap.n_clusters == snap.n_cells for snap in snapshots) else -math.inf
    return _result("oleinik_entropy", np.max(excess, initial=floor), tolerance)


def check_barycentric(event: MergeEvent, cell_psi, cell_masses,
                      tolerance: float | None = None) -> CheckResult:
    """Merged psi lies between every suffix mean and prefix mean of its cells.

    For each split of the merged range, the mass-weighted mean of the right
    part must not exceed ``post_psi`` and the mean of the left part must not
    fall below it; the residual is the worst violation over all splits.
    """
    return _event_checks([event], cell_psi, cell_masses, tolerance)[1]


def check_rankine_hugoniot(event: MergeEvent, cell_psi, cell_masses,
                           tolerance: float | None = None) -> CheckResult:
    """post_psi equals the chord slope of the flux over the merged mass range
    (the mass-weighted mean of the constituent cell psi)."""
    return _event_checks([event], cell_psi, cell_masses, tolerance)[2]


def check_oleinik_entropy(record: SimulationRecord, t: float,
                          tolerance: float | None = None) -> CheckResult:
    """Entropy inequality of every current cluster against the flux chords.

    For a cluster spanning mass [M-, M+], each interior grid node k must
    satisfy chord(k, M+) <= psi_cluster <= chord(M-, k); equivalently the
    flux lies above the cluster's chord on the whole interval.
    """
    snap = record.snapshot_at(t)
    tol = default_tolerance(snap.cell_psi) if tolerance is None else tolerance
    return _oleinik(cumulative_primitive(snap.cell_psi, snap.cell_masses), [snap], tol)


# -- snapshot checks ----------------------------------------------------


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
        if np.array_equal(earlier.starts, later.starts):
            continue
        foreign = np.setdiff1d(later.starts, earlier.starts)
        violations += np.unique(np.searchsorted(earlier.starts, foreign, side="right")).size
    return _result("stickiness", float(violations), 0.0)


def check_conservation(record: SimulationRecord,
                       tolerance: float = 1e-10) -> CheckResult:
    """Mass exactly conserved, momentum within tolerance, cluster count
    nonincreasing across snapshots.

    Exact mass: every snapshot keeps the initial cell masses and every cluster
    mass is its cells' ``np.sum`` (totals summed in another order may differ
    in the last bit)."""
    m, p0 = record.initial.cell_masses, record.initial.momentum()
    counts = [s.n_clusters for s in record.snapshots]
    exact = all(np.array_equal(s.cell_masses, m)
                and np.array_equal(s.masses, _block_sums(s.cell_masses, s.starts))
                for s in record.snapshots)
    worst = max((abs(s.momentum() - p0) for s in record.snapshots), default=0.0)
    if not exact or any(b > a for a, b in zip(counts, counts[1:])):
        worst = math.inf
    return _result("conservation", worst, tolerance)


def check_dissipation(record: SimulationRecord,
                      tolerance: float | None = None) -> CheckResult:
    """Energy balance: V(0) - V(t) equals the accumulated squared velocity
    norm, up to the first-order quadrature error of the accumulator."""
    if tolerance is None:
        dt = float(np.min(np.diff(record.times))) if record.times.size > 1 else 1.0
        scale = 1.0 + float(np.max(np.abs(record.initial.cell_psi)))
        tolerance = 10.0 * scale * scale * dt
    energies = [energy(snap, record.kernel) for snap in record.snapshots]
    worst = 0.0
    for e, v2 in zip(energies, record.v2_integrals):
        worst = max(worst, abs(energies[0] - e - v2))
    return _result("dissipation", worst, tolerance)


# -- flocking -----------------------------------------------------------


def check_flocking(record: SimulationRecord, analysis: FluxAnalysis,
                   tolerance: float = 1e-6) -> CheckResult:
    """Observed subgroup separation against the predicted tail regime.

    For each adjacent subgroup pair: a thin-tail pair's center-of-mass gap
    must grow at least linearly at the predicted rate; a fat-tail pair's
    outer-edge distance, once below the upper threshold, must stay below it
    at the final time.  Details carry one observation dict per pair.
    """
    groups = analysis.subgroups
    if len(groups) < 2:
        raise InvalidScenarioError("flocking check needs at least two subgroups")
    # cell positions at every snapshot time; subgroups tile the cells in order
    x = np.stack([s.positions[s.lineage] for s in record.snapshots])
    m = record.initial.cell_masses
    starts = [sg.cells[0] for sg in groups]
    centers = np.add.reduceat(m * x, starts, axis=1) / np.add.reduceat(m, starts)
    worst = 0.0
    observations = []
    for i in range(len(groups) - 1):
        th = flocking_thresholds(analysis, i, i + 1)
        obs = {"pair": (i, i + 1), "regime": th.regime.value}
        if th.regime is Regime.THIN_TAIL_DIVERGE:
            gaps = centers[:, i + 1] - centers[:, i]
            residual = float(np.max(gaps[0] + th.rate * record.times - gaps))
            obs["min_margin"] = -residual
        else:
            edge = x[:, groups[i + 1].cells[1] - 1] - x[:, starts[i]]
            obs["final_distance"] = float(edge[-1])
            if th.upper is None:
                residual = 0.0  # velocity gap beyond the primitive's range: no bound
            else:
                residual = float(edge[-1] - th.upper) if np.any(edge <= th.upper) else 0.0
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


def convergence_study(sampler, ns, t_grid, kernel: Kernel, tolerance: float = 1e-6,
                      slack: float = 0.10,
                      tolerances: Tolerances | None = None) -> ConvergenceStudy:
    """Refinement study: distance between consecutive resolutions of one profile.

    ``sampler(n)`` must return the n-cell discretization of a fixed profile.
    For each consecutive pair the study computes ``sup over t_grid`` of the
    W2 distance between the two runs, checks it against the stability bound

        ||X0_n - X0_fine||_2 + t_max ||psi_n - psi_fine||_2 + tolerance,

    and finally that the sup sequence is nonincreasing within ``slack``.
    Every run integrates with the solver ``tolerances`` (the default when None).
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
                              snapshot_dt=snapshot_dt, tolerances=tolerances)

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


def verify_record(record: SimulationRecord) -> list[CheckResult]:
    """Run every checker that applies to a record at its default tolerance;
    returns one aggregated result per check.

    The event checks take the worst residual over all merge events, the
    entropy check over all clusters of all snapshots, all on one flux, and
    the projection formula is checked at the last snapshot time.
    """
    init = record.initial
    flux, *event_results = _event_checks(record.events, init.cell_psi, init.cell_masses)
    return [*event_results, _oleinik(flux, record.snapshots, default_tolerance(init.cell_psi)),
            check_stickiness(record), check_conservation(record),
            check_projection_formula(record, float(record.times[-1])), check_dissipation(record)]


def report_json(results) -> str:
    """Verification report: one {name, pass, residual, tolerance} per check."""
    return json.dumps([{"name": r.name, "pass": r.passed,
                        "residual": r.residual, "tolerance": r.tolerance}
                       for r in results], indent=2)
