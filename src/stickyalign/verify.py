"""Post-hoc checkers that turn the model's conservation and entropy
structure into pass/fail diagnostics with residuals.

Each checker is pure and deterministic, reads a whole
:class:`SimulationRecord` and returns one :class:`CheckResult` (or raises on
inputs it cannot assess, e.g. a flocking check on one subgroup).  Residual
conventions:

* inequality checks report the worst violation (positive = violated,
  negative = margin), so ``passed == residual <= tolerance``;
* identity checks report an absolute difference.

Each check has one tolerance.  With ``scale = 1 + max |psi|`` over the
cells and ``dt`` the smallest snapshot spacing (1 for a single snapshot):

* barycentric, Rankine-Hugoniot, Oleinik: ``1e-9 * scale``, the
  integrator's error floor (:func:`default_tolerance`);
* stickiness: 0, it counts split clusters;
* conservation: ``1e-10`` on momentum, mass exact;
* projection formula: ``10 * scale * dt``;
* dissipation: ``10 * scale**2 * dt``;
* flocking: ``1e-6``.

The three entropy checks are one chord test on the flux
``A = cumulative_primitive(cell_psi, cell_masses)`` of
:func:`~stickyalign.flux.build_flux`, with nodes M at the cumulative cell
masses and ``chord(i, j) = (A[j] - A[i]) / (M[j] - M[i])``.  Cells
``[lo, hi)`` held together at slope s are an entropy shock exactly when A lies
above their line: ``chord(k, hi) <= s <= chord(lo, k)`` at every interior
node k.  Oleinik is this test on every cluster of every snapshot with its
psi, barycentric on every merge with its ``post_psi`` (chords from an
endpoint are prefix and suffix means), and Rankine-Hugoniot is
``s == chord(lo, hi)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimulationRecord, Tolerances, simulate
from .ensemble import _block_sums
from .exceptions import InvalidScenarioError
from .flux import FluxAnalysis, Regime, _pair_thresholds, build_flux
from .kernels import Kernel
from .metrics import energy, velocity_semidistance, wasserstein
from .monotone import PiecewiseLinear, project_monotone

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


def _merges(record: SimulationRecord):
    """Each merge's cell range ``[lo, hi)`` and ``post_psi``, and the worst-residual
    floor: with no merges the check passes vacuously with residual 0."""
    events = record.events
    lo = np.array([ev.first_index for ev in events], dtype=np.intp)
    hi = np.array([ev.last_index for ev in events], dtype=np.intp) + 1
    bad = np.flatnonzero((lo < 0) | (hi - lo < 2) | (hi > record.initial.n_cells))
    if bad.size:
        ev = events[bad[0]]
        raise InvalidScenarioError(f"event range [{ev.first_index}, {ev.last_index}] "
                                   f"incompatible with {record.initial.n_cells} cells")
    s = np.array([ev.post_psi for ev in events], dtype=float)
    return lo, hi, s, -math.inf if events else 0.0


def check_barycentric(record: SimulationRecord) -> CheckResult:
    """Every merged psi lies between every suffix mean and prefix mean of its cells.

    For each split of a merged range, the mass-weighted mean of the right
    part must not exceed ``post_psi`` and the mean of the left part must not
    fall below it; the residual is the worst violation over all splits of
    all merges.
    """
    lo, hi, s, floor = _merges(record)
    excess = _chord_excess(build_flux(record.initial), lo, hi, s)
    return _result("barycentric", np.max(excess, initial=floor),
                   default_tolerance(record.initial.cell_psi))


def check_rankine_hugoniot(record: SimulationRecord) -> CheckResult:
    """Every merge's post_psi equals the chord slope of the flux over the merged
    mass range (the mass-weighted mean of the constituent cell psi)."""
    lo, hi, s, floor = _merges(record)
    jump = np.abs(s - _chord(build_flux(record.initial), lo, hi))
    return _result("rankine_hugoniot", np.max(jump, initial=floor),
                   default_tolerance(record.initial.cell_psi))


def check_oleinik_entropy(record: SimulationRecord) -> CheckResult:
    """Entropy inequality of every cluster of every snapshot against the flux chords.

    For a cluster spanning mass [M-, M+], each interior grid node k must
    satisfy chord(k, M+) <= psi_cluster <= chord(M-, k); equivalently the
    flux lies above the cluster's chord on the whole interval.  A snapshot of
    singletons passes vacuously with residual 0.
    """
    snapshots = record.snapshots
    bounds = [snap.bounds for snap in snapshots]
    lo, hi = np.concatenate([b[:-1] for b in bounds]), np.concatenate([b[1:] for b in bounds])
    excess = _chord_excess(build_flux(record.initial), lo, hi,
                           np.concatenate([snap.psi for snap in snapshots]))
    floor = 0.0 if any(snap.n_clusters == snap.n_cells for snap in snapshots) else -math.inf
    return _result("oleinik_entropy", np.max(excess, initial=floor),
                   default_tolerance(record.initial.cell_psi))


# -- snapshot checks ----------------------------------------------------


def _quadrature_scale(record: SimulationRecord) -> tuple[float, float]:
    """``(1 + max |psi|, dt)`` of the cells and the smallest snapshot spacing
    (1 for one snapshot): the tolerance scales of the quadrature-limited checks."""
    dt = float(np.min(np.diff(record.times))) if record.times.size > 1 else 1.0
    return 1.0 + float(np.max(np.abs(record.initial.cell_psi))), dt


def check_projection_formula(record: SimulationRecord) -> CheckResult:
    """X_t equals the monotone projection of (X0 + t psi - integral term) at
    the last snapshot time t.

    Assembles the free-flow-plus-interaction antiderivative on the original
    cell grid, projects it onto the monotone cone in the mass-weighted L2
    metric, and compares with the cluster positions the cells occupy at t.
    The identity is exact in continuum; the residual is dominated by the
    left-endpoint quadrature of the interaction integral, so the tolerance
    scales with the snapshot spacing.
    """
    init, snap = record.initial, record.snapshots[-1]
    scale, dt = _quadrature_scale(record)
    z = init.cell_positions + float(record.times[-1]) * init.cell_psi - record.phi_integrals
    projected = project_monotone(z, weights=init.cell_masses)
    actual = snap.positions[snap.lineage]
    err = math.sqrt(float(np.sum(init.cell_masses * (projected - actual) ** 2)))
    return _result("projection_formula", err, 10.0 * scale * dt)


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


def check_conservation(record: SimulationRecord) -> CheckResult:
    """Mass exactly conserved, momentum within tolerance, cluster count
    nonincreasing across snapshots.

    Exact mass: every snapshot keeps the initial cell masses and every cluster
    mass is its cells' ``np.sum`` (totals summed in another order may differ
    in the last bit).  A snapshot with the starts and cluster masses of the
    one before passes as that one did, so only a changed partition is pooled."""
    m, p0 = record.initial.cell_masses, record.initial.momentum()
    snaps = record.snapshots
    counts = [s.n_clusters for s in snaps]
    exact = all(np.array_equal(s.cell_masses, m)
                and (k > 0 and np.array_equal(s.starts, snaps[k - 1].starts)
                     and np.array_equal(s.masses, snaps[k - 1].masses)
                     or np.array_equal(s.masses, _block_sums(s.cell_masses, s.starts)))
                for k, s in enumerate(snaps))
    momenta = np.array([s.momentum() for s in snaps])
    worst = float(np.max(np.abs(momenta - p0), initial=0.0))  # a NaN propagates
    if not exact or any(b > a for a, b in zip(counts, counts[1:])):
        worst = math.inf
    return _result("conservation", worst, 1e-10)


def check_dissipation(record: SimulationRecord) -> CheckResult:
    """Energy balance: V(0) - V(t) equals the accumulated squared velocity
    norm, up to the first-order quadrature error of the accumulator."""
    scale, dt = _quadrature_scale(record)
    energies = np.array([energy(snap, record.kernel) for snap in record.snapshots])
    # a NaN propagates through np.max, and the check fails on it
    worst = np.max(np.abs(energies[0] - energies - record.v2_integrals))
    return _result("dissipation", worst, 10.0 * scale * scale * dt)


# -- flocking -----------------------------------------------------------


def check_flocking(record: SimulationRecord, analysis: FluxAnalysis) -> CheckResult:
    """Observed subgroup separation against the predicted tail regime.

    For each adjacent subgroup pair: a thin-tail pair's center-of-mass gap
    must grow at least linearly at the predicted rate; a fat-tail pair's
    outer-edge distance, once below the upper threshold, must stay below it
    at the final time.  All pairs are evaluated at once, as arrays over
    snapshots and pairs.  Details carry one observation dict per pair.
    """
    groups = np.arange(len(analysis.subgroups))
    if groups.size < 2:
        raise InvalidScenarioError("flocking check needs at least two subgroups")
    rate, _, upper, thin = _pair_thresholds(analysis, groups[:-1], groups[1:])
    # cell positions at every snapshot time; subgroups tile the cells in order
    x = np.stack([s.positions[s.lineage] for s in record.snapshots])
    m = record.initial.cell_masses
    edges = np.searchsorted(analysis.A.nodes, analysis.A_star_star.nodes)
    centers = np.add.reduceat(m * x, edges[:-1], axis=1) / np.add.reduceat(m, edges[:-1])
    gaps = np.diff(centers, axis=1)
    shortfall = np.max(gaps[0] + rate * record.times[:, None] - gaps, axis=0)
    spread = x[:, edges[2:] - 1] - x[:, edges[:-2]]  # outer edges of each pair
    escape = np.where(np.any(spread <= upper, axis=0), spread[-1] - upper, 0.0)
    residual = np.where(thin, shortfall, escape)
    observations, diverge, bound = [], Regime.THIN_TAIL_DIVERGE.value, Regime.FAT_TAIL_BOUND.value
    for i, (is_thin, r, final, up) in enumerate(zip(thin.tolist(), residual.tolist(),
                                                    spread[-1].tolist(), upper.tolist())):
        if is_thin:
            obs = {"pair": (i, i + 1), "regime": diverge, "min_margin": -r}
        else:  # no "upper" where the velocity gap leaves the primitive's range: no bound
            obs = {"pair": (i, i + 1), "regime": bound, "final_distance": final}
            if not math.isnan(up):
                obs["upper"] = up
        observations.append(obs)
    return _result("flocking", np.max(residual, initial=0.0), 1e-6, details=observations)


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
                      tolerances: Tolerances | None = None) -> ConvergenceStudy:
    """Refinement study: distance between consecutive resolutions of one profile.

    ``sampler(n)`` must return the n-cell discretization of a fixed profile.
    For each consecutive pair the study computes ``sup over t_grid`` of the
    W2 distance between the two runs, checks it against the stability bound

        ||X0_n - X0_fine||_2 + t_max ||psi_n - psi_fine||_2 + 1e-6,

    and finally that the sup sequence is nonincreasing within 10% slack.
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
                 + 1e-6)
        rows.append(ConvergenceRow(n=n, n_fine=n_fine, sup_w2=float(sup),
                                   bound=float(bound), passed=bool(sup <= bound)))
        sups.append(sup)
    monotone = all(b <= a * 1.10 + 1e-15 for a, b in zip(sups, sups[1:]))
    return ConvergenceStudy(rows=tuple(rows), monotone=monotone)


# -- orchestration ------------------------------------------------------


def verify_record(record: SimulationRecord) -> list[CheckResult]:
    """Every check that applies to any record, one result each, in a fixed order.

    The checks are looked up by their module names at call time, so a
    ``check_*`` replaced on the module (a tracing wrapper, a test double) is
    the one that runs.
    """
    return [check_barycentric(record), check_rankine_hugoniot(record),
            check_oleinik_entropy(record), check_stickiness(record),
            check_conservation(record), check_projection_formula(record),
            check_dissipation(record)]


def report_json(results) -> str:
    """Verification report: one {name, pass, residual, tolerance} per check."""
    return json.dumps([{"name": r.name, "pass": r.passed,
                        "residual": r.residual, "tolerance": r.tolerance}
                       for r in results], indent=2)
