"""Each structural checker must accept honest runs and reject doctored ones."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickyalign import (
    AllToAll,
    Ensemble,
    Exponential,
    InvalidScenarioError,
    MergeEvent,
    PowerLaw,
    SimulationRecord,
    Zero,
    analyze,
    cumulative_primitive,
    flocking_thresholds,
    simulate,
)
from stickyalign import verify
from stickyalign.flux import Regime
from stickyalign.verify import (
    _chord,
    _chord_excess,
    check_barycentric,
    check_conservation,
    check_dissipation,
    check_flocking,
    check_oleinik_entropy,
    check_projection_formula,
    check_rankine_hugoniot,
    check_stickiness,
    convergence_study,
    default_tolerance,
    report_json,
    verify_record,
)
from tests.conftest import dyadic_masses, ensemble_with_psi, random_scenario

MIXED = dict(masses=[0.25, 0.25, 0.25, 0.25], positions=[-0.6, -0.2, 0.2, 0.6],
             psi=[2.0, -1.0, 0.0, 3.0])


@pytest.fixture
def mixed_record():
    kernel = PowerLaw(1.0, 0.5, 1.0)
    ens = ensemble_with_psi(MIXED["masses"], MIXED["positions"], MIXED["psi"], kernel)
    rec = simulate(ens, kernel, 4.0, 0.25)
    assert rec.events
    return rec


def fabricated(kernel, snapshots, times, events=(), phi=None, v2=None):
    """A record of the given snapshots and :class:`MergeEvent` objects."""
    rows = [(ev.time, ev.post_velocity, ev.post_psi) for ev in events]
    cells = [(ev.first_index, ev.last_index) for ev in events]
    return SimulationRecord(kernel=kernel, initial=snapshots[0],
                            times=np.asarray(times, dtype=float), snapshots=list(snapshots),
                            event_table=np.array(rows, dtype=float).reshape(-1, 3),
                            event_cells=np.array(cells, dtype=np.int64).reshape(-1, 2),
                            phi_integrals=phi, v2_integrals=v2)


def merged(psi, masses, *merges):
    """One snapshot of unit-spaced cells with natural velocities ``psi`` under
    the Zero kernel, and one merge event per ``(first, last, post_psi)``."""
    kernel = Zero()
    ens = ensemble_with_psi(masses, np.arange(len(psi), dtype=float), psi, kernel)
    events = [MergeEvent(time=0.0, first_index=a, last_index=b, post_velocity=0.0,
                         post_psi=s) for a, b, s in merges]
    return fabricated(kernel, [ens], [0.0], events)


# -- merge-event checks --------------------------------------------------


class TestBarycentric:
    def test_symmetric_pair_has_unit_margin(self):
        res = check_barycentric(merged([1.0, -1.0], [0.5, 0.5], (0, 1, 0.0)))
        assert res.passed
        assert res.residual == pytest.approx(-1.0)

    def test_out_of_bounds_post_psi_fails(self):
        res = check_barycentric(merged([1.0, -1.0], [0.5, 0.5], (0, 1, 1.5)))
        assert not res.passed
        assert res.residual == pytest.approx(0.5)

    def test_triple_split_bounds(self):
        psi, m = [3.0, 1.0, 2.0], [1 / 3] * 3
        assert check_barycentric(merged(psi, m, (0, 2, 2.0))).passed
        res = check_barycentric(merged(psi, m, (0, 2, 2.5)))
        assert not res.passed and res.residual == pytest.approx(0.5)
        # the worst merge decides: a good merge beside it does not hide it
        both = check_barycentric(merged(psi, m, (0, 2, 2.0), (0, 2, 2.5)))
        assert both.residual == res.residual

    def test_real_events_pass(self, mixed_record):
        res = check_barycentric(mixed_record)
        assert res.passed and res.residual < 0.0

    def test_no_events_vacuous(self):
        res = check_barycentric(merged([1.0, -1.0], [0.5, 0.5]))
        assert res.passed and res.residual == 0.0

    def test_bad_range_rejected(self):
        for first, last in ((2, 9), (-1, 1), (1, 1)):
            with pytest.raises(InvalidScenarioError, match=re.escape(
                    f"event range [{first}, {last}] incompatible with 2 cells")):
                check_barycentric(merged([1.0, -1.0], [0.5, 0.5], (first, last, 0.0)))


class TestRankineHugoniot:
    def test_pooled_mean_passes(self):
        res = check_rankine_hugoniot(merged([3.0, 5.0], [1 / 3, 2 / 3], (0, 1, 13 / 3)))
        assert res.passed
        assert res.residual < 1e-15

    def test_tampered_post_psi_fails(self):
        res = check_rankine_hugoniot(merged([3.0, 5.0], [1 / 3, 2 / 3], (0, 1, 4.0)))
        assert not res.passed
        assert res.residual == pytest.approx(1 / 3)

    def test_real_events_pass(self, mixed_record):
        assert check_rankine_hugoniot(mixed_record).passed

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidScenarioError):
            check_rankine_hugoniot(merged([1.0, -1.0], [0.5, 0.5], (0, 2, 0.0)))


# -- the chord test against the per-check formulas it replaced ----------


def _prefix_suffix_worst(p, m, s):
    """Barycentric residual of one merged range by prefix and suffix means."""
    prefix = (np.cumsum(m * p) / np.cumsum(m))[:-1]
    suffix = (np.cumsum((m * p)[::-1]) / np.cumsum(m[::-1]))[::-1][1:]
    return max(float(np.max(suffix - s)), float(np.max(s - prefix)))


def _cluster_loop_excess(flux, bounds, slopes):
    """Oleinik chords cluster by cluster, concatenated in cluster order."""
    nodes, A = flux.nodes, flux.values
    out = [np.empty(0)]
    for a, b, s in zip(bounds[:-1], bounds[1:], slopes):
        k = np.arange(a + 1, b)
        lower = (A[b] - A[k]) / (nodes[b] - nodes[k])
        upper = (A[k] - A[a]) / (nodes[k] - nodes[a])
        out.append(np.maximum(lower - s, s - upper))
    return np.concatenate(out)


@given(st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(-10.0, 10.0), st.booleans(),
                          st.floats(-1.0, 1.0)), min_size=1, max_size=40),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_chord_excess_matches_the_per_check_formulas(cells, singletons):
    m = np.array([c[0] for c in cells])
    m /= np.sum(m)
    psi = np.array([c[1] for c in cells])
    n = m.size
    flux = cumulative_primitive(psi, m)
    # a random partition (or all singletons), each range at a random slope
    start = np.array([True] + [c[2] for c in cells[1:]]) | singletons
    bounds = np.append(np.flatnonzero(start), n)
    slopes = (psi + np.array([c[3] for c in cells]))[start]
    got = _chord_excess(flux, bounds[:-1], bounds[1:], slopes)
    np.testing.assert_array_equal(got, _cluster_loop_excess(flux, bounds, slopes))
    assert got.size == n - slopes.size

    # chords of the whole flux carry the cumsum rounding of both end nodes
    # (n eps max|psi| each) over a range mass of at least 1 / (3n)
    tol = 16 * n * n * np.finfo(float).eps * (1.0 + float(np.max(np.abs(psi))))
    ends = np.cumsum(np.diff(bounds) - 1)
    for a, b, s, end in zip(bounds[:-1], bounds[1:], slopes, ends):
        if b - a < 2:
            continue  # a single cell has no interior node
        worst = float(np.max(got[end - (b - a - 1):end]))
        assert abs(worst - _prefix_suffix_worst(psi[a:b], m[a:b], s)) <= tol
        rec = merged(psi, m, (int(a), int(b - 1), float(s)))
        assert check_barycentric(rec).residual == worst
        mean = np.sum(m[a:b] * psi[a:b]) / np.sum(m[a:b])
        assert abs(float(_chord(flux, a, b)) - mean) <= tol
        assert check_rankine_hugoniot(rec).residual == abs(s - _chord(flux, a, b))


# -- snapshot checks -----------------------------------------------------


class TestOleinik:
    def test_real_record_passes(self, mixed_record):
        assert check_oleinik_entropy(mixed_record).passed

    def test_singletons_vacuous(self):
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0], kernel)
        rec = fabricated(kernel, [ens], [0.0])
        res = check_oleinik_entropy(rec)
        assert res.passed and res.residual == 0.0

    def test_wrongly_merged_increasing_psi_fails(self):
        # merging an ordered pair (psi 1 < 2) breaks the entropy chords
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, 2.0], kernel)
        rec = fabricated(kernel, [ens.merged([(0, 2)])], [0.0])
        res = check_oleinik_entropy(rec)
        assert not res.passed
        assert res.residual == pytest.approx(0.5)
        # one bad snapshot fails the record, wherever it sits
        rec = fabricated(kernel, [ens, ens.merged([(0, 2)]), ens], [0.0, 1.0, 2.0])
        assert check_oleinik_entropy(rec).residual == res.residual


class TestProjectionFormula:
    def test_real_record_passes(self, mixed_record):
        res = check_projection_formula(mixed_record)
        assert res.passed

    def test_corrupted_integral_fails(self, mixed_record):
        # the default tolerance is calibrated to the snapshot spacing, so the
        # corruption has to be macroscopic to count as a detection test
        rec = fabricated(mixed_record.kernel, mixed_record.snapshots,
                         mixed_record.times, mixed_record.events,
                         phi=mixed_record.phi_integrals + 1e3,
                         v2=mixed_record.v2_integrals)
        res = check_projection_formula(rec)
        assert not res.passed
        assert res.residual == pytest.approx(1e3, rel=1e-2)


class TestStickiness:
    def test_real_record_passes(self, mixed_record):
        res = check_stickiness(mixed_record)
        assert res.passed and res.residual == 0.0

    def test_splitting_cluster_fails(self):
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
        rec = fabricated(kernel, [ens.merged([(0, 2)]), ens], [0.0, 1.0])
        res = check_stickiness(rec)
        assert not res.passed
        assert res.residual == 1.0
        # the residual counts split clusters, not the pieces they split into
        ens = ensemble_with_psi([0.125, 0.125, 0.25, 0.125, 0.125, 0.25],
                                np.linspace(-1.0, 1.0, 6), np.zeros(6), kernel)
        for runs, split in (([(0, 3)], 1.0), ([(0, 2), (3, 6)], 2.0)):
            res = check_stickiness(fabricated(kernel, [ens.merged(runs), ens], [0.0, 1.0]))
            assert not res.passed
            assert res.residual == split


class TestConservation:
    def test_real_record_passes(self, mixed_record):
        assert check_conservation(mixed_record).passed

    def test_non_dyadic_masses_pass(self):
        # pooled cluster masses are summed in another order than the cells,
        # so a snapshot total can differ from the initial one in the last bit
        rng = np.random.default_rng(2)
        kernel = Zero()
        ens = Ensemble.from_particles(rng.uniform(0.5, 1.5, 100), np.sort(rng.normal(size=100)),
                                      rng.normal(size=100), kernel, normalize=True)
        rec = simulate(ens, kernel, 4.0, 0.25)
        m0 = float(np.sum(ens.cell_masses))
        assert any(float(np.sum(s.masses)) != m0 for s in rec.snapshots)
        assert check_conservation(rec).passed

    def test_cluster_mass_off_by_1e_12_fails(self, mixed_record):
        last = mixed_record.snapshots[-1]
        off = dataclasses.replace(last, masses=last.masses + np.eye(last.n_clusters)[0] * 1e-12)
        rec = fabricated(mixed_record.kernel, mixed_record.snapshots[:-1] + [off],
                         mixed_record.times)
        res = check_conservation(rec)
        assert not res.passed and res.residual == np.inf

    def test_changed_cell_masses_fail(self):
        # same total, same momentum, cluster masses pooled from the new cells
        kernel = Zero()
        ens = ensemble_with_psi([0.25, 0.75], [-1.0, 1.0], [1.0, 1.0], kernel)
        swapped = dataclasses.replace(ens, cell_masses=ens.cell_masses[::-1],
                                      masses=ens.masses[::-1])
        res = check_conservation(fabricated(kernel, [ens, swapped], [0.0, 1.0]))
        assert not res.passed and res.residual == np.inf

    def test_momentum_drift_fails(self):
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
        kicked = ens.evolved(ens.positions, ens.velocities + 1.0)
        res = check_conservation(fabricated(kernel, [ens, kicked], [0.0, 1.0]))
        assert not res.passed
        assert res.residual == pytest.approx(1.0)

    def test_nan_snapshot_velocity_fails(self, mixed_record):
        # a NaN momentum after the first snapshot must not be reduced away
        snaps = list(mixed_record.snapshots)
        v = snaps[1].velocities.copy()
        v[0] = np.nan
        snaps[1] = snaps[1].evolved(snaps[1].positions, v)
        res = check_conservation(dataclasses.replace(mixed_record, snapshots=snaps))
        assert not res.passed and np.isnan(res.residual)

    def test_repeated_partition_is_still_pooled(self):
        # a rarefaction keeps its partition, so the check pools the first
        # snapshot only and compares each later one with the one before
        kernel = Exponential(1.0)
        rng = np.random.default_rng(5)
        ens = Ensemble.from_particles(dyadic_masses(rng, 20), np.sort(rng.normal(size=20)),
                                      np.sort(rng.normal(size=20)), kernel)
        rec = simulate(ens, kernel, 2.0, 0.5)
        assert all(np.array_equal(s.starts, ens.starts) for s in rec.snapshots)
        assert check_conservation(rec).passed
        last = rec.snapshots[-1]
        masses = last.masses.copy()
        masses[0] = np.nextafter(masses[0], 1.0)
        snaps = rec.snapshots[:-1] + [dataclasses.replace(last, masses=masses)]
        res = check_conservation(dataclasses.replace(rec, snapshots=snaps))
        assert not res.passed and res.residual == np.inf

    def test_cluster_count_increase_fails(self):
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [0.0, 0.0], kernel)
        res = check_conservation(fabricated(kernel, [ens.merged([(0, 2)]), ens],
                                            [0.0, 1.0]))
        assert not res.passed


class TestDissipation:
    def test_real_record_passes(self, mixed_record):
        assert check_dissipation(mixed_record).passed

    def test_corrupted_integral_fails(self, mixed_record):
        rec = fabricated(mixed_record.kernel, mixed_record.snapshots,
                         mixed_record.times, mixed_record.events,
                         phi=mixed_record.phi_integrals,
                         v2=mixed_record.v2_integrals + 1e3)
        assert not check_dissipation(rec).passed

    def test_nan_integral_fails(self, mixed_record):
        v2 = mixed_record.v2_integrals.copy()
        v2[5] = np.nan
        res = check_dissipation(dataclasses.replace(mixed_record, v2_integrals=v2))
        assert not res.passed and np.isnan(res.residual)


# -- flocking ------------------------------------------------------------


class TestFlocking:
    def test_thin_tail_pair_passes(self):
        kernel = Exponential(1.0)
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-1.5, 1.5], kernel)
        rec = simulate(ens, kernel, 5.0, 1.0)
        res = check_flocking(rec, analyze(ens, kernel))
        assert res.passed
        assert res.details[0]["regime"] == "ThinTailDiverge"

    def test_fat_tail_pair_passes(self):
        kernel = AllToAll(1.0)
        ens = Ensemble.from_particles([0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5], kernel)
        rec = simulate(ens, kernel, 6.0, 1.0)
        res = check_flocking(rec, analyze(ens, kernel))
        assert res.passed
        assert res.details[0]["regime"] == "FatTailBound"
        assert res.details[0]["final_distance"] == pytest.approx(2.0 - np.exp(-6.0),
                                                                 abs=1e-6)

    def test_escaping_fat_tail_pair_fails(self):
        kernel = AllToAll(1.0)
        ens = Ensemble.from_particles([0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5], kernel)
        blown = ens.evolved(np.array([-1.5, 1.5]), ens.velocities)
        rec = fabricated(kernel, [ens, blown], [0.0, 1.0])
        res = check_flocking(rec, analyze(ens, kernel))
        assert not res.passed
        assert res.residual == pytest.approx(1.0)  # final edge 3 vs threshold 2

    def test_stalling_thin_tail_pair_fails(self):
        kernel = Exponential(1.0)
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-1.5, 1.5], kernel)
        frozen = ens.evolved(ens.positions, ens.velocities)
        rec = fabricated(kernel, [ens, frozen], [0.0, 2.0])
        res = check_flocking(rec, analyze(ens, kernel))
        assert not res.passed
        assert res.residual == pytest.approx(2.0)  # missed 2 units of growth

    def test_gap_beyond_the_primitive_has_no_upper_bound(self):
        # gap / span = 1.5 >= sup Phi = 1 (and gap < l1 = 2): the escape that
        # fails test_escaping_fat_tail_pair_fails is bounded by nothing here
        kernel = Exponential(1.0)
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-0.75, 0.75], kernel)
        blown = ens.evolved(np.array([-1.5, 1.5]), ens.velocities)
        res = check_flocking(fabricated(kernel, [ens, blown], [0.0, 1.0]), analyze(ens, kernel))
        assert res.passed and res.residual == 0.0
        assert res.details == ({"pair": (0, 1), "regime": "FatTailBound",
                                "final_distance": 3.0},)

    def test_needs_two_subgroups(self):
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
        rec = fabricated(kernel, [ens], [0.0])
        with pytest.raises(InvalidScenarioError, match="two subgroups"):
            check_flocking(rec, analyze(ens, kernel))


def _flocking_by_pairs(record, analysis):
    """check_flocking's residual and details, pair by pair and snapshot by snapshot."""
    def center(s, cells):
        a, b = cells
        m = s.cell_masses[a:b]
        return float(np.sum(m * s.positions[s.lineage[a:b]]) / np.sum(m))

    worst, observations = 0.0, []
    for i in range(len(analysis.subgroups) - 1):
        sg1, sg2 = analysis.subgroups[i], analysis.subgroups[i + 1]
        th = flocking_thresholds(analysis, i, i + 1)
        obs = {"pair": (i, i + 1), "regime": th.regime.value}
        if th.regime is Regime.THIN_TAIL_DIVERGE:
            gaps = np.array([center(s, sg2.cells) - center(s, sg1.cells)
                             for s in record.snapshots])
            residual = float(np.max(gaps[0] + th.rate * record.times - gaps))
            obs["min_margin"] = -residual
        else:
            edges = np.array([s.positions[s.lineage[sg2.cells[1] - 1]]
                              - s.positions[s.lineage[sg1.cells[0]]] for s in record.snapshots])
            obs["final_distance"] = float(edges[-1])
            residual = 0.0
            if th.upper is not None:
                if np.any(edges <= th.upper):
                    residual = float(edges[-1] - th.upper)
                obs["upper"] = th.upper
        worst = max(worst, residual)
        observations.append(obs)
    return worst, observations


def _assert_matches_by_pairs(record, analysis):
    """check_flocking agrees with :func:`_flocking_by_pairs`; returns the regimes seen."""
    res = check_flocking(record, analysis)
    worst, observations = _flocking_by_pairs(record, analysis)
    assert res.residual == pytest.approx(worst, rel=0.0, abs=1e-12)
    assert len(res.details) == len(observations)
    for got, want in zip(res.details, observations):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=0.0, abs=1e-12)
            else:
                assert got[key] == value
    return {want["regime"] for want in observations}


def test_flocking_matches_the_per_pair_formula(rng):
    regimes = set()
    for _ in range(16):
        ens, kernel = random_scenario(rng, 30)
        analysis = analyze(ens, kernel)
        if len(analysis.subgroups) < 2:
            continue
        regimes |= _assert_matches_by_pairs(simulate(ens, kernel, 2.0, 0.5), analysis)
    assert regimes == {"ThinTailDiverge", "FatTailBound"}


@pytest.mark.parametrize("kernel", [Exponential(1.0), PowerLaw(1.0, 0.5, 1.0)], ids=repr)
def test_flocking_on_300_subgroups_matches_the_per_pair_formula(kernel):
    # nondecreasing velocities keep every cell its own subgroup; the jump of 7
    # exceeds both kernels' l1 norm, so one of the 299 pairs is thin-tailed
    rng = np.random.default_rng(7)
    v = np.sort(rng.normal(scale=0.5, size=300))
    v[150:] += 7.0
    ens = Ensemble.from_particles(dyadic_masses(rng, 300), np.sort(rng.normal(size=300)), v,
                                  kernel)
    analysis = analyze(ens, kernel)
    assert len(analysis.subgroups) == 300
    rec = simulate(ens, kernel, 2.0, 0.5)
    assert _assert_matches_by_pairs(rec, analysis) == {"ThinTailDiverge", "FatTailBound"}
    bounded = [d for d in check_flocking(rec, analysis).details if d["regime"] == "FatTailBound"]
    assert 0 < sum("upper" in d for d in bounded) < len(bounded)


# -- convergence study ---------------------------------------------------


def staircase_sampler(n):
    """n-cell discretization of X(m) = m with velocity profile 1/2 - m."""
    m = np.full(n, 1.0 / n)
    mids = (np.arange(n) + 0.5) / n
    return Ensemble.from_particles(m, mids, 0.5 - mids, Zero())


def test_convergence_study_passes():
    study = convergence_study(staircase_sampler, [8, 16, 32], [0.25, 0.5, 1.0], Zero())
    assert study.passed
    assert study.monotone
    assert [(r.n, r.n_fine) for r in study.rows] == [(8, 16), (16, 32)]
    for row in study.rows:
        assert row.sup_w2 <= row.bound


def test_convergence_study_flags_non_monotone():
    def bad_sampler(n):
        ens = staircase_sampler(n)
        if n == 32:  # not a refinement of the same profile
            return Ensemble.from_particles(ens.cell_masses, ens.cell_positions,
                                           ens.cell_velocities + 2.0, Zero())
        return ens

    study = convergence_study(bad_sampler, [8, 16, 32], [0.25, 0.5, 1.0], Zero())
    assert not study.monotone
    assert not study.passed


def test_convergence_study_argument_checks():
    with pytest.raises(InvalidScenarioError):
        convergence_study(staircase_sampler, [8], [1.0], Zero())
    with pytest.raises(InvalidScenarioError):
        convergence_study(staircase_sampler, [8, 16], [], Zero())
    with pytest.raises(InvalidScenarioError):
        convergence_study(staircase_sampler, [8, 16], [-1.0], Zero())


# -- orchestration -------------------------------------------------------


def test_verify_record_all_green(mixed_record):
    results = verify_record(mixed_record)
    assert [r.name for r in results] == [
        "barycentric", "rankine_hugoniot", "oleinik_entropy",
        "stickiness", "conservation", "projection_formula", "dissipation"]
    assert all(r.passed for r in results)


def test_verify_record_aggregates_the_per_event_and_per_snapshot_checks(mixed_record):
    # the second record starts with two coincident cells, so no snapshot is
    # all singletons and the Oleinik residual is a negative margin
    kernel = Zero()
    ens = ensemble_with_psi([0.25, 0.25, 0.25, 0.25], [-1.0, -1.0, 0.0, 1.0],
                            [2.0, 1.0, -1.0, 0.5], kernel)
    for rec in (mixed_record, simulate(ens, kernel, 2.0, 0.5)):
        init = rec.initial
        flux = cumulative_primitive(init.cell_psi, init.cell_masses)
        per_snapshot = [np.max(_cluster_loop_excess(flux, s.bounds, s.psi), initial=0.0
                               if s.n_clusters == s.n_cells else -np.inf)
                        for s in rec.snapshots]
        ranges = [(ev.first_index, ev.last_index + 1, ev.post_psi) for ev in rec.events]
        per_event = [np.max(_cluster_loop_excess(flux, [a, b], [s])) for a, b, s in ranges]
        jumps = [abs(s - _chord(flux, a, b)) for a, b, s in ranges]
        by_name = {r.name: r for r in verify_record(rec)}
        assert by_name["oleinik_entropy"].residual == max(per_snapshot)
        assert by_name["barycentric"].residual == max(per_event)
        assert by_name["rankine_hugoniot"].residual == max(jumps)
    assert by_name["oleinik_entropy"].residual < 0.0


def test_verify_record_looks_the_checks_up_by_name(mixed_record, monkeypatch):
    """A wrapper installed on the module (as a tracer installs one) is called."""
    calls = []
    for name in ("check_barycentric", "check_projection_formula"):
        original = getattr(verify, name)

        def spy(record, original=original):
            calls.append(original.__name__)
            return original(record)

        monkeypatch.setattr(verify, name, spy)
    results = verify_record(mixed_record)
    assert calls == ["check_barycentric", "check_projection_formula"]
    assert (results[0].name, results[5].name) == ("barycentric", "projection_formula")


def test_verify_record_catches_tampered_event(mixed_record):
    ev = mixed_record.events[0]
    doctored = MergeEvent(time=ev.time, first_index=ev.first_index,
                          last_index=ev.last_index, post_velocity=ev.post_velocity,
                          post_psi=ev.post_psi + 0.5)
    rec = fabricated(mixed_record.kernel, mixed_record.snapshots,
                     mixed_record.times,
                     (doctored,) + mixed_record.events[1:],
                     phi=mixed_record.phi_integrals, v2=mixed_record.v2_integrals)
    by_name = {r.name: r for r in verify_record(rec)}
    assert not by_name["rankine_hugoniot"].passed


def test_verify_random_scenarios(rng):
    for _ in range(5):
        ens, kernel = random_scenario(rng, 20)
        rec = simulate(ens, kernel, 3.0, 0.25)
        results = verify_record(rec)
        failed = [r.name for r in results if not r.passed]
        assert failed == []


def test_verify_large_exponential_rarefaction():
    # N = 2000 in well under a second: the scanned convolution and energy
    # carry every force term, the accumulators and the dissipation check
    rng = np.random.default_rng(11)
    n = 2000
    kernel = Exponential(1.0)
    ens = Ensemble.from_particles(dyadic_masses(rng, n), np.sort(rng.normal(size=n)),
                                  np.sort(rng.normal(scale=0.5, size=n)), kernel)
    rec = simulate(ens, kernel, 4.0, 0.5)
    assert rec.events == () and rec.snapshots[-1].n_clusters == n
    failed = [r.name for r in verify_record(rec) if not r.passed]
    assert failed == []


def test_report_json_shape(mixed_record):
    payload = json.loads(report_json(verify_record(mixed_record)))
    assert isinstance(payload, list) and payload
    for entry in payload:
        assert set(entry) == {"name", "pass", "residual", "tolerance"}
        assert isinstance(entry["pass"], bool)


def test_default_tolerance_scales_with_psi():
    assert default_tolerance([1.0, -3.0]) == pytest.approx(4e-9)
