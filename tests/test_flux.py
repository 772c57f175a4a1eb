"""Static clustering predictor: flux, envelope labels, subgroups, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stickyalign import (
    AllToAll,
    Ensemble,
    Exponential,
    Forecast,
    PowerLaw,
    Regime,
    RegionLabel,
    Zero,
    analyze,
    build_flux,
    flocking_thresholds,
    lower_convex_envelope,
    predicted_partition,
    simulate,
)
from stickyalign.flux import Region, Subgroup
from tests.conftest import KERNEL_POOL, cell_ranges, ensemble_with_psi, random_scenario

QUARTERS = [0.25, 0.25, 0.25, 0.25]


def envelope_slopes_per_cell(an):
    """A** slope over each cell (hull vertices are A nodes)."""
    return np.repeat(an.A_star_star.slopes,
                     np.diff(np.searchsorted(an.A.nodes, an.A_star_star.nodes)))


def test_build_flux_nodes_and_values():
    ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], Zero())
    A = build_flux(ens)
    np.testing.assert_allclose(A.nodes, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(A.values, [0.0, 0.5, 0.0], atol=1e-15)


class TestHeadOnTent:
    """psi = (1, -1): the flux is a tent, everything is supercritical."""

    def analysis(self, kernel):
        return analyze(ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0],
                                         kernel), kernel)

    def test_labels_and_regions(self):
        an = self.analysis(Zero())
        assert an.cell_labels == (RegionLabel.SUPERCRITICAL,) * 2
        assert len(an.regions) == 1
        reg = an.regions[0]
        assert (reg.m_lo, reg.m_hi, reg.label) == (0.0, 1.0, RegionLabel.SUPERCRITICAL)

    def test_envelope_is_chord(self):
        an = self.analysis(Zero())
        np.testing.assert_allclose(an.A_star_star.nodes, [0.0, 1.0])
        np.testing.assert_allclose(an.A_star_star.values, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(envelope_slopes_per_cell(an), [0.0, 0.0], atol=1e-14)

    def test_single_subgroup_finite_time(self):
        an = self.analysis(Zero())
        assert len(an.subgroups) == 1
        sg = an.subgroups[0]
        assert sg.cells == (0, 2)
        assert sg.psi == pytest.approx(0.0, abs=1e-15)
        # fully supercritical: collapses in finite time under any kernel
        assert sg.forecast is Forecast.FINITE_TIME_CLUSTER
        an2 = self.analysis(Exponential(1.0))
        assert an2.subgroups[0].forecast is Forecast.FINITE_TIME_CLUSTER

    def test_partition(self):
        kernel = Zero()
        ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
        assert predicted_partition(analyze(ens, kernel), ens) == [(0, 2)]


def test_critical_pair_linear_kernel():
    # head-on raw velocities under the linear kernel give psi = (0, 0): the
    # flux is flat, the pair is critical, and aggregation takes forever
    kernel = AllToAll(1.0)
    ens = Ensemble.from_particles([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
    np.testing.assert_allclose(ens.psi, [0.0, 0.0], atol=1e-15)
    an = analyze(ens, kernel)
    assert an.cell_labels == (RegionLabel.CRITICAL,) * 2
    assert len(an.subgroups) == 1
    assert an.subgroups[0].forecast is Forecast.INFINITE_TIME_CLUSTER
    # the singular-origin kernel instead promises a finite-time collapse
    k2 = PowerLaw(1.0, 0.5, 1.0)
    e2 = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [0.0, 0.0], k2)
    assert analyze(e2, k2).subgroups[0].forecast is Forecast.FINITE_TIME_CLUSTER


def test_increasing_psi_is_all_subcritical():
    kernel = Exponential(1.0)
    ens = ensemble_with_psi(QUARTERS, [-3.0, -1.0, 1.0, 3.0],
                            [-2.0, -1.0, 1.0, 2.0], kernel)
    an = analyze(ens, kernel)
    assert an.cell_labels == (RegionLabel.SUBCRITICAL,) * 4
    assert [sg.forecast for sg in an.subgroups] == [Forecast.NO_CLUSTER] * 4
    assert [sg.cells for sg in an.subgroups] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert predicted_partition(an, ens) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_repeated_slope_makes_critical_run():
    # psi = (1, 1, 3): the first two cells share one envelope segment
    kernel = Exponential(1.0)
    ens = ensemble_with_psi([1 / 3, 1 / 3, 1 / 3], [-1.0, 0.0, 1.0],
                            [1.0, 1.0, 3.0], kernel, normalize=True)
    an = analyze(ens, kernel)
    assert an.cell_labels == (RegionLabel.CRITICAL, RegionLabel.CRITICAL,
                              RegionLabel.SUBCRITICAL)
    assert len(an.subgroups) == 2
    sg1, sg2 = an.subgroups
    assert sg1.cells == (0, 2) and sg1.psi == pytest.approx(1.0)
    assert sg1.forecast is Forecast.INFINITE_TIME_CLUSTER
    assert sg2.cells == (2, 3) and sg2.psi == pytest.approx(3.0)
    assert sg2.forecast is Forecast.NO_CLUSTER
    np.testing.assert_allclose(envelope_slopes_per_cell(an), [1.0, 1.0, 3.0],
                               atol=1e-13)


class TestMixedScenario:
    """psi = (2, -1, 0, 3): a three-cell supercritical block, then a loner."""

    def analysis(self, kernel=Zero()):
        ens = ensemble_with_psi(QUARTERS, [-0.6, -0.2, 0.2, 0.6],
                                [2.0, -1.0, 0.0, 3.0], kernel)
        return analyze(ens, kernel), ens

    def test_labels(self):
        an, _ = self.analysis()
        assert an.cell_labels == (RegionLabel.SUPERCRITICAL,) * 3 + (RegionLabel.SUBCRITICAL,)
        assert [(r.m_lo, r.m_hi, r.label) for r in an.regions] == [
            (0.0, 0.75, RegionLabel.SUPERCRITICAL),
            (0.75, 1.0, RegionLabel.SUBCRITICAL),
        ]

    def test_subgroups(self):
        an, _ = self.analysis()
        assert [sg.cells for sg in an.subgroups] == [(0, 3), (3, 4)]
        assert an.subgroups[0].psi == pytest.approx(1 / 3)
        assert an.subgroups[0].forecast is Forecast.FINITE_TIME_CLUSTER

    def test_partition(self):
        an, ens = self.analysis()
        assert predicted_partition(an, ens) == [(0, 3), (3, 4)]

    def test_simulation_realizes_forecast(self):
        kernel = PowerLaw(1.0, 0.5, 1.0)
        ens = ensemble_with_psi(QUARTERS, [-0.6, -0.2, 0.2, 0.6],
                                [2.0, -1.0, 0.0, 3.0], kernel)
        an = analyze(ens, kernel)
        rec = simulate(ens, kernel, 10.0, 2.5)
        assert cell_ranges(rec.snapshot_at(10.0)) == predicted_partition(an, ens)


def test_initial_clusters_stay_bonded():
    # two coincident particles with otherwise increasing psi: the pre-merged
    # bond survives in the forecast even though the flux says subcritical
    kernel = Zero()
    ens = Ensemble.from_particles([0.25, 0.25, 0.5], [0.0, 0.0, 1.0],
                                  [-1.0, 0.0, 1.0], kernel)
    an = analyze(ens, kernel)
    assert predicted_partition(an, ens) == [(0, 2), (2, 3)]


def test_galilean_shift_invariance(rng):
    for _ in range(10):
        ens, kernel = random_scenario(rng, 15)
        shifted = Ensemble.from_particles(ens.cell_masses, ens.cell_positions,
                                          ens.cell_velocities + 2.5, kernel)
        a1 = analyze(ens, kernel)
        a2 = analyze(shifted, kernel)
        assert a1.cell_labels == a2.cell_labels
        assert [sg.cells for sg in a1.subgroups] == [sg.cells for sg in a2.subgroups]
        for s1, s2 in zip(a1.subgroups, a2.subgroups):
            assert s2.psi - s1.psi == pytest.approx(2.5, abs=1e-12)


def test_envelope_slopes_match_isotonic(rng):
    from stickyalign import project_monotone
    for _ in range(10):
        ens, kernel = random_scenario(rng, 20)
        an = analyze(ens, kernel)
        iso = project_monotone(ens.cell_psi, weights=ens.cell_masses)
        np.testing.assert_allclose(envelope_slopes_per_cell(an), iso,
                                   rtol=1e-9, atol=1e-12)


def test_analysis_uses_cells_not_clusters(rng):
    """The predictor reads frozen initial data, so a later snapshot of the
    run yields the identical flux."""
    ens, kernel = random_scenario(rng, 12)
    rec = simulate(ens, kernel, 2.0, 1.0)
    A0 = build_flux(ens)
    A2 = build_flux(rec.snapshot_at(2.0))
    np.testing.assert_array_equal(A0.nodes, A2.nodes)
    np.testing.assert_array_equal(A0.values, A2.values)


def test_constant_psi_is_one_critical_subgroup():
    """A straight flux is its own envelope: psi == 0.7 on every cell is one
    Critical subgroup and one cluster, whatever the rounding of the cell
    masses' partial sums (a hull sweep over the nodes splits it at m=0.625)."""
    kernel = PowerLaw(1.0, 0.5, 1.0)
    m = np.array([1, 3, 2, 4, 1, 2, 3]) / 16
    ens = ensemble_with_psi(m, np.arange(7.0) * 1e-3, np.full(7, 0.7), kernel)
    assert np.all(ens.cell_psi == 0.7)
    an = analyze(ens, kernel)
    assert [sg.cells for sg in an.subgroups] == [(0, 7)]
    assert set(an.cell_labels) == {RegionLabel.CRITICAL}
    assert predicted_partition(an, ens) == [(0, 7)]


# -- array code against the per-cell loops it replaced -------------------


def _oracle_labels(A, hull, eps_env):
    gaps = A.values - hull(A.nodes)
    mids = 0.5 * (A.nodes[:-1] + A.nodes[1:])
    seg = np.clip(np.searchsorted(hull.nodes, mids, side="right") - 1,
                  0, hull.nodes.size - 2)
    seg_cells = np.bincount(seg, minlength=hull.nodes.size - 1)
    labels = []
    for i in range(A.nodes.size - 1):
        if gaps[i] > eps_env or gaps[i + 1] > eps_env:
            labels.append(RegionLabel.SUPERCRITICAL)
        elif seg_cells[seg[i]] > 1:
            labels.append(RegionLabel.CRITICAL)
        else:
            labels.append(RegionLabel.SUBCRITICAL)
    return labels, hull.slopes[seg]


def _oracle_forecast(cells, labels, kernel):
    a, b = cells
    if b - a == 1:
        return Forecast.NO_CLUSTER
    sup = [lab is RegionLabel.SUPERCRITICAL for lab in labels[a:b]]
    if kernel.reciprocal_phi_integrable_at_zero:
        return Forecast.FINITE_TIME_CLUSTER
    if all(sup):
        return Forecast.FINITE_TIME_CLUSTER
    if kernel.vanishes:
        return Forecast.FINITE_TIME_CLUSTER if any(sup) else Forecast.NO_CLUSTER
    return Forecast.INFINITE_TIME_CLUSTER


def _oracle(ens, kernel):
    """Labels, regions, subgroups, per-cell envelope slopes and predicted
    partition, one cell, hull segment or bond at a time."""
    A = build_flux(ens)
    hull = lower_convex_envelope(ens.cell_psi, ens.cell_masses)
    eps_env = 1e-12 * (1.0 + float(np.max(np.abs(A.values))))
    labels, slopes = _oracle_labels(A, hull, eps_env)
    regions = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] is not labels[start]:
            regions.append(Region(float(A.nodes[start]), float(A.nodes[i]), labels[start]))
            start = i
    subgroups = []
    for k in range(hull.nodes.size - 1):
        lo, hi = float(hull.nodes[k]), float(hull.nodes[k + 1])
        a = int(np.searchsorted(A.nodes, lo, side="left"))
        b = int(np.searchsorted(A.nodes, hi, side="left"))
        psi = float((hull.values[k + 1] - hull.values[k]) / (hi - lo))
        subgroups.append(Subgroup(lo, hi, (a, b), psi,
                                  _oracle_forecast((a, b), labels, kernel)))
    n = ens.n_cells
    bound = np.zeros(n - 1, dtype=bool)
    if kernel.reciprocal_phi_integrable_at_zero:
        for sg in subgroups:
            bound[sg.cells[0]:sg.cells[1] - 1] = True
    else:
        for i in range(n - 1):
            if labels[i] is RegionLabel.SUPERCRITICAL and labels[i + 1] is RegionLabel.SUPERCRITICAL:
                bound[i] = True
    bound |= ens.lineage[1:] == ens.lineage[:-1]
    blocks = []
    start = 0
    for i in range(n - 1):
        if not bound[i]:
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, n))
    return tuple(labels), tuple(regions), tuple(subgroups), slopes, blocks


_cells = st.lists(st.tuples(st.integers(1, 4), st.integers(-4, 4), st.integers(-3, 3)),
                  min_size=1, max_size=30)


@given(kernel=st.sampled_from(KERNEL_POOL), cells=_cells,
       psi_mode=st.sampled_from(["given", "increasing", "raw"]))
@example(kernel=Zero(), cells=[(1, 0, 0)], psi_mode="given")  # N = 1
@example(kernel=PowerLaw(1.0, 0.5, 1.0), cells=[(1, 0, 2), (2, 0, -1), (1, 1, 0)],
         psi_mode="given")  # coincident positions
@example(kernel=AllToAll(0.8), cells=[(1, -1, 1), (2, 0, 1), (1, 1, 1), (3, 2, 2)],
         psi_mode="given")  # repeated psi: a critical run
@example(kernel=Exponential(0.9), cells=[(1, -1, 3), (1, 0, 1), (2, 1, 0)],
         psi_mode="increasing")
@settings(max_examples=300, deadline=None)
def test_analysis_matches_per_cell_loops(kernel, cells, psi_mode):
    m, x, p = (np.array(c, dtype=float) for c in zip(*cells))
    x = np.sort(x) / 2.0
    if psi_mode == "raw":  # p as raw velocities, psi through the kernel
        ens = Ensemble.from_particles(m, x, p, kernel, normalize=True)
    else:
        psi = np.cumsum(np.abs(p) + 1.0) - 5.0 if psi_mode == "increasing" else p
        ens = Ensemble.from_particles(m, x, psi, Zero(), normalize=True)  # psi = v
    labels, regions, subgroups, slopes, blocks = _oracle(ens, kernel)
    an = analyze(ens, kernel)
    assert an.cell_labels == labels
    assert an.regions == regions
    assert an.subgroups == subgroups
    assert (np.array([sg.psi for sg in an.subgroups]).tobytes()
            == np.array([sg.psi for sg in subgroups]).tobytes())
    assert envelope_slopes_per_cell(an).tobytes() == slopes.tobytes()
    assert predicted_partition(an, ens) == blocks


# -- flocking thresholds -------------------------------------------------


def test_thin_tail_rate():
    kernel = Exponential(1.0)  # l1 norm 2
    ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-1.5, 1.5], kernel)
    th = flocking_thresholds(analyze(ens, kernel), 0, 1)
    assert th.regime is Regime.THIN_TAIL_DIVERGE
    assert th.rate == pytest.approx(1.0)
    assert th.lower is None and th.upper is None


def test_fat_tail_band():
    kernel = AllToAll(1.0)
    ens = Ensemble.from_particles([0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5], kernel)
    np.testing.assert_allclose(ens.psi, [-1.0, 1.0], atol=1e-15)
    th = flocking_thresholds(analyze(ens, kernel), 0, 1)
    assert th.regime is Regime.FAT_TAIL_BOUND
    assert th.rate is None
    assert th.upper == pytest.approx(2.0)  # Phi^{-1}(gap / mass span)
    assert th.lower == pytest.approx(2.0)  # 2 Phi^{-1}(gap / 2)


def test_bounded_regime_out_of_range_threshold():
    kernel = Exponential(1.0)  # sup Phi = 1
    ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-0.75, 0.75], kernel)
    th = flocking_thresholds(analyze(ens, kernel), 0, 1)
    assert th.regime is Regime.FAT_TAIL_BOUND
    assert th.upper is None  # gap / span = 1.5 exceeds sup Phi
    assert th.lower == pytest.approx(2.0 * -math.log1p(-0.75))


def test_flocking_thresholds_argument_checks():
    kernel = Exponential(1.0)
    ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0], kernel)
    an = analyze(ens, kernel)
    with pytest.raises(ValueError):
        flocking_thresholds(an, 1, 0)
    with pytest.raises(ValueError):
        flocking_thresholds(an, 0, 5)
