"""Ensemble construction, pooling invariants, and the quantile view."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickyalign import (
    AllToAll,
    Ensemble,
    Exponential,
    InvalidEnsembleError,
    QuantileFunction,
    Zero,
    natural_velocities,
)
from stickyalign.ensemble import _block_sums
from tests.conftest import KERNEL_POOL, dyadic_masses, random_scenario


def test_natural_velocities_all_to_all_closed_form(rng):
    # with total mass 1, AllToAll gives psi_i = v_i + K (x_i - barycenter)
    n = 7
    m = dyadic_masses(rng, n)
    x = np.sort(rng.normal(size=n))
    v = rng.normal(size=n)
    k = AllToAll(1.7)
    psi = natural_velocities(m, x, v, k)
    np.testing.assert_allclose(psi, v + 1.7 * (x - np.sum(m * x)), rtol=1e-13)


def test_natural_velocities_zero_kernel_is_identity():
    m = np.array([0.5, 0.5])
    psi = natural_velocities(m, [-1.0, 1.0], [3.0, -2.0], Zero())
    np.testing.assert_array_equal(psi, [3.0, -2.0])


def test_natural_velocities_validation():
    with pytest.raises(InvalidEnsembleError):
        natural_velocities([0.5, 0.5], [0.0, -1.0], [0.0, 0.0], Zero())  # not sorted
    with pytest.raises(InvalidEnsembleError):
        natural_velocities([0.5, -0.5], [0.0, 1.0], [0.0, 0.0], Zero())
    with pytest.raises(InvalidEnsembleError):
        natural_velocities([0.5, 0.5], [0.0], [0.0, 0.0], Zero())
    with pytest.raises(InvalidEnsembleError):
        natural_velocities([0.5, 0.5], [0.0, 1.0], [0.0, np.nan], Zero())
    # finite cells whose convolution overflows: refused as from_particles refuses them
    for make in (natural_velocities, Ensemble.from_particles):
        with pytest.raises(InvalidEnsembleError, match="natural velocities must be finite"):
            make([0.5, 0.5], [-1e308, 1e308], [0.0, 0.0], AllToAll(10.0))


class TestFromParticles:
    def test_basic_fields(self, rng):
        ens, kernel = random_scenario(rng, 12)
        assert ens.n_cells == ens.n_clusters
        np.testing.assert_array_equal(ens.lineage, np.arange(ens.n_cells))
        np.testing.assert_array_equal(ens.positions, ens.cell_positions)
        ens.validate()

    def test_mass_budget(self):
        with pytest.raises(InvalidEnsembleError, match="sum to 1"):
            Ensemble.from_particles([1.0, 1.0], [0.0, 1.0], [0.0, 0.0], Zero())
        ens = Ensemble.from_particles([1.0, 1.0], [0.0, 1.0], [0.0, 0.0], Zero(),
                                      normalize=True)
        assert float(np.sum(ens.masses)) == 1.0

    def test_rejects_bad_state(self):
        with pytest.raises(InvalidEnsembleError):
            Ensemble.from_particles([], [], [], Zero())
        with pytest.raises(InvalidEnsembleError):
            Ensemble.from_particles([0.5, 0.5], [1.0, 0.0], [0.0, 0.0], Zero())
        with pytest.raises(InvalidEnsembleError):
            Ensemble.from_particles([0.5, 0.5], [0.0, np.inf], [0.0, 0.0], Zero())
        with pytest.raises(InvalidEnsembleError):
            Ensemble.from_particles([0.5, 0.5], [0.0, 1.0], [0.0, np.nan], Zero())

    def test_coincident_particles_premerge(self):
        ens = Ensemble.from_particles([0.25, 0.25, 0.5], [0.0, 0.0, 1.0],
                                      [2.0, 0.0, -1.0], Zero())
        assert ens.n_cells == 3 and ens.n_clusters == 2
        np.testing.assert_array_equal(ens.lineage, [0, 0, 1])
        assert ens.velocities[0] == pytest.approx(1.0)  # mass-weighted pool
        assert ens.masses[0] == 0.5
        ens.validate()

    def test_cell_arrays_read_only(self, rng):
        ens, _ = random_scenario(rng, 5)
        with pytest.raises(ValueError):
            ens.cell_positions[0] = 99.0
        with pytest.raises(ValueError):
            ens.masses[0] = 99.0


class TestMerged:
    def test_two_body_pool(self):
        ens = Ensemble.from_particles([0.25, 0.75], [-1.0, 1.0], [1.0, -1.0], Zero())
        out = ens.merged([(0, 2)])
        assert out.n_clusters == 1
        # mass-weighted position and velocity of the inelastic collision
        assert out.positions[0] == pytest.approx(0.25 * -1 + 0.75 * 1)
        assert out.velocities[0] == pytest.approx(0.25 * 1 + 0.75 * -1)
        assert out.momentum() == pytest.approx(ens.momentum(), abs=1e-15)
        assert float(np.sum(out.masses)) == 1.0
        out.validate()

    def test_psi_pooled_from_cells_not_clusters(self, rng):
        """After two merge generations the cluster psi still equals the
        single-pass pool over its cells."""
        ens, _ = random_scenario(rng, 6, kernel=Exponential(1.0))
        step1 = ens.merged([(0, 2)])
        step2 = step1.merged([(0, 2)])  # merges the pair cluster with the next
        a, b = step2.cluster_cell_ranges()[0]
        cells = slice(a, b)
        pooled = np.sum(ens.cell_masses[cells] * ens.cell_psi[cells]) \
            / np.sum(ens.cell_masses[cells])
        assert step2.psi[0] == pytest.approx(pooled, rel=0, abs=1e-15)

    def test_run_validation(self, rng):
        ens, _ = random_scenario(rng, 6)
        with pytest.raises(InvalidEnsembleError):
            ens.merged([(2, 1)])
        with pytest.raises(InvalidEnsembleError):
            ens.merged([(0, 3), (2, 4)])
        with pytest.raises(InvalidEnsembleError):
            ens.merged([(0, ens.n_clusters + 1)])

    def test_pools_like_np_sum_and_keeps_other_clusters(self, rng):
        n = 60
        ens = Ensemble.from_particles(rng.uniform(0.1, 1.0, size=n), np.sort(rng.normal(size=n)),
                                      rng.normal(size=n), Zero(), normalize=True)
        runs = [(1, 6), (7, 11), (12, 18)]
        out = ens.merged(runs)
        lone_before = [0, 6, 11] + list(range(18, n))
        lone_after = [0, 2, 4] + list(range(6, n - 12))
        for k, (a, b) in zip((1, 3, 5), runs):  # one cell per cluster here
            w = ens.masses[a:b]
            assert out.masses[k] == np.sum(ens.cell_masses[a:b])
            assert out.psi[k] == np.sum(w * ens.cell_psi[a:b]) / np.sum(w)
            assert out.positions[k] == np.sum(w * ens.positions[a:b]) / np.sum(w)
            assert out.velocities[k] == np.sum(w * ens.velocities[a:b]) / np.sum(w)
        np.testing.assert_array_equal(out.positions[lone_after], ens.positions[lone_before])
        np.testing.assert_array_equal(out.velocities[lone_after], ens.velocities[lone_before])

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(-6, 6), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=30),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_full_repool(self, cells, data):
        """Against pooling every cluster afresh: each merged cluster from its
        cells (mass, psi) and from its old clusters (position, velocity), as
        whole-array block sums; every other cluster as it was."""
        cells.sort(key=lambda c: c[1])  # equal positions pre-merge into one cluster
        m, x, v = (np.array(c, dtype=float) for c in zip(*cells))
        # AllToAll(1) makes the cell psi v + x - mean(x), apart from v
        ens = Ensemble.from_particles(m, x, v, AllToAll(1.0), normalize=True)
        ens = ens.merged(_random_runs(data, ens.n_clusters))
        runs = _random_runs(data, ens.n_clusters)
        out = ens.merged(runs)

        opens = np.ones(ens.n_clusters, dtype=bool)
        for a, b in runs:
            opens[a + 1:b] = False
        first = np.flatnonzero(opens)
        single = np.diff(first, append=ens.n_clusters) == 1
        w = ens.masses

        def pooled(a):
            return np.where(single, a[first], _block_sums(w * a, first) / _block_sums(w, first))

        full = Ensemble._assemble(ens.cell_masses, ens.cell_positions, ens.cell_velocities,
                                  ens.cell_psi, ens.starts[first],
                                  cluster_positions=pooled(ens.positions),
                                  cluster_velocities=pooled(ens.velocities))
        for f in ("cell_masses", "cell_positions", "cell_velocities", "cell_psi", "starts",
                  "masses", "positions", "velocities", "psi", "lineage"):
            got, want = getattr(out, f), getattr(full, f)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f
        np.testing.assert_array_equal(
            out.lineage, np.repeat(np.arange(out.n_clusters),
                                   np.diff(out.starts, append=out.n_cells)))

    def test_merge_all(self, rng):
        ens, _ = random_scenario(rng, 10)
        out = ens.merged([(0, ens.n_clusters)])
        assert out.n_clusters == 1
        assert float(np.sum(out.masses)) == 1.0
        assert out.momentum() == pytest.approx(ens.momentum(), abs=1e-14)


def _random_runs(data, n):
    """Disjoint half-open runs over range(n), runs of one included."""
    cuts = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    edges = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
    pieces = list(zip(edges[:-1], edges[1:]))
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    return [piece for piece, c in zip(pieces, chosen) if c]


def test_evolved_keeps_cells(rng):
    ens, _ = random_scenario(rng, 8)
    moved = ens.evolved(ens.positions + 1.0, ens.velocities * 0.5)
    np.testing.assert_array_equal(moved.cell_positions, ens.cell_positions)
    np.testing.assert_array_equal(moved.psi, ens.psi)
    with pytest.raises(InvalidEnsembleError):
        ens.evolved(ens.positions[:-1], ens.velocities[:-1])


def test_dyadic_masses_sum_exactly_one(rng):
    for _ in range(50):
        m = dyadic_masses(rng, int(rng.integers(2, 200)))
        assert float(np.sum(m)) == 1.0
        assert np.all(m > 0.0)


def test_validate_catches_corruption(rng):
    ens, _ = random_scenario(rng, 5)
    bad = Ensemble(cell_masses=ens.cell_masses, cell_positions=ens.cell_positions,
                   cell_velocities=ens.cell_velocities, cell_psi=ens.cell_psi,
                   starts=ens.starts, masses=ens.masses,
                   positions=np.zeros_like(ens.positions),  # ties everywhere
                   velocities=ens.velocities, psi=ens.psi)
    with pytest.raises(InvalidEnsembleError):
        bad.validate()
    bad = Ensemble(cell_masses=ens.cell_masses, cell_positions=ens.cell_positions,
                   cell_velocities=ens.cell_velocities, cell_psi=ens.cell_psi,
                   starts=ens.starts, masses=ens.masses * 2.0,
                   positions=ens.positions, velocities=ens.velocities, psi=ens.psi)
    with pytest.raises(InvalidEnsembleError):
        bad.validate()


@pytest.mark.parametrize("starts", [[1, 2, 3], [0, 2, 2], [0, 3, 2], [0, 2, 4], [0, 2],
                                    [0, 1, 2, 3]],
                         ids=["not-at-0", "repeat", "decreasing", "beyond-cells",
                              "too-short", "too-long"])
def test_validate_catches_corrupt_starts(starts):
    ens = Ensemble.from_particles([0.25] * 4, [0.0, 1.0, 2.0, 3.0], [0.0] * 4,
                                  Zero()).merged([(0, 2)])
    ens.validate()
    with pytest.raises(InvalidEnsembleError, match="starts"):
        dataclasses.replace(ens, starts=np.array(starts)).validate()


# -- quantile view -------------------------------------------------------


def test_to_quantile_step_semantics():
    ens = Ensemble.from_particles([0.25, 0.25, 0.5], [-1.0, 0.0, 2.0],
                                  [0.0, 0.0, 0.0], Zero())
    q = ens.to_quantile()
    np.testing.assert_allclose(q.breakpoints, [0.25, 0.5])
    # right-continuous: at a breakpoint the value jumps to the next cell
    assert q(0.1) == -1.0
    assert q(0.25) == 0.0
    assert q(0.49) == 0.0
    assert q(0.5) == 2.0
    assert q(0.99) == 2.0
    np.testing.assert_allclose(q.cell_widths, [0.25, 0.25, 0.5])


def test_quantile_validation():
    with pytest.raises(InvalidEnsembleError):
        QuantileFunction(np.array([0.5]), np.array([0.0]))  # size mismatch
    with pytest.raises(InvalidEnsembleError):
        QuantileFunction(np.array([0.7, 0.3]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(InvalidEnsembleError):
        QuantileFunction(np.array([0.3, 0.7]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(InvalidEnsembleError):
        QuantileFunction(np.array([0.0, 0.7]), np.array([0.0, 1.0, 2.0]))


@pytest.mark.parametrize("kernel", KERNEL_POOL, ids=lambda k: type(k).__name__)
def test_convolve_big_phi(rng, kernel):
    ens, _ = random_scenario(rng, 6, kernel=kernel)
    at = np.array([0.3, -1.0, 2.5, ens.positions[0], -0.2])  # unsorted, one on an atom
    direct = [sum(mj * kernel.big_phi(a - xj) for mj, xj in zip(ens.masses, ens.positions))
              for a in at]
    np.testing.assert_allclose(ens.convolve_big_phi(kernel, at), direct, rtol=1e-14)
    np.testing.assert_allclose(kernel.convolve(at, ens.positions, ens.masses), direct,
                               rtol=1e-14)
    assert ens.convolve_big_phi(kernel, 0.3) == pytest.approx(direct[0], rel=1e-14)
