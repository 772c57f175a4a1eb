"""Event-driven integrator: closed-form scenarios, ODE oracles, invariants."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from stickyalign import (
    AllToAll,
    CompactBump,
    Ensemble,
    Exponential,
    InvalidScenarioError,
    MergeEvent,
    NumericalAbortError,
    PowerLaw,
    Tolerances,
    Zero,
    cumulative_primitive,
    project_monotone,
    simulate,
)
from stickyalign import dynamics
from stickyalign.dynamics import (_A, _E, _ROWS, _attempt, _cascade, _error_norm,
                                  _first_trigger, _hermite, drift, step)
from stickyalign.verify import verify_record
from tests.conftest import (dyadic_masses, first_trigger_unfiltered, random_scenario,
                            sweep_envelope, validate_ensemble)


def two_body(m1, x1, v1, m2, x2, v2, kernel):
    return Ensemble.from_particles([m1, m2], [x1, x2], [v1, v2], kernel)


def gap_ode_oracle(ensemble, kernel, t_end, d_stop=1e-9):
    """Reference two-body gap trajectory d' = (psi_2 - psi_1) - Phi(d).

    Returns the scipy solution object; ``sol.t_events[0]`` holds the merge
    time if the gap reached ``d_stop``.
    """
    dpsi = float(ensemble.psi[1] - ensemble.psi[0])
    hit = lambda t, d: d[0] - d_stop
    hit.terminal = True
    hit.direction = -1
    return solve_ivp(lambda t, d: dpsi - kernel.big_phi(d[0]), (0.0, t_end),
                     [float(np.diff(ensemble.positions)[0])], events=hit,
                     rtol=1e-12, atol=1e-14, dense_output=True)


# -- closed forms --------------------------------------------------------


def test_head_on_free_pair():
    ens = two_body(0.5, -1.0, 1.0, 0.5, 1.0, -1.0, Zero())
    rec = simulate(ens, Zero(), 2.0, 0.25)
    assert len(rec.events) == 1
    ev = rec.events[0]
    assert ev.time == pytest.approx(1.0, abs=1e-9)
    assert ev.first_index == 0 and ev.last_index == 1
    assert ev.post_velocity == pytest.approx(0.0, abs=1e-13)
    final = rec.snapshots[-1]
    assert final.n_clusters == 1
    assert final.positions[0] == pytest.approx(0.0, abs=1e-9)


def test_linear_kernel_exponential_gap():
    # equal masses, K = 1, psi = 0: the gap solves g' = -g exactly
    ens = two_body(0.5, -1.0, 1.0, 0.5, 1.0, -1.0, AllToAll(1.0))
    rec = simulate(ens, AllToAll(1.0), 3.0, 0.5)
    assert rec.events == ()
    for t in (1.0, 2.0, 3.0):
        snap = rec.snapshot_at(t)
        gap = float(np.diff(snap.positions)[0])
        assert gap == pytest.approx(2.0 * np.exp(-t), rel=1e-8)


def test_free_flow_is_exact(rng):
    ens, _ = random_scenario(rng, 10, kernel=Zero(), min_gap=1.0)
    v0 = ens.psi.copy()
    rec = simulate(ens, Zero(), 0.5, 0.125)
    if rec.events:
        pytest.skip("random draw collided before t=0.5")
    for t, snap in zip(rec.times, rec.snapshots):
        np.testing.assert_allclose(snap.positions, ens.positions + t * v0,
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_array_equal(snap.velocities, v0)


def test_single_cluster_drifts():
    ens = Ensemble.from_particles([1.0], [0.5], [2.0], Exponential(1.0))
    rec = simulate(ens, Exponential(1.0), 1.0, 0.25)
    # Phi * rho vanishes at the lone cluster (Phi(0) = 0), so x' = psi
    assert rec.snapshots[-1].positions[0] == pytest.approx(0.5 + 2.0, rel=1e-12)


def test_soft_landing_critical_pair():
    """Critical two-body data (psi gap zero): sqrt(d) decreases at unit rate
    for the beta = 1/2 power kernel, so the contact time is sqrt(d_0)."""
    kernel = PowerLaw(1.0, 0.5, 1.0)
    d0 = 0.25
    v = 0.5 * kernel.big_phi(d0)
    ens = two_body(0.5, -d0 / 2, v, 0.5, d0 / 2, -v, kernel)
    np.testing.assert_allclose(ens.psi, [0.0, 0.0], atol=1e-15)
    rec = simulate(ens, kernel, 1.0, 0.25)
    assert len(rec.events) == 1
    assert rec.events[0].time == pytest.approx(np.sqrt(d0), abs=1e-5)
    assert rec.snapshots[-1].n_clusters == 1


def test_supercritical_pair_matches_gap_ode():
    kernel = PowerLaw(1.0, 0.5, 1.0)
    ens = two_body(0.5, -0.3, 0.9, 0.5, 0.3, -0.9, kernel)
    sol = gap_ode_oracle(ens, kernel, 2.0)
    assert sol.t_events[0].size == 1
    rec = simulate(ens, kernel, 2.0, 0.5)
    assert len(rec.events) == 1
    assert rec.events[0].time == pytest.approx(float(sol.t_events[0][0]), abs=1e-6)


def test_subcritical_pair_approaches_equilibrium():
    # psi gap positive but below sup Phi: the gap relaxes to Phi^{-1}(dpsi)
    kernel = Exponential(1.0)
    ens = two_body(0.5, -1.0, 0.4, 0.5, 1.0, -0.4, kernel)
    dpsi = float(ens.psi[1] - ens.psi[0])
    assert 0.0 < dpsi < kernel.big_phi_sup
    rec = simulate(ens, kernel, 30.0, 5.0)
    assert rec.events == ()
    gap = float(np.diff(rec.snapshots[-1].positions)[0])
    assert gap == pytest.approx(kernel.inv_big_phi(dpsi), abs=1e-6)

    sol = gap_ode_oracle(ens, kernel, 30.0)
    for t in (5.0, 10.0, 20.0):
        got = float(np.diff(rec.snapshot_at(t).positions)[0])
        assert got == pytest.approx(float(sol.sol(t)[0]), abs=1e-8)


# -- events and cascades -------------------------------------------------


def test_simultaneous_triple_collision_is_one_event():
    ens = Ensemble.from_particles([1 / 3, 1 / 3, 1 / 3], [-1.0, 0.0, 1.0],
                                  [1.0, 0.0, -1.0], Zero(), normalize=True)
    rec = simulate(ens, Zero(), 2.0, 0.5)
    assert len(rec.events) == 1
    ev = rec.events[0]
    assert (ev.first_index, ev.last_index) == (0, 2)
    assert ev.time == pytest.approx(1.0, abs=1e-9)
    assert ev.post_velocity == pytest.approx(0.0, abs=1e-12)


def test_sequential_collisions():
    ens = Ensemble.from_particles([1 / 3, 1 / 3, 1 / 3], [-1.0, 0.0, 1.0],
                                  [3.0, 0.0, -1.0], Zero(), normalize=True)
    rec = simulate(ens, Zero(), 1.0, 0.25)
    assert len(rec.events) == 2
    t1, t2 = rec.events[0].time, rec.events[1].time
    assert t1 == pytest.approx(1 / 3, abs=1e-9)
    assert t2 == pytest.approx(0.6, abs=1e-9)
    assert (rec.events[0].first_index, rec.events[0].last_index) == (0, 1)
    assert (rec.events[1].first_index, rec.events[1].last_index) == (0, 2)
    final = rec.snapshots[-1]
    assert final.n_clusters == 1
    assert final.velocities[0] == pytest.approx(2 / 3, abs=1e-12)


# -- the merge at one instant ---------------------------------------------

EPS = 1e-3  # contact scale handed to _cascade: pairs within 2 EPS are in contact


def events_of(table, cells) -> tuple[MergeEvent, ...]:
    """Event arrays as ``_cascade`` returns and a record holds them, as objects."""
    assert table.dtype == float and cells.dtype == np.int64
    assert table.shape == (len(cells), 3) and cells.shape == (len(cells), 2)
    return tuple(MergeEvent(t, i, j, v, psi)
                 for (t, v, psi), (i, j) in zip(table.tolist(), cells.tolist()))


def cascade(ens, t_ev, eps):
    """``_cascade`` with its event arrays read as :class:`MergeEvent` objects."""
    post, table, cells = _cascade(ens, t_ev, eps)
    return post, events_of(table, cells)


def at_instant(masses, positions, velocities) -> Ensemble:
    """One cell per cluster, with exactly these positions and velocities."""
    n = len(masses)
    base = Ensemble.from_particles(masses, np.arange(float(n)), velocities, Zero(),
                                   normalize=True)
    return base.evolved(positions, velocities)


def test_cascade_merges_overlapping_pair_even_if_separating():
    ens = at_instant([0.25, 0.75], [0.5, 0.5 - 0.5 * EPS], [-1.0, 1.0])
    post, events = cascade(ens, 2.0, EPS)
    assert post.n_clusters == 1
    assert [(ev.first_index, ev.last_index, ev.time) for ev in events] == [(0, 1, 2.0)]
    assert post.velocities[0] == pytest.approx(0.5, abs=1e-15)
    assert post.positions[0] == pytest.approx(0.5 - 0.375 * EPS, abs=1e-15)


def test_cascade_merges_contact_pair_with_equal_velocities():
    # masses for which the mass-weighted means (m v) / m round apart
    ens = at_instant([0.4, 0.6], [0.0, 1.5 * EPS], [0.7, 0.7])
    post, events = cascade(ens, 0.0, EPS)
    assert post.n_clusters == 1 and len(events) == 1
    assert events[0].post_velocity == post.velocities[0] == pytest.approx(0.7, abs=1e-15)


def test_cascade_leaves_separating_contact_pair_apart():
    ens = at_instant([0.5, 0.5], [0.0, 0.5 * EPS], [-0.1, 0.1])
    post, events = cascade(ens, 0.0, EPS)
    assert events == () and post is ens


def test_cascade_chain_resolves_in_one_call():
    # Pooling the closing pair gives 1.5 > 1.0, a new violation with the third
    # cluster, whose gap to the pooled barycentre (2.4 EPS) is past contact.
    ens = at_instant([1 / 3] * 3, [0.0, 1.8 * EPS, 3.3 * EPS], [3.0, 0.0, 1.0])
    post, events = cascade(ens, 0.0, EPS)
    assert post.n_clusters == 1
    assert [(ev.first_index, ev.last_index) for ev in events] == [(0, 2)]
    assert events[0].post_velocity == post.velocities[0] == pytest.approx(4 / 3, abs=1e-15)


def test_cascade_overlap_whose_barycentre_crosses_a_neighbour_takes_it_in():
    # clusters 1 and 2 overlap; their barycentre (-EPS) lies left of cluster 0
    ens = at_instant([1 / 3] * 3, [0.0, 3.0 * EPS, -5.0 * EPS], [-1.0, 1.0, 1.0])
    post, events = cascade(ens, 0.0, EPS)
    assert post.n_clusters == 1
    assert [(ev.first_index, ev.last_index) for ev in events] == [(0, 2)]
    assert post.velocities[0] == pytest.approx(1 / 3, abs=1e-15)


def test_cascade_pools_overlaps_before_the_contact_fit():
    # clusters 0 and 1 overlap and pool to velocity 0, below cluster 2 (0.5),
    # which is in contact but separating; fitting the raw velocities instead
    # would pool 1 and 0.5 and merge cluster 2 in too
    ens = at_instant([1 / 3] * 3, [0.0, -0.5 * EPS, 1.0 * EPS], [-1.0, 1.0, 0.5])
    post, events = cascade(ens, 0.0, EPS)
    assert [(ev.first_index, ev.last_index) for ev in events] == [(0, 1)]
    assert post.velocities.tolist() == [0.0, 0.5]


_gap = st.one_of(st.floats(0.05, 1.95).map(lambda g: g * EPS), st.just(1.0))


@given(st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0), _gap),
                min_size=2, max_size=12))
@settings(max_examples=300, deadline=None)
def test_cascade_is_the_isotonic_fit_on_each_contact_run(cells):
    """Against the hull sweep in conftest.py: after the merge, each cell
    velocity of a contact run is the slope of the lower convex envelope of
    the run's cumulative momentum over that cell, and momentum is conserved
    run by run."""
    weights, v, gaps = (np.array(c, dtype=float) for c in zip(*cells))
    x = np.concatenate(([0.0], np.cumsum(gaps[1:])))
    ens = at_instant(weights, x, v)
    m = ens.masses
    post, events = cascade(ens, 0.0, EPS)
    after = post.velocities[post.lineage]
    cuts = np.flatnonzero(gaps[1:] > 2.0 * EPS) + 1
    for a, b in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [v.size]))):
        env = sweep_envelope(cumulative_primitive(v[a:b], m[a:b]))
        nodes = np.concatenate(([0.0], np.cumsum(m[a:b])))
        np.testing.assert_allclose(after[a:b], np.diff(env(nodes)) / m[a:b],
                                   rtol=0, atol=1e-13)
        assert np.sum(m[a:b] * after[a:b]) == pytest.approx(np.sum(m[a:b] * v[a:b]),
                                                             rel=0, abs=1e-13)
    assert post.n_clusters == v.size - sum(ev.last_index - ev.first_index for ev in events)


# -- first-contact trigger ------------------------------------------------

TRIG_EPS = 1e-3
TRIG_S_TOL = 1e-12
TRIG_GRID = np.linspace(0.0, 1.0, 2049)[1:]
TRIG_SLACK = 1e-9  # rounding of the Hermite basis against the power basis


def hermite_gaps(s, x0, v0, x1, v1, h):
    """Adjacent gaps of the dense output at each s (rows) and gap (columns)."""
    return np.diff(_hermite(np.asarray(s, dtype=float)[:, None], x0, v0, x1, v1, h), axis=1)


_coord = st.floats(-10.0, 10.0)


@given(st.lists(st.tuples(st.one_of(st.floats(0.0, 2.0 * TRIG_EPS), st.floats(0.0, 2.0)),
                          _coord, _coord, _coord), min_size=2, max_size=8),
       st.floats(1e-3, 10.0))
@settings(max_examples=400, deadline=None)
def test_first_trigger_against_dense_grid(cells, h):
    """Against H sampled on a grid of (0, 1]: no trigger means no live gap
    reaches its threshold at a grid point; a trigger s means some live gap
    is at its threshold at s and none reaches it at a grid point before."""
    gaps, v0, v1, x1 = (np.array(c, dtype=float) for c in zip(*cells))
    x0 = np.cumsum(gaps)
    d = np.diff(x0)
    thr = np.where(d > TRIG_EPS, TRIG_EPS, 0.0)
    live = d > thr
    s = _first_trigger(x0, v0, x1, v1, h, TRIG_EPS, TRIG_S_TOL)
    reached = (hermite_gaps(TRIG_GRID, x0, v0, x1, v1, h) <= thr - TRIG_SLACK)[:, live]
    if s is None:
        assert not reached.any()
        return
    assert 0.0 < s <= 1.0
    assert np.any((hermite_gaps([s], x0, v0, x1, v1, h)[0] <= thr + TRIG_SLACK)[live])
    assert not reached[TRIG_GRID < s - TRIG_S_TOL].any()


def test_first_trigger_finds_a_dip_between_grid_points():
    # gap(s) = thr - delta + (s - c)^2 (1 + s - c): its only interior critical
    # point c lies halfway between two grid points, and the gap is below thr
    # only for |s - c| < 3.2e-5, a seventh of the grid spacing
    delta = 1e-9
    c = (1000 + 0.5) / TRIG_GRID.size
    u = np.polynomial.Polynomial([-c, 1.0])
    gap = u * u * (1.0 + u) + (TRIG_EPS - delta)
    slope = gap.deriv()
    h = 1.0
    x0, x1 = np.array([0.0, gap(0.0)]), np.array([0.0, gap(1.0)])
    v0, v1 = np.array([0.0, slope(0.0) / h]), np.array([0.0, slope(1.0) / h])
    assert np.all(hermite_gaps(TRIG_GRID, x0, v0, x1, v1, h) > TRIG_EPS)
    crossing = min(r.real for r in (gap - TRIG_EPS).roots() if abs(r.imag) < 1e-12 and r.real > 0)
    s = _first_trigger(x0, v0, x1, v1, h, TRIG_EPS, TRIG_S_TOL)
    assert s == pytest.approx(crossing, abs=1e-9)
    assert c - 3.2e-5 < s < c


def grazing_gap(rng, thr, h, top):
    """(d, g1, v0 gap, v1 gap) of a Hermite cubic whose lowest point grazes
    ``thr``: either its lowest Bernstein control point, or an interior local
    minimum, lies within a few ulp of the threshold (above or below).  The
    cubic rises at most about ``2 top`` above it."""
    scale = top * 10.0 ** rng.uniform(-6.0, 0.0)
    graze = thr + int(rng.integers(-6, 7)) * np.spacing(max(thr, scale, 1e-300))
    if rng.random() < 0.5:  # the k-th control point at the threshold
        p = graze + scale * rng.uniform(0.0, 2.0, size=4)
        p[rng.integers(4)] = graze
        d, g1, d_slope, g_slope = p[0], p[3], 3.0 * (p[1] - p[0]), 3.0 * (p[3] - p[2])
    else:  # H(s) = graze + alpha (s - s0)^2 + beta (s - s0)^3
        u0 = -rng.uniform(0.05, 0.95)  # s - s0 at s = 0; 1 + u0 at s = 1
        u1 = 1.0 + u0
        alpha, beta = scale, scale * rng.uniform(-0.5, 0.5)
        d, g1 = (graze + alpha * u * u + beta * u ** 3 for u in (u0, u1))
        d_slope, g_slope = (2.0 * alpha * u + 3.0 * beta * u * u for u in (u0, u1))
    return d, g1, d_slope / h, g_slope / h


def trigger_inputs(rng, grazing):
    """(x0, v0, x1, v1, h) of up to six gaps; zero-position cells between
    them keep every gap exact and add only negative (inactive) gaps."""
    h = 10.0 ** rng.uniform(-3.0, 1.0)
    rows = []
    for _ in range(int(rng.integers(1, 7))):
        live = rng.random() < 0.8
        if grazing:  # a contact-zone gap (thr = 0) starts inside (0, eps]
            rows.append(grazing_gap(rng, TRIG_EPS, h, 1.0) if live
                        else grazing_gap(rng, 0.0, h, 0.5 * TRIG_EPS))
        else:
            d = rng.uniform(2.0 * TRIG_EPS, 2.0) if live else rng.uniform(0.0, TRIG_EPS)
            rows.append((d, d + rng.normal(scale=0.5), rng.normal(), rng.normal()))
    gaps = np.array(rows)
    cells = lambda col: np.column_stack([np.zeros(len(rows)), col]).ravel()
    return cells(gaps[:, 0]), cells(gaps[:, 2]), cells(gaps[:, 1]), cells(gaps[:, 3]), h


@pytest.mark.parametrize("grazing", [False, True])
def test_first_trigger_matches_the_unfiltered_oracle(grazing):
    """The control-point prefilter drops only gaps that cannot trigger: on
    random and on grazing cubics the result equals the unfiltered vector
    form's bit for bit (or both are None)."""
    rng = np.random.default_rng([17, grazing])
    found = 0
    for _ in range(3000):
        x0, v0, x1, v1, h = trigger_inputs(rng, grazing)
        want = first_trigger_unfiltered(x0, v0, x1, v1, h, TRIG_EPS, TRIG_S_TOL)
        assert _first_trigger(x0, v0, x1, v1, h, TRIG_EPS, TRIG_S_TOL) == want
        found += want is not None
    assert 300 < found < 2700  # both outcomes are well represented


def test_stage_rows_sum_like_the_sequential_loop():
    """An axis-0 sum of the weighted stage rows adds them one by one in
    tableau order, starting from +0.0, as an in-place loop from zero does:
    equal bit for bit, signed zeros included, where a different order (the
    reversed loop) does not round the same."""
    rng = np.random.default_rng(23)
    reordered = 0
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        k = rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(7, 1))
        k[rng.random(k.shape) < 0.1] = 0.0
        k[rng.random(k.shape) < 0.1] = -0.0
        for row in _ROWS:
            terms = row[:, None] * k[:row.size]
            want = np.zeros(n)
            for term in terms:
                want += term
            backward = np.zeros(n)
            for term in terms[::-1]:
                backward += term
            assert terms.sum(axis=0).tobytes() == want.tobytes()
            reordered += backward.tobytes() != want.tobytes()
    assert reordered > 0


def test_fsal_hands_on_rhs_at_the_step_start(monkeypatch):
    """Each k1 that ``_integrate`` hands to ``step`` is the right-hand side at
    the step's start bit for bit; a run that recomputes every k1 gives the
    same record with one more evaluation per hand-on."""
    kernel = PowerLaw(c=1.0, beta=0.5, R=1.0)
    rng = np.random.default_rng(5)
    ens = Ensemble.from_particles(dyadic_masses(rng, 30), np.sort(rng.normal(size=30)),
                                  rng.normal(size=30), kernel)
    inner, make_rhs = dynamics.step, dynamics._make_rhs
    handed = []

    def handing_on(ensemble, kern, *args, _k1=None, **kwargs):
        if _k1 is not None:
            rhs = make_rhs(ensemble.masses, ensemble.psi, kern)
            handed.append(_k1.tobytes() == rhs(ensemble.positions).tobytes())
        return inner(ensemble, kern, *args, _k1=_k1, **kwargs)

    monkeypatch.setattr(dynamics, "step", handing_on)
    rec = simulate(ens, kernel, 4.0, 0.25)
    monkeypatch.setattr(dynamics, "step", lambda *args, _k1=None, **kwargs: inner(*args, **kwargs))
    fresh = simulate(ens, kernel, 4.0, 0.25)
    assert len(rec.events) > 5 and rec.stats["accepted"] > len(handed) > 0 and all(handed)
    assert fresh.stats == dict(rec.stats, rhs_evals=rec.stats["rhs_evals"] + len(handed))
    assert fresh.events == rec.events
    for a, b in zip(fresh.snapshots, rec.snapshots):
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.velocities.tobytes() == b.velocities.tobytes()
    assert fresh.phi_integrals.tobytes() == rec.phi_integrals.tobytes()
    assert fresh.v2_integrals.tobytes() == rec.v2_integrals.tobytes()


def test_attempt_sums_stages_like_the_builtin_sum():
    """Stages summed in place from zero equal the builtin ``sum`` over the
    same terms in the same order, bit for bit (signed zeros included): the
    right-hand side sees the same stage states and the step the same output."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        seen = []

        def rhs(x):
            seen.append(x.tobytes())
            return np.sin(3.0 * x) - x * x

        x0 = rng.normal(size=20)
        x0[:2] = (0.0, -0.0)
        h = float(rng.uniform(1e-4, 0.5))
        k = [rhs(x0)]
        for i in range(1, 6):
            k.append(rhs(x0 + h * sum(a * kj for a, kj in zip(_A[i], k))))
        x1 = x0 + h * sum(b * kj for b, kj in zip(_A[6], k))
        k.append(rhs(x1))
        err = h * sum(e * kj for e, kj in zip(_E, k))
        want, seen = seen, [seen[0]]
        got = _attempt(x0, k[0], h, rhs)
        assert seen == want
        for a, b in zip(got, (x1, k[6], err)):
            assert a.tobytes() == b.tobytes()


def linear_flow_velocities(ens, kernel, t):
    """Velocities at t of the initial clusters under Zero or AllToAll flowing
    freely: the flow is linear in (m, m x, m psi), so a merged cluster moves
    as the pool of its initial clusters, v = psibar + e^{-K't} (q - K' y)."""
    m = ens.masses
    k = kernel.K * float(np.sum(m)) if isinstance(kernel, AllToAll) else 0.0
    y = ens.positions - np.sum(m * ens.positions) / np.sum(m)
    psi_bar = np.sum(m * ens.psi) / np.sum(m)
    return psi_bar + np.exp(-k * t) * (ens.psi - psi_bar - k * y)


def test_event_bookkeeping(rng, monkeypatch):
    parents = {}  # event -> masses and velocities of the clusters its cascade pooled

    def spy(ens, t_ev, eps):
        out = _cascade(ens, t_ev, eps)
        for ev in events_of(*out[1:]):
            a, b = ens.starts.searchsorted((ev.first_index, ev.last_index + 1))
            parents[ev] = ens.masses[a:b], ens.velocities[a:b]
        return out

    monkeypatch.setattr(dynamics, "_cascade", spy)
    for _ in range(5):
        ens, kernel = random_scenario(rng, 25)
        rec = simulate(ens, kernel, 4.0, 1.0)
        times = [ev.time for ev in rec.events]
        assert times == sorted(times)
        for ev in rec.events:
            assert 0 <= ev.first_index <= ev.last_index < ens.n_cells
            # merged velocity is the momentum-conserving pool of the parents
            if isinstance(kernel, (Zero, AllToAll)):
                a, b = ens.starts.searchsorted((ev.first_index, ev.last_index + 1))
                w = ens.masses[a:b]
                v = linear_flow_velocities(ens, kernel, ev.time)[a:b]
            else:
                w, v = parents[ev]
            assert ev.post_velocity == pytest.approx(
                float(np.sum(w * v) / np.sum(w)), rel=1e-12, abs=1e-13)
            cells = slice(ev.first_index, ev.last_index + 1)
            cm = ens.cell_masses[cells]
            assert ev.post_psi == pytest.approx(
                float(np.sum(cm * ens.cell_psi[cells]) / np.sum(cm)), rel=1e-12)


def test_partitions_only_coarsen(rng):
    for _ in range(5):
        ens, kernel = random_scenario(rng, 30)
        rec = simulate(ens, kernel, 5.0, 0.5)
        prev_bounds = None
        for snap in rec.snapshots:
            bounds = set(snap.starts.tolist())
            if prev_bounds is not None:
                assert bounds <= prev_bounds  # once stuck, always stuck
            prev_bounds = bounds
        counts = [s.n_clusters for s in rec.snapshots]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_conservation_laws(rng):
    for _ in range(5):
        n = int(rng.integers(5, 40))
        m = dyadic_masses(rng, n)
        x = np.sort(rng.normal(scale=1.5, size=n))
        while np.any(np.diff(x) < 1e-4):
            x = np.sort(rng.normal(scale=1.5, size=n))
        v = rng.normal(size=n)
        ens = Ensemble.from_particles(m, x, v, Exponential(0.9))
        rec = simulate(ens, Exponential(0.9), 5.0, 1.0)
        p0 = ens.momentum()
        for snap in rec.snapshots:
            assert float(np.sum(snap.masses)) == 1.0  # dyadic: exact
            assert snap.momentum() == pytest.approx(p0, abs=1e-10)
            validate_ensemble(snap)


def test_mirror_symmetry():
    ens = Ensemble.from_particles([0.25, 0.25, 0.25, 0.25],
                                  [-2.0, -0.5, 0.5, 2.0],
                                  [1.0, -1.0, 1.0, -1.0], Exponential(1.0))
    rec = simulate(ens, Exponential(1.0), 3.0, 0.5)
    for snap in rec.snapshots:
        x = snap.positions
        np.testing.assert_allclose(x, -x[::-1], atol=1e-9)


def test_determinism(rng):
    ens, kernel = random_scenario(rng, 20)
    rec1 = simulate(ens, kernel, 3.0, 0.5)
    rec2 = simulate(ens, kernel, 3.0, 0.5)
    assert [ev.time for ev in rec1.events] == [ev.time for ev in rec2.events]
    for s1, s2 in zip(rec1.snapshots, rec2.snapshots):
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.velocities, s2.velocities)
    np.testing.assert_array_equal(rec1.phi_integrals, rec2.phi_integrals)


# -- record structure ----------------------------------------------------


def test_snapshot_grid():
    ens = two_body(0.5, -1.0, 0.1, 0.5, 1.0, -0.1, Zero())
    rec = simulate(ens, Zero(), 1.0, 0.25)
    np.testing.assert_allclose(rec.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(rec.snapshots) == 5
    assert rec.phi_integrals.shape == (2,)
    assert rec.v2_integrals.shape == (5,)
    assert rec.initial is ens
    # non-divisible horizon gets a trailing partial node
    rec2 = simulate(ens, Zero(), 1.1, 0.25)
    np.testing.assert_allclose(rec2.times, [0.0, 0.25, 0.5, 0.75, 1.0, 1.1])


def test_lookup_helpers():
    ens = two_body(0.5, -1.0, 1.0, 0.5, 1.0, -1.0, Zero())
    rec = simulate(ens, Zero(), 2.0, 0.5)
    assert rec.snapshot_at(1.5) is rec.snapshots[3]
    assert rec.snapshot_at(0.0) is rec.snapshots[0]
    assert rec.snapshot_at(2.0).bounds.tolist() == [0, 2]
    assert rec.snapshot_at(0.5).bounds.tolist() == [0, 1, 2]
    for t in (0.3, float("nan")):
        with pytest.raises(KeyError):
            rec.snapshot_at(t)


def test_accumulators(rng):
    ens, _ = random_scenario(rng, 8, kernel=Zero())
    rec = simulate(ens, Zero(), 2.0, 0.25)
    np.testing.assert_array_equal(rec.phi_integrals, 0.0)  # Phi identically 0
    assert rec.v2_integrals[0] == 0.0
    assert np.all(np.diff(rec.v2_integrals) >= 0.0)
    # free flow between events: the v^2 integral is piecewise linear in t and
    # the left rule sums it exactly on the node grid
    if not rec.events:
        expect = rec.times * float(np.sum(ens.masses * ens.psi ** 2))
        np.testing.assert_allclose(rec.v2_integrals, expect, rtol=1e-12)


def test_step_result_contract(rng):
    ens, kernel = random_scenario(rng, 6)
    res = step(ens, kernel, 0.1)
    assert 0.0 < res.dt_taken <= 0.1
    assert res.dt_next > 0.0
    assert res.ensemble.n_cells == ens.n_cells
    np.testing.assert_allclose(res.ensemble.velocities,
                               drift(res.ensemble, kernel), rtol=1e-12, atol=1e-12)


def test_contact_cap_keeps_the_hinted_step():
    # a fast closing pair caps the step at its time to contact (0.05), far
    # below the hint; the capped trial passes, so the next step starts from
    # the hint and not from 5 times the capped step
    ens = two_body(0.5, -1.0, 20.0, 0.5, 1.0, -20.0, Zero())
    dt_hint = 1.0
    res = step(ens, Zero(), 10.0, t=0.0, dt_hint=dt_hint)
    assert res.capped and res.rejected == 0
    assert res.dt_taken == pytest.approx(0.05)
    assert len(res.events) == 1
    assert res.dt_next >= dt_hint


@pytest.mark.parametrize("dt_hint", [1e-3, 5.0])
def test_uncapped_step_keeps_the_error_controller(dt_hint):
    # a separating pair never caps; dt_next is h * factor of the accepted h,
    # after a rejection (the large hint) as well as without one
    kernel = Exponential(1.0)
    ens = two_body(0.5, -1.0, -1.0, 0.5, 1.0, 1.0, kernel)
    res = step(ens, kernel, 10.0, t=0.0, dt_hint=dt_hint)
    assert not res.capped and not res.events
    assert (res.rejected > 0) == (dt_hint > 1.0)
    h = res.dt_taken
    x0 = ens.positions
    x1, _, err = _attempt(x0, drift(ens, kernel), h, dynamics._make_rhs(ens.masses, ens.psi, kernel))
    errnorm = _error_norm(err, x0, x1, Tolerances())
    assert res.dt_next == h * min(5.0, max(0.2, 0.9 * errnorm ** -0.2))


def test_step_count_regression(monkeypatch):
    # the contact cap no longer resets the step size: 280 steps here, where
    # regrowing from every capped step took 549; the solver counts of the
    # record agree with wrappers around step and the right-hand side
    kernel = PowerLaw(c=1.0, beta=0.5, R=1.0)
    rng = np.random.default_rng(7)
    x = np.sort(rng.normal(size=40))
    v = rng.normal(size=40)
    ens = Ensemble.from_particles(np.full(40, 1.0 / 40), x, v, kernel)
    results, rhs_calls = [], []
    inner, make_rhs = dynamics.step, dynamics._make_rhs

    def counting_rhs(*args):
        rhs = make_rhs(*args)
        return lambda y: rhs_calls.append(1) or rhs(y)

    monkeypatch.setattr(dynamics, "_make_rhs", counting_rhs)
    monkeypatch.setattr(dynamics, "step",
                        lambda *a, **kw: results.append(inner(*a, **kw)) or results[-1])
    rec = simulate(ens, kernel, 4.0, 0.25)
    assert len(results) < 350
    assert len(rec.events) == 26
    assert rec.stats == {"accepted": len(results),
                         "rejected": sum(r.rejected for r in results),
                         "rhs_evals": len(rhs_calls),
                         "capped": sum(r.capped for r in results),
                         "events": sum(len(r.events) for r in results)}
    assert rec.stats["rejected"] > 0 and rec.stats["capped"] > 0


def test_hand_on_keeps_compact_bump_accuracy():
    # the kink of Phi at |d| = r is where the embedded error estimate is least
    # reliable, so longer steps after contact caps could show there first; on
    # these 24 scenarios regrowing from every capped step gives a median of
    # 3.3e-7 and a largest error of 2.5e-6 against a run at tight tolerances
    kernel = CompactBump(1.0, 2.0)
    errors = []
    for j in range(24):
        ens, _ = random_scenario(np.random.default_rng([4, j]), 59, kernel=kernel)
        pos = [np.stack([s.positions[s.lineage] for s in simulate(ens, kernel, 4.0, 0.25, tol).snapshots])
               for tol in (None, Tolerances(1e-13, 1e-12))]
        errors.append(np.max(np.abs(pos[0] - pos[1])))
    assert np.median(errors) < 4e-7
    assert np.max(errors) < 3e-6


def test_drift_formula(rng):
    ens, kernel = random_scenario(rng, 5)
    d = drift(ens, kernel)
    direct = [ens.psi[i] - sum(ens.masses[j] * kernel.big_phi(ens.positions[i] - ens.positions[j])
                               for j in range(ens.n_clusters))
              for i in range(ens.n_clusters)]
    np.testing.assert_allclose(d, direct, rtol=1e-13, atol=1e-14)


# -- the closed form of the linear kernels ---------------------------------

_linear_cells = st.lists(st.tuples(st.integers(1, 8), st.floats(0.01, 1.0), st.floats(-2.0, 2.0)),
                         min_size=2, max_size=60)


@given(_linear_cells, st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_the_integrator(cells, K):
    """``simulate`` solves Zero and AllToAll without a time stepper; the
    stepper, run at tolerances that keep its own error below the bounds,
    finds the same merges, at the same times and velocities."""
    weights, gaps, v = (np.array(c, dtype=float) for c in zip(*cells))
    kernel = AllToAll(K) if K else Zero()
    ens = Ensemble.from_particles(weights, np.cumsum(gaps), v, kernel, normalize=True)
    rec = simulate(ens, kernel, 2.0, 0.25)
    ref = dynamics._integrate(ens, kernel, 2.0, 0.25, Tolerances(1e-13, 1e-12))
    assert rec.stats == {"accepted": 0, "rejected": 0, "rhs_evals": 0, "capped": 0,
                         "events": len(rec.events)}
    assert [s.starts.tolist() for s in rec.snapshots] == [s.starts.tolist() for s in ref.snapshots]
    for s, r in zip(rec.snapshots, ref.snapshots):
        np.testing.assert_allclose(s.positions, r.positions, rtol=0, atol=1e-8)
    # a cell range merges once; events of one instant may come in either order
    by_range = lambda events: sorted(events, key=lambda e: (e.first_index, e.last_index))
    got, want = by_range(rec.events), by_range(ref.events)
    assert [(e.first_index, e.last_index) for e in got] == [(e.first_index, e.last_index)
                                                             for e in want]
    for e, f in zip(got, want):
        assert abs(e.time - f.time) <= 1e-9
        assert abs(e.post_velocity - f.post_velocity) <= 1e-8
    assert all(r.passed for r in verify_record(rec))


def test_closed_form_merges_nothing_after_the_last_node():
    # t_end lies 5e-10 past the last node and the pair touches in between:
    # like the stepper, the closed form stops at the last snapshot
    kernel = Zero()
    speed = 1.0 / (1.0 - 2e-10)
    ens = two_body(0.5, -1.0, speed, 0.5, 1.0, -speed, kernel)
    snapshot_dt = (1.0 - 5e-10) / 2.0
    rec = simulate(ens, kernel, 1.0, snapshot_dt)
    assert rec.times[-1] < 1.0 and rec.events == ()
    assert dynamics._integrate(ens, kernel, 1.0, snapshot_dt).events == ()


def test_closed_form_all_to_all_stays_finite_at_large_k_t():
    # K t reaches 2000: exp(K t) overflows, so the solver works with expm1(-K t)
    rng = np.random.default_rng(10)
    kernel = AllToAll(10.0)
    ens, _ = random_scenario(rng, 30, kernel=kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = simulate(ens, kernel, 200.0, 10.0)
        results = verify_record(rec)
    assert rec.events and all(r.passed for r in results)
    for snap in rec.snapshots:
        assert np.all(np.isfinite(snap.positions)) and np.all(np.isfinite(snap.velocities))
    assert np.all(np.isfinite(rec.phi_integrals)) and np.all(np.isfinite(rec.v2_integrals))


def test_closed_form_zero_collapse_at_large_n():
    # X_t = P(X_0 + t psi): every snapshot is the isotonic fit of free flight
    rng = np.random.default_rng(11)
    n = 10_000
    m = dyadic_masses(rng, n)
    x = np.sort(rng.normal(size=n))
    ens = Ensemble.from_particles(m, x, -x + rng.uniform(-0.25, 0.25, size=n), Zero())
    start = time.perf_counter()
    rec = simulate(ens, Zero(), 4.0, 0.25)
    assert time.perf_counter() - start < 2.0
    assert len(rec.events) > n // 2
    for t, snap in zip(rec.times, rec.snapshots):
        free = ens.cell_positions + t * ens.cell_psi
        np.testing.assert_allclose(snap.positions[snap.lineage], project_monotone(free, m),
                                   rtol=0, atol=1e-12 * (1.0 + np.max(np.abs(free))))


# -- failure modes -------------------------------------------------------


def test_invalid_horizons():
    ens = two_body(0.5, -1.0, 0.0, 0.5, 1.0, 0.0, Zero())
    with pytest.raises(InvalidScenarioError):
        simulate(ens, Zero(), 0.0, 0.1)
    with pytest.raises(InvalidScenarioError):
        simulate(ens, Zero(), 1.0, -0.1)
    with pytest.raises(InvalidScenarioError):
        step(ens, Zero(), 0.0)


@pytest.mark.parametrize("t_end, snapshot_dt", [
    (float("nan"), 0.25), (float("inf"), 0.25), (1.0, float("nan")), (1.0, float("inf"))])
def test_non_finite_horizons_refused(t_end, snapshot_dt):
    ens = two_body(0.5, -1.0, 0.0, 0.5, 1.0, 0.0, Zero())
    with pytest.raises(InvalidScenarioError, match="finite"):
        simulate(ens, Zero(), t_end, snapshot_dt)


def test_unattainable_tolerance_aborts():
    # a genuinely moving state (v = 0 would sit at an equilibrium of the
    # frozen-psi flow and never produce truncation error at all)
    kernel = Exponential(1.0)
    ens = two_body(0.5, -1.0, 0.3, 0.5, 1.0, -0.1, kernel)
    with pytest.raises(NumericalAbortError, match="underflow"):
        simulate(ens, kernel, 1.0, 0.5, Tolerances(atol=1e-300, rtol=1e-300))


def test_tolerance_refinement_tightens_gap_error():
    kernel = Exponential(1.0)
    ens = two_body(0.5, -1.0, 0.4, 0.5, 1.0, -0.4, kernel)
    sol = gap_ode_oracle(ens, kernel, 4.0)
    errs = []
    for tol in (Tolerances(1e-6, 1e-5), Tolerances(1e-12, 1e-11)):
        rec = simulate(ens, kernel, 4.0, 1.0, tol)
        got = float(np.diff(rec.snapshot_at(4.0).positions)[0])
        errs.append(abs(got - float(sol.sol(4.0)[0])))
    assert errs[1] <= errs[0]
    assert errs[1] < 1e-9
