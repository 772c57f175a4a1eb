"""End-to-end acceptance checks: closed-form scenarios, independent oracles,
and the structural inequalities of the model, each with its stated tolerance
and runtime budget.  One test function per criterion.
"""

import math
import time

import numpy as np
import pytest

from stickyalign import (
    AllToAll,
    Ensemble,
    Exponential,
    Forecast,
    PowerLaw,
    RegionLabel,
    Zero,
    analyze,
    flocking_thresholds,
    predicted_partition,
    project_monotone,
    simulate,
    wasserstein,
)
from stickyalign.verify import (
    check_barycentric,
    check_conservation,
    check_dissipation,
    check_oleinik_entropy,
    check_projection_formula,
    check_stickiness,
    convergence_study,
)
from tests.conftest import (KERNEL_POOL, cell_ranges, dyadic_masses, ensemble_with_psi,
                            random_scenario)
from tests.test_metrics import as_quantile, lp_wasserstein, random_atoms


def test_criterion_01_head_on_merge():
    ens = Ensemble.from_particles([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], Zero())
    start = time.perf_counter()
    rec = simulate(ens, Zero(), 2.0, 0.5)
    elapsed = time.perf_counter() - start
    assert len(rec.events) == 1
    ev = rec.events[0]
    assert abs(ev.time - 1.0) <= 1e-6
    assert abs(ev.post_velocity) <= 1e-12
    final = rec.snapshots[-1]
    assert final.n_clusters == 1
    assert abs(final.positions[0]) <= 1e-9
    assert elapsed < 0.1


def test_criterion_02_exponential_approach():
    kernel = AllToAll(1.0)
    ens = Ensemble.from_particles([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
    start = time.perf_counter()
    rec = simulate(ens, kernel, 10.0, 1.0)
    elapsed = time.perf_counter() - start
    assert rec.events == []
    for t in (1.0, 2.0, 3.0):
        gap = float(np.diff(rec.snapshot_at(t).positions)[0])
        exact = 2.0 * math.exp(-t)
        assert abs(gap - exact) / exact <= 1e-6
    analysis = analyze(ens, kernel)
    assert len(analysis.subgroups) == 1
    assert analysis.subgroups[0].forecast is Forecast.INFINITE_TIME_CLUSTER
    assert elapsed < 0.1


def test_criterion_03_conservation_n100():
    rng = np.random.default_rng(0xC3)
    n = 100
    m = dyadic_masses(rng, n)
    x = np.sort(rng.normal(scale=1.5, size=n)) + np.arange(n) * 1e-4
    v = rng.normal(scale=1.5, size=n)
    kernel = Exponential(0.9)
    ens = Ensemble.from_particles(m, x, v, kernel)
    start = time.perf_counter()
    rec = simulate(ens, kernel, 10.0, 1.0)
    elapsed = time.perf_counter() - start
    p0 = ens.momentum()
    for snap in rec.snapshots:
        assert float(np.sum(snap.masses)) == 1.0  # dyadic masses: drift is 0 exactly
        assert abs(snap.momentum() - p0) <= 1e-10
    counts = [s.n_clusters for s in rec.snapshots]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    stick = check_stickiness(rec)
    assert stick.passed and stick.residual == 0.0
    assert check_conservation(rec).passed
    assert elapsed < 5.0


def _qp_isotonic_oracle(values, weights, max_iter=20000):
    """Weighted isotonic fit by accelerated projected gradient on the dual QP.

    Primal: min 1/2 sum w (x - v)^2 over nondecreasing x.  The dual variable
    is one multiplier per ordering constraint with feasible set lambda >= 0,
    so the projection step is a clip; x = v + W^{-1} D^T lambda.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = v.size
    if n == 1:
        return v.copy()
    D = np.diff(np.eye(n), axis=0)
    Q = D @ np.diag(1.0 / w) @ D.T
    b = D @ v
    L = float(np.linalg.eigvalsh(Q)[-1])
    lam = np.zeros(n - 1)
    y = lam
    t_acc = 1.0
    f_prev = math.inf
    for _ in range(max_iter):
        new = np.maximum(0.0, y - (Q @ y + b) / L)
        f = 0.5 * float(new @ Q @ new) + float(new @ b)
        if f > f_prev:  # adaptive restart keeps the momentum honest
            y = lam
            t_acc = 1.0
            new = np.maximum(0.0, y - (Q @ y + b) / L)
            f = 0.5 * float(new @ Q @ new) + float(new @ b)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = new + ((t_acc - 1.0) / t_next) * (new - lam)
        if np.max(np.abs(new - lam)) <= 1e-14 * (1.0 + np.max(np.abs(new))):
            lam = new
            break
        lam, t_acc, f_prev = new, t_next, f
    return v + (D.T @ lam) / w


def test_criterion_04_isotonic_oracle():
    np.testing.assert_allclose(_qp_isotonic_oracle([2.0, 1.0], [1.0, 1.0]),
                               [1.5, 1.5], atol=1e-12)
    np.testing.assert_allclose(_qp_isotonic_oracle([4.0, 1.0], [1.0, 2.0]),
                               [2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(_qp_isotonic_oracle([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
                               [2.0, 2.0, 2.0], atol=1e-12)

    rng = np.random.default_rng(0xC4)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.3, 3.0, size=n)
        v = rng.normal(scale=2.0, size=n)
        u = rng.normal(scale=2.0, size=n)
        pv = project_monotone(v, weights=w)
        np.testing.assert_allclose(pv, _qp_isotonic_oracle(v, w), atol=1e-8)
        # contraction in the weighted L1/L2/Linf norms, and mean preservation
        pu = project_monotone(u, weights=w)
        dv = np.abs(pv - pu)
        d0 = np.abs(v - u)
        assert float(np.sum(w * dv)) <= float(np.sum(w * d0)) + 1e-10
        assert float(np.sum(w * dv ** 2)) <= float(np.sum(w * d0 ** 2)) + 1e-10
        assert float(np.max(dv)) <= float(np.max(d0)) + 1e-10
        assert float(np.sum(w * pv)) == pytest.approx(float(np.sum(w * v)), rel=1e-12,
                                                      abs=1e-12)


def test_criterion_05_barycentric_oleinik_on_merges():
    rng = np.random.default_rng(0xC5)
    total_events = 0
    for _ in range(100):
        ens, kernel = random_scenario(rng, 50)
        rec = simulate(ens, kernel, 4.0, 1.0)
        total_events += len(rec.events)
        for check in (check_barycentric, check_oleinik_entropy):
            res = check(rec)
            assert res.passed, res
    assert total_events > 100  # the sweep actually exercised merges


def _projection_residuals(ens, kernel, dts):
    out = []
    for dt in dts:
        rec = simulate(ens, kernel, 2.0, dt)
        out.append(check_projection_formula(rec).residual)
    return out


def test_criterion_06_projection_formula_refinement():
    # Zero kernel: the interaction integral vanishes identically, so the
    # formula is exact at every resolution (error at the integrator's floor)
    ens = Ensemble.from_particles([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], Zero())
    errs = _projection_residuals(ens, Zero(), (0.5, 0.25))
    assert all(e <= 1e-10 for e in errs)

    # linear kernel: the left-rule accumulator dominates and halves with dt.
    # (On grids coarser than 0.25 the quadrature error exceeds the cell gap,
    # the monotone projection pools the reconstruction, and the residual
    # saturates at the gap size instead of tracking dt.)
    kernel = AllToAll(1.0)
    ens = Ensemble.from_particles([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], kernel)
    e1, e2, e3 = _projection_residuals(ens, kernel, (0.25, 0.125, 0.0625))
    assert 1.5 <= e1 / e2 <= 3.0
    assert 1.5 <= e2 / e3 <= 3.0


def test_criterion_07_dissipation_refinement():
    rng = np.random.default_rng(0xC7)
    for _ in range(10):
        ens, kernel = random_scenario(rng, 10)
        res = {}
        for dt in (0.2, 0.1):
            rec = simulate(ens, kernel, 2.0, dt)
            check = check_dissipation(rec)
            assert check.passed  # within C * dt with the checker's calibrated C
            res[dt] = check.residual
        assert res[0.1] <= 0.75 * res[0.2] + 1e-9


def test_criterion_08_stability_estimate():
    rng = np.random.default_rng(0xC8)

    def draw(n, m, kernel):
        x = np.sort(rng.normal(scale=1.5, size=n)) + np.arange(n) * 1e-4
        v = rng.normal(scale=1.5, size=n)
        return Ensemble.from_particles(m, x, v, kernel)

    def cell_dist(m, s1, s2):
        d = s1.positions[s1.lineage] - s2.positions[s2.lineage]
        return math.sqrt(float(np.sum(m * d * d)))

    for _ in range(50):
        n = int(rng.integers(2, 21))
        m = dyadic_masses(rng, n)
        kernel = KERNEL_POOL[int(rng.integers(len(KERNEL_POOL)))]
        e1 = draw(n, m, kernel)
        e2 = draw(n, m, kernel)
        rec1 = simulate(e1, kernel, 2.0, 0.5)
        rec2 = simulate(e2, kernel, 2.0, 0.5)
        psi_dist = math.sqrt(float(np.sum(m * (e1.cell_psi - e2.cell_psi) ** 2)))
        dists = [cell_dist(m, s1, s2) for s1, s2 in zip(rec1.snapshots, rec2.snapshots)]
        times = rec1.times
        for i in range(len(times)):
            for j in range(i, len(times)):
                assert dists[j] <= dists[i] + (times[j] - times[i]) * psi_dist + 1e-6


def test_criterion_09_convergence_study():
    def sampler(n):
        mids = (np.arange(n) + 0.5) / n
        return Ensemble.from_particles(np.full(n, 1.0 / n), mids, 0.5 - mids, Zero())

    start = time.perf_counter()
    study = convergence_study(sampler, [8, 16, 32, 64],
                              np.arange(0.0, 2.25, 0.25), Zero())
    elapsed = time.perf_counter() - start
    assert study.monotone  # sup_t W2 nonincreasing in N within 10% slack
    for row in study.rows:
        assert row.passed
        assert row.sup_w2 <= row.bound
    assert study.passed
    assert elapsed < 30.0


def test_criterion_10_forecast_matches_simulation():
    rng = np.random.default_rng(0xCA)
    start = time.perf_counter()

    def draw(kernel, denom_pow):
        n = int(rng.integers(3, 13))
        m = dyadic_masses(rng, n, denom_pow=denom_pow)
        x = np.sort(rng.normal(scale=1.0, size=n)) + np.arange(n) * 1e-3
        v = rng.normal(scale=1.5, size=n)
        return Ensemble.from_particles(m, x, v, kernel)

    # singular-origin kernel: at a horizon ~ 50/min-mass the realized
    # partition must equal the forecast exactly.  Small c keeps the stiff
    # near-equilibrium modes (rate ~ c^2/gap in psi) mild enough for the
    # explicit stepper over these long horizons.
    kernel = PowerLaw(0.3, 0.5, 1.0)
    for _ in range(100):
        ens = draw(kernel, denom_pow=5)  # min mass >= 1/32 keeps T bounded
        horizon = 50.0 / float(np.min(ens.cell_masses))
        rec = simulate(ens, kernel, horizon, horizon / 4.0)
        expected = predicted_partition(analyze(ens, kernel), ens)
        assert cell_ranges(rec.snapshot_at(horizon)) == expected

    # bounded fat-tail kernel at a finite horizon: merges may be incomplete
    # but can only happen inside supercritical runs or initial clusters
    kernel = AllToAll(1.0)
    for _ in range(100):
        ens = draw(kernel, denom_pow=6)
        labels = analyze(ens, kernel).cell_labels
        initial_bond = ens.lineage[1:] == ens.lineage[:-1]
        rec = simulate(ens, kernel, 8.0, 2.0)
        for ev in rec.events:
            for i in range(ev.first_index, ev.last_index):
                admissible = (labels[i] is RegionLabel.SUPERCRITICAL
                              and labels[i + 1] is RegionLabel.SUPERCRITICAL) \
                    or bool(initial_bond[i])
                assert admissible, (ev, i, labels)
    assert time.perf_counter() - start < 60.0


def test_criterion_11_flocking_regimes():
    # thin tail: psi gap 3 against phi L1 norm 2 forces linear divergence
    kernel = Exponential(1.0)
    ens = ensemble_with_psi([0.5, 0.5], [-1.0, 1.0], [-1.5, 1.5], kernel)
    th = flocking_thresholds(analyze(ens, kernel), 0, 1)
    assert th.rate == pytest.approx(1.0)
    rec = simulate(ens, kernel, 10.0, 2.5)
    gap = lambda t: float(np.diff(rec.snapshot_at(t).positions)[0])
    assert (gap(10.0) - gap(5.0)) / 5.0 >= 1.0 - 1e-3

    # fat tail: the outer-edge distance stays below the primitive's threshold
    kernel = AllToAll(1.0)
    ens = Ensemble.from_particles([0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5], kernel)
    th = flocking_thresholds(analyze(ens, kernel), 0, 1)
    assert th.upper == pytest.approx(2.0)
    rec = simulate(ens, kernel, 10.0, 0.5)
    edges = np.array([float(np.diff(s.positions)[0]) for s in rec.snapshots])
    assert edges[0] <= th.upper  # first crossing is immediate
    assert np.all(edges <= th.upper + 1e-6)
    np.testing.assert_allclose(edges, 2.0 - np.exp(-rec.times), rtol=1e-6)


def test_criterion_12_wasserstein_oracle():
    rng = np.random.default_rng(0xCC)
    for _ in range(200):
        a, xs = random_atoms(rng)
        b, ys = random_atoms(rng)
        q1, q2 = as_quantile(a, xs), as_quantile(b, ys)
        for p in (1.0, 2.0):
            assert abs(wasserstein(q1, q2, p)
                       - lp_wasserstein(a, xs, b, ys, p)) <= 1e-8
    for _ in range(200):
        qs = [as_quantile(*random_atoms(rng)) for _ in range(3)]
        for p in (1.0, 2.0, math.inf):
            d01 = wasserstein(qs[0], qs[1], p)
            d12 = wasserstein(qs[1], qs[2], p)
            d02 = wasserstein(qs[0], qs[2], p)
            assert d02 <= d01 + d12 + 1e-12
