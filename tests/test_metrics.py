"""Transport distances, the velocity semidistance, energy, and the modulus.

The Wasserstein oracle is the transportation linear program solved by
scipy's HiGHS backend; for p = inf with equal masses the oracle is the
bottleneck assignment over all permutations.  The product metric D and the
modulus bound of the paper's stability estimate are written here, as oracles
of the distances they combine.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from stickyalign import (
    AllToAll,
    Ensemble,
    Exponential,
    PowerLaw,
    QuantileFunction,
    Zero,
    energy,
    velocity_semidistance,
    wasserstein,
)
from stickyalign.metrics import merged_cells
from tests.conftest import random_scenario


def lp_wasserstein(a, xs, b, ys, p):
    """W_p between atomic measures by the transportation LP."""
    cost = np.abs(np.subtract.outer(xs, ys)) ** p
    n, m = cost.shape
    rows = np.zeros((n + m, n * m))
    for i in range(n):
        rows[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        rows[n + j, j::m] = 1.0
    res = linprog(cost.ravel(), A_eq=rows, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun) ** (1.0 / p)


def random_atoms(rng, max_atoms=4):
    n = int(rng.integers(1, max_atoms + 1))
    xs = np.sort(rng.normal(scale=2.0, size=n))
    while np.any(np.diff(xs) <= 0.0):
        xs = np.sort(rng.normal(scale=2.0, size=n))
    w = rng.random(n) + 0.05
    w = w / np.sum(w)
    return w, xs


def as_quantile(w, xs):
    return QuantileFunction(np.cumsum(w)[:-1], xs)


def metric_D(q1, v1, q2, v2, p=2.0):
    """Product metric (W_p^p + U_p^p)^(1/p); max of the two for p = inf."""
    w = wasserstein(q1, q2, p)
    u = velocity_semidistance(q1, v1, q2, v2, p)
    if math.isinf(p):
        return max(w, u)
    return float((w ** p + u ** p) ** (1.0 / p))


def modulus_bound(q1, q2, kernel):
    """Uniform-continuity modulus of rho -> Phi * rho in W_2.

    With r = W_2(rho_1, rho_2):

        omega^2 = 8 Phi(max(1, r/2)) Phi(r/2) + (Phi(1) r)^2

    and U_2 of the two convolution profiles is bounded by omega.
    """
    r = wasserstein(q1, q2, 2.0)
    sq = 8.0 * kernel.big_phi(max(1.0, 0.5 * r)) * kernel.big_phi(0.5 * r) \
        + (kernel.big_phi(1.0) * r) ** 2
    return math.sqrt(sq)


# -- Wasserstein ---------------------------------------------------------


def test_two_diracs_all_orders():
    q1 = as_quantile(np.array([1.0]), np.array([-2.0]))
    q2 = as_quantile(np.array([1.0]), np.array([1.5]))
    for p in (1.0, 2.0, 3.0, math.inf):
        assert wasserstein(q1, q2, p) == pytest.approx(3.5)


def test_split_against_dirac_frozen():
    # (1/4) delta_0 + (3/4) delta_1 vs delta_0: |X1 - X2| = 1 on (1/4, 1)
    q1 = as_quantile(np.array([0.25, 0.75]), np.array([0.0, 1.0]))
    q2 = as_quantile(np.array([1.0]), np.array([0.0]))
    assert wasserstein(q1, q2, 1.0) == pytest.approx(0.75)
    assert wasserstein(q1, q2, 2.0) == pytest.approx(math.sqrt(0.75))
    assert wasserstein(q1, q2, math.inf) == pytest.approx(1.0)


def test_wasserstein_against_lp(rng):
    for p in (1.0, 2.0, 3.0):
        for _ in range(40):
            a, xs = random_atoms(rng)
            b, ys = random_atoms(rng)
            got = wasserstein(as_quantile(a, xs), as_quantile(b, ys), p)
            assert got == pytest.approx(lp_wasserstein(a, xs, b, ys, p), abs=1e-8)


def test_wasserstein_inf_against_bottleneck(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        w = np.full(n, 1.0 / n)
        xs = np.sort(rng.normal(size=n))
        ys = np.sort(rng.normal(size=n))
        got = wasserstein(as_quantile(w, xs), as_quantile(w, ys), math.inf)
        best = min(max(abs(xs[i] - ys[s[i]]) for i in range(n))
                   for s in itertools.permutations(range(n)))
        assert got == pytest.approx(best, abs=1e-12)


def test_triangle_inequality(rng):
    for p in (1.0, 2.0, math.inf):
        for _ in range(60):
            qs = [as_quantile(*random_atoms(rng)) for _ in range(3)]
            d01 = wasserstein(qs[0], qs[1], p)
            d12 = wasserstein(qs[1], qs[2], p)
            d02 = wasserstein(qs[0], qs[2], p)
            assert d02 <= d01 + d12 + 1e-12


def test_order_monotonicity(rng):
    # Jensen: W_p <= W_q for p <= q on probability measures
    for _ in range(30):
        q1 = as_quantile(*random_atoms(rng))
        q2 = as_quantile(*random_atoms(rng))
        w1 = wasserstein(q1, q2, 1.0)
        w2 = wasserstein(q1, q2, 2.0)
        wi = wasserstein(q1, q2, math.inf)
        assert w1 <= w2 + 1e-12
        assert w2 <= wi + 1e-12


def test_identity_and_symmetry(rng):
    q1 = as_quantile(*random_atoms(rng))
    q2 = as_quantile(*random_atoms(rng))
    assert wasserstein(q1, q1, 2.0) == 0.0
    assert wasserstein(q1, q2, 2.0) == pytest.approx(wasserstein(q2, q1, 2.0), rel=1e-15)


def test_bad_order_rejected():
    q = as_quantile(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="p >= 1"):
        wasserstein(q, q, 0.5)
    with pytest.raises(ValueError):
        velocity_semidistance(q, [0.0], q, [0.0], 0.5)


def test_merged_cells_refinement(rng):
    q1 = as_quantile(*random_atoms(rng))
    q2 = as_quantile(*random_atoms(rng))
    widths, idx1, idx2 = merged_cells(q1, q2)
    assert np.all(widths > 0.0)
    assert np.sum(widths) == pytest.approx(1.0, abs=1e-15)
    mids = np.cumsum(widths) - 0.5 * widths
    np.testing.assert_array_equal(q1.values[idx1], q1(mids))
    np.testing.assert_array_equal(q2.values[idx2], q2(mids))


# -- velocity semidistance and the product metric ------------------------


def test_velocity_semidistance_ignores_positions():
    qa = as_quantile(np.array([1.0]), np.array([0.0]))
    qb = as_quantile(np.array([1.0]), np.array([5.0]))
    assert velocity_semidistance(qa, [3.0], qb, [3.0]) == 0.0
    assert wasserstein(qa, qb) == pytest.approx(5.0)


def test_velocity_semidistance_alignment_check():
    q = as_quantile(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="align"):
        velocity_semidistance(q, [1.0], q, [1.0, 2.0])


def test_metric_D_three_four_five():
    q1 = as_quantile(np.array([1.0]), np.array([0.0]))
    q2 = as_quantile(np.array([1.0]), np.array([3.0]))
    assert metric_D(q1, [0.0], q2, [4.0], 2.0) == pytest.approx(5.0)
    assert metric_D(q1, [0.0], q2, [4.0], 1.0) == pytest.approx(7.0)
    assert metric_D(q1, [0.0], q2, [4.0], math.inf) == pytest.approx(4.0)


# -- energy --------------------------------------------------------------


def test_energy_all_to_all_symmetric_pair():
    # head-on pair with the linear kernel: psi = 0, so only the interaction
    # term survives: 0.5 * 2 * (1/4) * W(2) with W(2) = 2
    ens = Ensemble.from_particles([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0], AllToAll(1.0))
    assert ens.psi == pytest.approx([0.0, 0.0], abs=1e-15)
    assert energy(ens, AllToAll(1.0)) == pytest.approx(0.5)


def test_energy_zero_kernel_is_linear_part():
    ens = Ensemble.from_particles([0.25, 0.75], [-1.0, 2.0], [3.0, -1.0], Zero())
    expected = -(0.25 * 3.0 * -1.0 + 0.75 * -1.0 * 2.0)
    assert energy(ens, Zero()) == pytest.approx(expected, rel=1e-15)


def test_energy_pools_psi_consistently(rng):
    ens, kernel = random_scenario(rng, 8, kernel=Exponential(0.8))
    merged = ens.merged([(1, 4)])
    x = merged.positions
    m = merged.masses
    quad = 0.5 * float(m @ kernel.w_phi(np.subtract.outer(x, x)) @ m)
    lin = float(np.sum(m * merged.psi * x))
    assert energy(merged, kernel) == pytest.approx(quad - lin, rel=1e-13)


# -- modulus of continuity ----------------------------------------------


def test_modulus_frozen_value():
    # r = 1 with the unit linear kernel: 8 * 1 * 0.5 + 1 = 5
    q1 = as_quantile(np.array([1.0]), np.array([0.0]))
    q2 = as_quantile(np.array([1.0]), np.array([1.0]))
    assert modulus_bound(q1, q2, AllToAll(1.0)) == pytest.approx(math.sqrt(5.0))


@pytest.mark.parametrize("kernel", [
    AllToAll(1.3),
    Exponential(1.0),
    PowerLaw(1.0, 0.5, 1.0),
])
def test_modulus_dominates_convolution_gap(rng, kernel):
    """U_2 between the convolution profiles of two states is within the
    advertised uniform-continuity modulus at their W_2 distance."""
    for _ in range(25):
        e1, _ = random_scenario(rng, 12, kernel=kernel)
        e2, _ = random_scenario(rng, 12, kernel=kernel)
        q1, q2 = e1.to_quantile(), e2.to_quantile()
        c1 = e1.convolve_big_phi(kernel)
        c2 = e2.convolve_big_phi(kernel)
        gap = velocity_semidistance(q1, c1, q2, c2, 2.0)
        assert gap <= modulus_bound(q1, q2, kernel) + 1e-12
