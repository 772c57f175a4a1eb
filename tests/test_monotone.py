"""Isotonic projection against a partition-enumeration oracle, the envelope
against the hull sweep of conftest.py, and the fit restricted by ``joins``."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stickyalign import (
    PiecewiseLinear,
    cumulative_primitive,
    lower_convex_envelope,
    project_monotone,
)
from tests.conftest import sweep_envelope


def oracle_isotonic(values, weights):
    """Exhaustive weighted isotonic fit over all 2^(n-1) ordered partitions.

    The projection onto the monotone cone is piecewise constant on some
    ordered partition, with each block at its weighted mean; among partitions
    whose block means are nondecreasing, the projection is the one of
    minimal weighted squared error.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = v.size
    best = None
    best_err = np.inf
    for cuts in itertools.product([False, True], repeat=n - 1):
        edges = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        fit = np.empty(n)
        for a, b in zip(edges, edges[1:]):
            fit[a:b] = np.sum(w[a:b] * v[a:b]) / np.sum(w[a:b])
        if np.any(np.diff(fit) < 0.0):
            continue
        err = float(np.sum(w * (fit - v) ** 2))
        if err < best_err:
            best_err = err
            best = fit
    return best


@pytest.mark.parametrize("case,expected", [
    ([2.0, 1.0], [1.5, 1.5]),
    ([3.0, 1.0, 2.0], [2.0, 2.0, 2.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([1.0], [1.0]),
    ([5.0, 4.0, 3.0, 2.0], [3.5, 3.5, 3.5, 3.5]),
])
def test_pava_frozen_examples(case, expected):
    np.testing.assert_allclose(project_monotone(case), expected, rtol=0, atol=0)


def test_pava_weighted_example():
    # weights shift the pooled mean: (2*1 + 1*4)/3 after pooling (4, 1)
    out = project_monotone([4.0, 1.0], weights=[1.0, 2.0])
    np.testing.assert_allclose(out, [2.0, 2.0], rtol=1e-15)


def test_pava_matches_enumeration_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 7))
        v = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        w = rng.uniform(0.2, 3.0, size=n)
        got = project_monotone(v, weights=w)
        want = oracle_isotonic(v, w)
        np.testing.assert_allclose(got, want, atol=1e-8, rtol=0)


def test_pava_envelope_agreement(rng):
    """PAVA == slopes of the swept hull of the cumulative primitive, to near
    machine precision."""
    for _ in range(200):
        n = int(rng.integers(1, 30))
        v = rng.normal(size=n) * 2.0
        w = rng.uniform(0.1, 2.0, size=n)
        pava = project_monotone(v, weights=w)
        hull = sweep_envelope(cumulative_primitive(v, weights=w))
        # read the hull slope over each original cell
        nodes = np.concatenate(([0.0], np.cumsum(w)))
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        seg = np.clip(np.searchsorted(hull.nodes, mids, side="right") - 1,
                      0, hull.nodes.size - 2)
        np.testing.assert_allclose(pava, hull.slopes[seg], atol=1e-14 * (1 + np.abs(v).max()))


@given(hnp.arrays(np.float64, st.integers(1, 12),
                  elements=st.floats(-100, 100)),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=200, deadline=None)
def test_pava_properties(v, seed):
    w = np.random.default_rng(seed).uniform(0.1, 5.0, size=v.size)
    out = project_monotone(v, weights=w)
    # monotone output, idempotent, mean-preserving
    assert np.all(np.diff(out) >= -1e-12 * (1 + np.abs(out).max()))
    np.testing.assert_allclose(project_monotone(out, weights=w), out, atol=1e-12)
    assert np.sum(w * out) == pytest.approx(np.sum(w * v), abs=1e-10 * (1 + np.abs(v).sum()))


def test_pava_mean_preservation_tight(rng):
    for _ in range(100):
        n = int(rng.integers(1, 20))
        v = rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, size=n)
        out = project_monotone(v, weights=w)
        assert abs(np.sum(w * out) - np.sum(w * v)) <= 1e-14 * (1.0 + abs(np.sum(w * v)))


def test_pava_monotone_input_is_fixed(rng):
    v = np.sort(rng.normal(size=25))
    np.testing.assert_array_equal(project_monotone(v), v)


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_pava_contraction(rng, p):
    """Weighted L^p contraction of the projection map."""
    for _ in range(100):
        n = int(rng.integers(1, 15))
        w = rng.uniform(0.2, 2.0, size=n)
        x = rng.normal(size=n) * 2
        y = x + rng.normal(size=n) * rng.uniform(0.0, 2.0)
        px = project_monotone(x, weights=w)
        py = project_monotone(y, weights=w)

        def norm(d):
            if np.isinf(p):
                return np.max(np.abs(d))
            return float(np.sum(w * np.abs(d) ** p)) ** (1.0 / p)

        assert norm(px - py) <= norm(x - y) + 1e-12


def test_pava_rejects_bad_input():
    with pytest.raises(ValueError):
        project_monotone(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        project_monotone([1.0, 2.0], weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        project_monotone([1.0, 2.0], weights=[1.0])
    assert project_monotone([]).size == 0


# -- lower convex envelope ----------------------------------------------


def test_envelope_frozen_tent():
    tent = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 0.5, 0.0])
    hull = sweep_envelope(tent)
    np.testing.assert_array_equal(hull.nodes, [0.0, 1.0])
    np.testing.assert_array_equal(hull.values, [0.0, 0.0])


def test_envelope_keeps_convex_input_and_drops_collinear():
    pl = PiecewiseLinear([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 4.0])
    hull = sweep_envelope(pl)
    # the first two segments are collinear; the interior vertex at x=1 goes
    np.testing.assert_array_equal(hull.nodes, [0.0, 2.0, 3.0])
    assert np.all(np.diff(hull.slopes) >= 0.0)


def test_envelope_matches_sweep_on_untied_input(rng):
    """Read off the isotonic fit, the envelope keeps exactly the sweep's
    vertices: nodes and values are bit-equal on untied random input."""
    for _ in range(500):
        n = int(rng.integers(1, 60))
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, size=n)
        got = lower_convex_envelope(v, w)
        want = sweep_envelope(cumulative_primitive(v, w))
        assert got.nodes.tobytes() == want.nodes.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


def test_envelope_below_and_convex(rng):
    for _ in range(100):
        n = int(rng.integers(2, 25))
        xs = np.sort(rng.uniform(0, 10, size=n))
        xs += np.arange(n) * 1e-3  # strictness
        ys = rng.normal(size=n) * 3
        pl = PiecewiseLinear(xs, ys)
        hull = sweep_envelope(pl)
        assert np.all(hull(xs) <= ys + 1e-9)
        # endpoints survive exactly
        assert hull.values[0] == ys[0] and hull.values[-1] == ys[-1]
        # hull slopes strictly increase (canonical minimal representation)
        assert np.all(np.diff(hull.slopes) > 0.0)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0], [1.0])
    with pytest.raises(ValueError):
        PiecewiseLinear([1.0, 0.0], [0.0, 1.0])
    pl = PiecewiseLinear([0.0, 1.0], [0.0, 2.0])
    assert pl(0.5) == 1.0
    assert pl(-1.0) == 0.0 and pl(2.0) == 2.0  # clamped outside the span


# -- the fit restricted to flagged pairs -----------------------------------


def _run_bounds(joins):
    """Half-open entry ranges of the maximal runs of flagged pairs."""
    edges = np.diff(np.concatenate(([0], np.asarray(joins, dtype=np.int8), [0])))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1))


_tied = st.one_of(st.integers(-3, 3).map(float), st.floats(-100, 100))


@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
           hnp.arrays(np.float64, n, elements=_tied),
           hnp.arrays(np.float64, n, elements=st.sampled_from([0.25, 0.5, 1.0, 0.3, 1.7])),
           st.one_of(st.just(np.ones(max(n - 1, 0), bool)),
                     st.just(np.zeros(max(n - 1, 0), bool)),
                     hnp.arrays(np.bool_, max(n - 1, 0))))))
@example((np.array([]), np.array([]), np.array([], bool)))
@example((np.array([2.0]), np.array([0.5]), np.array([], bool)))
@example((np.array([1.0, 1.0, 0.0]), np.array([0.3, 1.7, 0.3]), np.array([True, True])))
@settings(max_examples=300, deadline=None)
def test_joined_fit_is_the_fit_of_each_run(case):
    """On each run of flagged pairs the masked fit is bit for bit the fit of
    that run alone; every other entry keeps its value."""
    v, w, joins = case
    out = project_monotone(v, w, joins)
    rest = np.ones(v.size, bool)
    for a, b in _run_bounds(joins):
        assert out[a:b].tobytes() == project_monotone(v[a:b], w[a:b]).tobytes()
        rest[a:b] = False
    assert out[rest].tobytes() == v[rest].tobytes()
    if joins.all():
        assert out.tobytes() == project_monotone(v, w).tobytes()


def test_project_tangent_cone_blockwise_isotonic():
    v = [3.0, 1.0, 9.0, 2.0]
    out = project_monotone(v, joins=np.array([True, False, False]))
    np.testing.assert_allclose(out, [2.0, 2.0, 9.0, 2.0], rtol=1e-15)
    # across an unflagged pair the order is unconstrained
    out = project_monotone(v, joins=np.array([True, False, True]))
    np.testing.assert_allclose(out, [2.0, 2.0, 5.5, 5.5], rtol=1e-15)


def test_block_validation():
    for bad in (np.ones(4, bool), np.ones(2, bool), np.ones((1, 3), bool),
                np.ones(3), [1, 0, 1], np.array([], bool)):
        with pytest.raises(ValueError):
            project_monotone(np.zeros(4), joins=bad)
    assert project_monotone([], joins=np.array([], bool)).size == 0


def test_projection_norm_inequality(rng):
    """The masked fit never increases the weighted L2 norm (it is the
    projection onto a convex cone containing 0, the tangent cone at the
    clusters its runs of flagged pairs form)."""
    joins = np.ones(11, bool)
    joins[[3, 6, 7, 8]] = False  # runs (0, 4), (4, 7), (9, 12)
    for _ in range(100):
        v = rng.normal(size=12)
        w = rng.uniform(0.2, 2.0, size=12)
        out = project_monotone(v, w, joins)
        assert np.sum(w * out ** 2) <= np.sum(w * v ** 2) + 1e-12
