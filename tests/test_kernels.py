"""Kernel families: primitives against quadrature, inverses, descriptors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stickyalign import (
    AllToAll,
    CompactBump,
    Exponential,
    Kernel,
    KernelRangeError,
    PowerLaw,
    Zero,
    kernel_from_config,
    kernel_to_config,
)
from tests.conftest import KERNEL_POOL

ALL_KERNELS = [
    Zero(),
    AllToAll(1.0),
    AllToAll(0.3),
    PowerLaw(1.0, 0.5, 1.0),
    PowerLaw(2.0, 0.25, 0.7),
    PowerLaw(0.5, 0.9, 2.0),
    Exponential(1.0),
    Exponential(0.4),
    CompactBump(1.0, 2.0),
    CompactBump(0.3, 1.5),
]

NONZERO_KERNELS = [k for k in ALL_KERNELS if not isinstance(k, Zero)]


# -- quadrature oracles --------------------------------------------------


def phi(kernel: Kernel, r: float) -> float:
    """The pointwise kernel phi(r) of each family, as its docstring defines it;
    the library evaluates only its primitives."""
    r = abs(r)
    if isinstance(kernel, AllToAll):
        return kernel.K
    if isinstance(kernel, PowerLaw):
        if r <= kernel.R:
            return kernel.c * r ** (-kernel.beta)
        return kernel.c * kernel.R ** (-kernel.beta) * math.exp(-(r - kernel.R))
    if isinstance(kernel, Exponential):
        return kernel.a * math.exp(-r)
    if isinstance(kernel, CompactBump):
        return kernel.height if r <= kernel.radius else 0.0
    raise TypeError(f"no phi for {kernel!r}")


@pytest.mark.parametrize("kernel", NONZERO_KERNELS, ids=repr)
@pytest.mark.parametrize("x", [0.01, 0.3, 0.9, 1.0, 1.5, 4.0])
def test_big_phi_is_integral_of_phi(kernel, x):
    # quad copes with the integrable r^-beta singularity at the origin
    val, err = quad(lambda r: phi(kernel, r), 0.0, x, points=[0.0], limit=200)
    assert kernel.big_phi(x) == pytest.approx(val, abs=max(1e-9, 10 * err))


@pytest.mark.parametrize("kernel", NONZERO_KERNELS, ids=repr)
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 2.5])
def test_w_phi_is_integral_of_big_phi(kernel, x):
    val, err = quad(kernel.big_phi, 0.0, x, limit=200)
    assert kernel.w_phi(x) == pytest.approx(val, abs=max(1e-10, 10 * err))


# -- frozen closed-form values ------------------------------------------


def test_power_law_frozen_values():
    k = PowerLaw(1.0, 0.5, 1.0)
    assert k.big_phi(0.25) == pytest.approx(1.0, abs=1e-15)
    assert k.big_phi(1.0) == pytest.approx(2.0, abs=1e-15)
    # beyond the cutoff the tail decays exponentially from phi(R) = 1
    assert k.big_phi(2.0) == pytest.approx(2.632120558828558, abs=1e-15)
    assert k.w_phi(1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert k.big_phi_sup == pytest.approx(3.0, abs=1e-15)  # 2 + 1


def power_law_big_phi_out_of_place(k: PowerLaw, x):
    """PowerLaw's Phi as one out-of-place expression: the oracle for the
    buffered evaluation in ``PowerLaw.big_phi``."""
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    head = (k.c / (1.0 - k.beta)) * np.minimum(ax, k.R) ** (1.0 - k.beta)
    tail = (k.c * k.R ** (-k.beta)) * (-np.expm1(-np.maximum(ax - k.R, 0.0)))
    out = np.sign(xa) * (head + tail)
    return float(out) if np.ndim(x) == 0 else out


@pytest.mark.parametrize("kernel", [k for k in ALL_KERNELS if isinstance(k, PowerLaw)]
                         + [PowerLaw(3.0, 0.01, 0.05), PowerLaw(0.2, 0.99, 40.0)], ids=repr)
def test_power_law_big_phi_matches_the_out_of_place_expression(kernel):
    """Bit for bit, with the same type and shape, on arrays (contiguous or
    not), 0-d arrays and Python scalars, at +-0, +-R, just off R, tiny and
    huge |x|, and on spreads over many decades (numpy scalar ``**`` rounds as
    libm pow, the array loop need not)."""
    rng = np.random.default_rng(3)
    R = kernel.R
    special = np.array([0.0, -0.0, R, -R, np.nextafter(R, 0.0), np.nextafter(R, 5.0), 5e-324,
                        -1e-300, 1e-12, 1e300, -np.inf, np.inf])
    spread = rng.normal(size=(40, 25)) * 10.0 ** rng.uniform(-12.0, 6.0, size=(40, 25))
    x = np.sort(rng.normal(size=30))
    inputs = [special, spread, spread.T, spread[::3, 1::2], x[:, None] - x[None, :]]
    inputs += [np.array(v) for v in special] + [float(v) for v in special]
    inputs += [float(v) for v in spread.ravel()[:200]] + [2, -3]
    for inp in inputs:
        got, want = kernel.big_phi(inp), power_law_big_phi_out_of_place(kernel, inp)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_exponential_frozen_values():
    k = Exponential(1.0)
    assert k.big_phi(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    assert k.inv_big_phi(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert k.big_phi_sup == 1.0
    assert k.phi_l1_norm == 2.0


def test_all_to_all_is_linear():
    k = AllToAll(2.5)
    xs = np.array([-3.0, -0.5, 0.0, 1.0, 7.0])
    np.testing.assert_allclose(k.big_phi(xs), 2.5 * xs, rtol=0, atol=0)
    assert math.isinf(k.big_phi_sup)


def test_zero_kernel_everything_vanishes():
    k = Zero()
    assert k.big_phi(5.0) == 0.0 and k.w_phi(2.0) == 0.0
    assert k.vanishes
    assert k.inv_big_phi(0.0) == 0.0
    with pytest.raises(KernelRangeError):
        k.inv_big_phi(0.1)


def test_compact_bump_saturates():
    k = CompactBump(1.0, 2.0)
    assert k.big_phi(0.5) == 1.0
    assert k.big_phi(1.0) == 2.0
    assert k.big_phi(10.0) == 2.0  # saturated at height * radius
    assert k.w_phi(2.0) == pytest.approx(0.5 * 2.0 + 2.0 * 1.0, rel=1e-15)


def test_power_law_singular_at_origin():
    # phi blows up at r = 0, but its primitive and potential are finite and
    # continuous there: Phi(x) = 2 sqrt(x) near 0
    k = PowerLaw(1.0, 0.5, 1.0)
    assert k.big_phi(0.0) == 0.0 and k.w_phi(0.0) == 0.0
    assert k.big_phi(1e-300) == pytest.approx(2e-150, rel=1e-15)
    assert k.big_phi(-1e-300) == pytest.approx(-2e-150, rel=1e-15)


def test_reciprocal_integrability_flags():
    assert PowerLaw(1.0, 0.5, 1.0).reciprocal_phi_integrable_at_zero
    for k in (Zero(), AllToAll(1.0), Exponential(1.0), CompactBump(1.0, 1.0)):
        assert not k.reciprocal_phi_integrable_at_zero


# -- inverse round-trips ------------------------------------------------


@pytest.mark.parametrize("kernel", [k for k in NONZERO_KERNELS], ids=repr)
def test_inverse_round_trip(kernel):
    sup = kernel.big_phi_sup
    upper = 4.0 if math.isinf(sup) else 0.999 * sup
    for y in np.linspace(0.0, upper, 17):
        x = kernel.inv_big_phi(float(y))
        assert x >= 0.0
        assert kernel.big_phi(x) == pytest.approx(y, abs=1e-10 * (1.0 + y))


def test_power_law_inverse_both_branches():
    k = PowerLaw(1.0, 0.5, 1.0)
    # below the cutoff: Phi = 2 sqrt(x)
    assert k.inv_big_phi(1.0) == pytest.approx(0.25, rel=1e-14)
    # above the cutoff value Phi(R) = 2
    y = 2.5
    x = k.inv_big_phi(y)
    assert x > 1.0
    assert k.big_phi(x) == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("kernel,bad", [
    (Exponential(1.0), 1.0),
    (Exponential(1.0), -0.1),
    (CompactBump(1.0, 2.0), 2.0),
    (PowerLaw(1.0, 0.5, 1.0), 3.0),
])
def test_inverse_rejects_out_of_range(kernel, bad):
    with pytest.raises(KernelRangeError):
        kernel.inv_big_phi(bad)


def _inverse_by_math(kernel, y):
    """The closed-form inverse in scalar ``math``, independent of numpy's rounding."""
    if isinstance(kernel, Zero):
        return 0.0
    if isinstance(kernel, AllToAll):
        return y / kernel.K
    if isinstance(kernel, Exponential):
        return -math.log1p(-y / kernel.a)
    if isinstance(kernel, CompactBump):
        return y / kernel.height
    c, beta, R = kernel.c, kernel.beta, kernel.R
    phiR = (c / (1.0 - beta)) * R ** (1.0 - beta)
    if y <= phiR:
        return ((1.0 - beta) * y / c) ** (1.0 / (1.0 - beta))
    return R - math.log1p(-(y - phiR) / (c * R ** (-beta)))


def _below_sup(kernel):
    """Strategy for y in [0, sup Phi), and the largest such y drawn on purpose."""
    sup = kernel.big_phi_sup
    if sup == 0.0:
        return st.just(0.0), 0.0
    top = math.nextafter(sup, 0.0) if math.isfinite(sup) else 1e300
    return st.floats(0.0, top), top


@settings(max_examples=100, deadline=None)
@given(kernel=st.sampled_from(KERNEL_POOL), data=st.data())
def test_inverse_array_form_matches_scalar_form(kernel, data):
    ys, top = _below_sup(kernel)
    y = np.array([0.0, top, *data.draw(st.lists(ys, max_size=30))])
    got = kernel.inv_big_phi(y)
    assert isinstance(got, np.ndarray) and got.shape == y.shape
    scalar = [kernel.inv_big_phi(float(v)) for v in y]
    assert all(type(v) is float for v in scalar)
    np.testing.assert_array_max_ulp(got, np.array(scalar), maxulp=2)
    np.testing.assert_array_max_ulp(got, np.array([_inverse_by_math(kernel, v) for v in y]),
                                    maxulp=2)


@settings(max_examples=100, deadline=None)
@given(kernel=st.sampled_from(KERNEL_POOL), data=st.data())
def test_inverse_array_rejects_one_out_of_range_element(kernel, data):
    ys, _ = _below_sup(kernel)
    y = data.draw(st.lists(ys, max_size=10))
    bad = st.floats(max_value=-math.ulp(0.0)) | st.just(math.nan)
    sup = kernel.big_phi_sup
    if math.isfinite(sup):
        bad |= st.floats(min_value=sup, exclude_min=sup == 0.0, allow_nan=False)
    y.insert(data.draw(st.integers(0, len(y))), data.draw(bad))
    with pytest.raises(KernelRangeError):
        kernel.inv_big_phi(np.array(y))


# -- structural properties (hypothesis) ---------------------------------


@st.composite
def kernels(draw):
    family = draw(st.sampled_from(["all_to_all", "power_law", "exponential", "bump"]))
    pos = st.floats(0.05, 4.0)
    if family == "all_to_all":
        return AllToAll(draw(pos))
    if family == "power_law":
        return PowerLaw(draw(pos), draw(st.floats(0.05, 0.95)), draw(pos))
    if family == "exponential":
        return Exponential(draw(pos))
    return CompactBump(draw(pos), draw(pos))


@given(kernels(), st.floats(-8.0, 8.0))
@settings(max_examples=200, deadline=None)
def test_big_phi_odd_and_monotone(kernel, x):
    assert kernel.big_phi(-x) == pytest.approx(-kernel.big_phi(x), rel=1e-12, abs=1e-12)
    h = 1e-3
    assert kernel.big_phi(x + h) >= kernel.big_phi(x) - 1e-12
    assert abs(kernel.big_phi(x)) <= kernel.big_phi_sup + 1e-12


@given(kernels(), st.floats(-6.0, 6.0))
@example(Exponential(1.0), 2.148864421627163e-15)  # once -1.1e-16 by cancellation
@settings(max_examples=200, deadline=None)
def test_w_phi_even_nonnegative(kernel, x):
    assert kernel.w_phi(x) >= 0.0
    assert kernel.w_phi(-x) == pytest.approx(kernel.w_phi(x), rel=1e-12, abs=1e-12)
    assert kernel.w_phi(0.0) == 0.0


@given(kernels(), st.floats(0.05, 5.0), st.floats(0.05, 5.0))
@settings(max_examples=150, deadline=None)
def test_big_phi_subadditive(kernel, x, y):
    # concavity on the half line gives Phi(x+y) <= Phi(x) + Phi(y)
    assert kernel.big_phi(x + y) <= kernel.big_phi(x) + kernel.big_phi(y) + 1e-12


@given(st.floats(0.05, 4.0), st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_bounded_phi_linear_bound(a, x):
    k = Exponential(a)
    assert abs(k.big_phi(x)) <= a * abs(x) + 1e-12


def test_vectorization_matches_scalars():
    # numpy's SIMD loops may round differently from the scalar path by 1 ulp
    xs = np.array([-2.0, -0.5, 0.0, 0.4, 1.0, 3.0])
    for k in NONZERO_KERNELS:
        np.testing.assert_allclose(k.big_phi(xs), [k.big_phi(float(x)) for x in xs],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(k.w_phi(xs), [k.w_phi(float(x)) for x in xs],
                                   rtol=1e-15, atol=0)
        assert np.isscalar(k.big_phi(1.0))


# -- scanned convolution and energy against the dense sums ---------------


@st.composite
def scan_inputs(draw):
    """Unsorted positions with runs of coincident points, optionally split
    into two groups near -800 and +800 (a spread wider than one exponential
    block, so the sums are carried across the gap)."""
    base = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=25)))
    if draw(st.booleans()):
        base += np.where(np.arange(base.size) % 2 == 1, 800.0, -800.0)
    x = np.repeat(base, draw(st.lists(st.integers(1, 3), min_size=base.size,
                                      max_size=base.size)))
    m = np.array(draw(st.lists(st.floats(1e-3, 2.0), min_size=x.size, max_size=x.size)))
    order = draw(st.permutations(range(x.size)))
    return x[order], m[order]


@given(st.sampled_from(["exponential", "all_to_all"]), st.floats(0.1, 3.0), scan_inputs())
@example("exponential", 2.0, (np.array([-800.0, -800.0, 800.0, 800.0]),
                              np.array([1.0, 1.0, 1e-3, 1e-3])))
@settings(max_examples=300, deadline=None)
def test_fast_convolve_and_energy_match_the_dense_sums(family, c, inputs):
    x, m = inputs
    if family == "exponential":
        kernel = Exponential(c)
        scale = kernel.big_phi_sup
    else:
        kernel = AllToAll(c)
        scale = c * (1.0 + 2.0 * np.max(np.abs(x)))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        conv = kernel.convolve(x, m)
        e = kernel.energy(x, m)
    assert np.all(np.isfinite(conv)) and math.isfinite(e)
    dense = Kernel.convolve(kernel, x, m)
    assert np.max(np.abs(conv - dense)) <= 1e-13 * np.sum(m) * scale
    dense_e = Kernel.energy(kernel, x, m)
    assert abs(e - dense_e) <= 1e-13 * (1.0 + abs(dense_e))


@pytest.mark.parametrize("n", [63, 64, 65, 1000])
def test_exponential_prefix_carries_across_blocks(n):
    # a 1600-wide spread takes several blocks of the prefix sums; at n=1000
    # the points are 1.6 apart, so the sums carried across each block's
    # leading gap weigh in, and the unsorted copy takes the argsort
    rng = np.random.default_rng(n)
    kernel = Exponential(0.7)
    x = np.sort(rng.uniform(-800.0, 800.0, size=n))
    x[0], x[-1] = -800.0, 800.0
    m = rng.uniform(0.1, 1.0, size=n)
    for order in (np.arange(n), rng.permutation(n)):
        dense = Kernel.convolve(kernel, x[order], m[order])
        conv = kernel.convolve(x[order], m[order])
        assert np.max(np.abs(conv - dense)) <= 1e-13 * np.sum(m) * 0.7
        dense_e = Kernel.energy(kernel, x[order], m[order])
        assert abs(kernel.energy(x[order], m[order]) - dense_e) <= 1e-13 * (1.0 + abs(dense_e))


def test_zero_energy_is_zero():
    assert Zero().energy(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == 0.0


# -- configuration round-trip -------------------------------------------


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=repr)
def test_config_round_trip(kernel):
    cfg = kernel_to_config(kernel)
    assert kernel_from_config(cfg) == kernel


@pytest.mark.parametrize("cfg", [
    {"type": "warp"},
    {"type": "power_law", "c": 1.0, "beta": 1.5, "R": 1.0},
    {"type": "exponential", "a": -1.0},
    {"type": "all_to_all", "K": 1.0, "extra": 2},
    {"type": "exponential", "a": True},  # a JSON bool is not a number
    {"type": "exponential", "a": "2"},
    {"type": "power_law", "c": 1.0, "beta": None},
    {},
    "zero",
])
def test_config_rejects_malformed(cfg):
    with pytest.raises(ValueError):
        kernel_from_config(cfg)


@pytest.mark.parametrize("bad", [
    lambda: PowerLaw(1.0, 1.0, 1.0),
    lambda: PowerLaw(1.0, 0.0, 1.0),
    lambda: PowerLaw(-1.0, 0.5, 1.0),
    lambda: AllToAll(0.0),
    lambda: Exponential(-0.5),
    lambda: CompactBump(0.0, 1.0),
    lambda: AllToAll(math.inf),
    lambda: PowerLaw(math.inf, 0.5, 1.0),
    lambda: Exponential(math.inf),
    lambda: CompactBump(1.0, math.inf),
    lambda: CompactBump(1.0, math.nan),
])
def test_parameter_validation(bad):
    with pytest.raises(ValueError):
        bad()
