"""Communication kernels and their closed-form primitives.

A kernel is a symmetric, radially nonincreasing, locally integrable weight
phi(r) >= 0 controlling how strongly two particles at distance r align.  The
reduced first-order dynamics never evaluates phi itself: every force term goes
through the odd primitive

    Phi(x) = integral_0^x phi(y) dy,

which stays continuous even when phi blows up at the origin (weakly singular
families).  Each family below therefore ships closed forms for Phi, for the
even convex potential W(x) = integral_0^x Phi(y) dy, and - where the range
permits - for the inverse of Phi on [0, sup Phi).  No quadrature runs in the
dynamics hot path.

Families
--------
Zero            phi = 0 (free transport).
AllToAll        phi = K, the mean-field constant kernel; Phi(x) = K x is
                unbounded (fat tail).
PowerLaw        phi(r) = c r^(-beta) for r <= R with beta in (0, 1), continued
                by c R^(-beta) e^(-(r-R)) beyond R.  The exponential
                continuation is a modeling choice: it keeps phi nonincreasing
                and integrable with closed-form primitives, so the singular
                short-range regime and a thin tail are exercised together.
Exponential     phi(r) = a e^(-|r|).
CompactBump     phi(r) = height on |r| <= radius, zero beyond.

Convolution and energy
----------------------
``Kernel.convolve`` (every force term, Phi * rho) and ``Kernel.energy`` (the
double sum of W) are dense N x N sums in the base class; PowerLaw and
CompactBump use them.  Zero returns zeros.  AllToAll reduces both to the
mass, centre of mass and second moment, in O(N).  Exponential splits
e^(-|x - y|) into the two sides of each point and sums each side with one
decaying scan over the sorted positions, in O(N log N); no exponent is ever
positive, so nothing overflows at any spread.

All values are plain dimensionless reals; instances are immutable and safe to
share between threads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .exceptions import KernelRangeError, SingularKernelError

__all__ = [
    "Kernel",
    "Zero",
    "AllToAll",
    "PowerLaw",
    "Exponential",
    "CompactBump",
    "kernel_from_config",
    "kernel_to_config",
]


def _exp_sides(at, x, m):
    """One-sided sums over positions ``x`` sorted ascending, at each ``at``.

    Returns the mass strictly left and strictly right of each point of
    ``at``, and sum m_j e^(-|at - x_j|) over each of those two sides.  The
    decayed prefix G_k = sum_{j<=k} m_j e^(-(x_k - x_j)) obeys the linear
    recurrence G_k = e^(-(x_k - x_(k-1))) G_(k-1) + m_k, which a doubling
    scan solves in log2(N) vector passes; the suffix is the same scan on the
    reversed order.  Every factor is e^(-gap) <= 1 and every exponent is a
    local difference, so the sums neither overflow nor lose precision at
    wide spreads.
    """
    n = x.size
    # [0, m_0 .. m_(n-1), 0, m_(n-1) .. m_0]: both directions in one scan, with
    # zero decay into and out of each pad so that nothing crosses between them
    link = np.exp(-np.diff(x))
    decay = np.concatenate(([0.0, 0.0], link, [0.0, 0.0], link[::-1]))
    sums = np.concatenate(([0.0], m, [0.0], m[::-1]))
    step = 1
    while step < n:
        sums[step:] += decay[step:] * sums[:-step]
        decay[step:] *= decay[:-step]
        step *= 2
    # each side's mass is its own running sum: the total less the left sum
    # would lose the small masses right of a heavy left side to cancellation
    left = np.concatenate(([0.0], np.cumsum(m)))
    right = np.concatenate((np.cumsum(m[::-1])[::-1], [0.0]))
    lo = np.searchsorted(x, at, side="left")  # sums[lo]: G at the nearest point left
    hi = np.searchsorted(x, at, side="right")  # sums[2n+1-hi]: suffix at the nearest right
    x_left = np.concatenate(([-np.inf], x))
    x_right = np.concatenate((x, [np.inf]))
    return (left[lo], right[hi],
            sums[lo] * np.exp(x_left[lo] - at),
            sums[2 * n + 1 - hi] * np.exp(at - x_right[hi]))


def _maybe_scalar(x, out):
    """Return ``out`` as a python float when the input was scalar."""
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Kernel:
    """Base class; concrete families implement the four evaluations.

    Subclasses provide:

    phi(r)
        pointwise kernel value (vectorized, even in r).
    big_phi(x)
        odd primitive Phi with Phi(0) = 0, nondecreasing, concave on x >= 0.
    w_phi(x)
        even convex potential W with W(0) = 0 and W' = Phi.
    inv_big_phi(y)
        the x >= 0 with Phi(x) = y, for y in [0, sup Phi).

    and the tail/origin descriptors ``big_phi_sup``, ``phi_l1_norm``,
    ``reciprocal_phi_integrable_at_zero``.
    """

    def phi(self, r):
        raise NotImplementedError

    def big_phi(self, x):
        raise NotImplementedError

    def w_phi(self, x):
        raise NotImplementedError

    @property
    def big_phi_sup(self) -> float:
        """sup of Phi on [0, inf); ``inf`` for fat-tailed families."""
        raise NotImplementedError

    @property
    def phi_l1_norm(self) -> float:
        """L1 norm of phi over the whole line; equals 2 sup Phi."""
        return 2.0 * self.big_phi_sup

    @property
    def is_fat_tailed(self) -> bool:
        """True when Phi is unbounded (phi not integrable at infinity)."""
        return math.isinf(self.big_phi_sup)

    @property
    def vanishes(self) -> bool:
        """True when phi is identically zero (no interaction at all)."""
        return self.big_phi_sup == 0.0

    @property
    def reciprocal_phi_integrable_at_zero(self) -> bool:
        """True iff integral_0^1 dx / Phi(x) converges.

        Weakly singular families (PowerLaw) give Phi(x) ~ x^(1-beta) near 0,
        so the reciprocal is integrable and contact happens in finite time.
        Bounded families have Phi(x) <= phi(0) x, whose reciprocal diverges
        logarithmically: approach is asymptotic only.  For the Zero kernel the
        flag is False by convention (Phi vanishes identically).
        """
        return False

    def inv_big_phi(self, y: float) -> float:
        """Inverse of the primitive on [0, sup Phi).

        Raises
        ------
        KernelRangeError
            if ``y`` is negative, or at/above the supremum of a bounded Phi.
        """
        raise NotImplementedError

    def convolve(self, at, positions, masses) -> np.ndarray:
        """(Phi * rho)(at_i) = sum_j m_j Phi(at_i - x_j) over 1-d arrays.

        Neither ``at`` nor ``positions`` need be sorted.  The base class sums
        the N x N matrix directly; families with a faster exact form override
        it, and this dense form stays their test oracle.
        """
        return self.big_phi(at[:, None] - positions[None, :]) @ masses

    def energy(self, x, m) -> float:
        """Interaction energy 0.5 sum_ij m_i m_j W(x_i - x_j) over 1-d arrays.

        Dense in the base class, overridden as ``convolve`` is.
        """
        return 0.5 * float(m @ self.w_phi(x[:, None] - x[None, :]) @ m)

    def _check_inv_range(self, y: float) -> None:
        if y < 0.0:
            raise KernelRangeError(f"inverse primitive needs y >= 0, got {y}")
        if y > 0.0 and y >= self.big_phi_sup:
            raise KernelRangeError(
                f"y={y} is outside the range of the primitive (sup={self.big_phi_sup})"
            )


@dataclass(frozen=True)
class Zero(Kernel):
    """No communication: free transport with sticky collisions."""

    def phi(self, r):
        return _maybe_scalar(r, np.zeros_like(np.asarray(r, dtype=float)))

    def big_phi(self, x):
        return _maybe_scalar(x, np.zeros_like(np.asarray(x, dtype=float)))

    def w_phi(self, x):
        return _maybe_scalar(x, np.zeros_like(np.asarray(x, dtype=float)))

    def convolve(self, at, positions, masses) -> np.ndarray:
        return np.zeros(len(at))

    def energy(self, x, m) -> float:
        return 0.0

    @property
    def big_phi_sup(self) -> float:
        return 0.0

    def inv_big_phi(self, y: float) -> float:
        if y == 0.0:
            return 0.0
        raise KernelRangeError("the zero kernel has an identically zero primitive")


@dataclass(frozen=True)
class AllToAll(Kernel):
    """Constant kernel phi = K: the classical mean-field alignment force."""

    K: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"K must be positive and finite, got {self.K}")

    def phi(self, r):
        return _maybe_scalar(r, np.full_like(np.asarray(r, dtype=float), self.K))

    def big_phi(self, x):
        return _maybe_scalar(x, self.K * np.asarray(x, dtype=float))

    def w_phi(self, x):
        xa = np.asarray(x, dtype=float)
        return _maybe_scalar(x, 0.5 * self.K * xa * xa)

    def convolve(self, at, positions, masses) -> np.ndarray:
        total = masses.sum()
        with np.errstate(over="ignore"):  # callers refuse a non-finite result
            return self.K * total * (at - (masses @ positions) / total)

    def energy(self, x, m) -> float:
        total = m.sum()
        dx = x - (m @ x) / total  # centred: no cancellation in M sum m x^2 - (sum m x)^2
        return 0.5 * self.K * float(total * (m @ (dx * dx)))

    @property
    def big_phi_sup(self) -> float:
        return math.inf

    def inv_big_phi(self, y: float) -> float:
        self._check_inv_range(y)
        return y / self.K


@dataclass(frozen=True)
class PowerLaw(Kernel):
    """Weakly singular kernel c r^(-beta) near the origin, thin tail beyond R.

    phi(r) = c r^(-beta) on 0 < r <= R and c R^(-beta) e^(-(r-R)) for r > R.
    Continuous and nonincreasing on r > 0; the primitive is

        Phi(x) = c/(1-beta) x^(1-beta)                          for 0 <= x <= R,
        Phi(x) = Phi(R) + c R^(-beta) (1 - e^(-(x-R)))          for x > R,

    bounded with sup Phi = Phi(R) + c R^(-beta).
    """

    c: float = 1.0
    beta: float = 0.5
    R: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not self.R > 0.0:
            raise ValueError(f"R must be positive, got {self.R}")

    def phi(self, r):
        ra = np.abs(np.asarray(r, dtype=float))
        if np.any(ra == 0.0):
            raise SingularKernelError(
                "power-law kernel is singular at r=0; the dynamics must use big_phi"
            )
        core = self.c * np.minimum(ra, self.R) ** (-self.beta)
        tail = np.exp(-np.maximum(ra - self.R, 0.0))
        return _maybe_scalar(r, core * tail)

    def big_phi(self, x):
        xa = np.asarray(x, dtype=float)
        ax = np.abs(xa)
        head = (self.c / (1.0 - self.beta)) * np.minimum(ax, self.R) ** (1.0 - self.beta)
        tail = (self.c * self.R ** (-self.beta)) * (-np.expm1(-np.maximum(ax - self.R, 0.0)))
        return _maybe_scalar(x, np.sign(xa) * (head + tail))

    def w_phi(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        c, beta, R = self.c, self.beta, self.R
        head = (c / ((1.0 - beta) * (2.0 - beta))) * np.minimum(ax, R) ** (2.0 - beta)
        # beyond R: W(R) + (Phi(R) + cR^-beta)(x-R) - cR^-beta (1 - e^-(x-R))
        phiR = (c / (1.0 - beta)) * R ** (1.0 - beta)
        cR = c * R ** (-beta)
        over = np.maximum(ax - R, 0.0)
        tail = (phiR + cR) * over - cR * (-np.expm1(-over))
        return _maybe_scalar(x, head + tail)

    @property
    def big_phi_sup(self) -> float:
        return (self.c / (1.0 - self.beta)) * self.R ** (1.0 - self.beta) + self.c * self.R ** (
            -self.beta
        )

    @property
    def reciprocal_phi_integrable_at_zero(self) -> bool:
        return True

    def inv_big_phi(self, y: float) -> float:
        self._check_inv_range(y)
        phiR = (self.c / (1.0 - self.beta)) * self.R ** (1.0 - self.beta)
        if y <= phiR:
            return ((1.0 - self.beta) * y / self.c) ** (1.0 / (1.0 - self.beta))
        cR = self.c * self.R ** (-self.beta)
        return self.R - math.log1p(-(y - phiR) / cR)


@dataclass(frozen=True)
class Exponential(Kernel):
    """phi(r) = a e^(-|r|): smooth, bounded, thin-tailed."""

    a: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")

    def phi(self, r):
        ra = np.abs(np.asarray(r, dtype=float))
        return _maybe_scalar(r, self.a * np.exp(-ra))

    def big_phi(self, x):
        xa = np.asarray(x, dtype=float)
        return _maybe_scalar(x, np.sign(xa) * self.a * (-np.expm1(-np.abs(xa))))

    def w_phi(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        # integral of a(1 - e^-y) from 0 to x; expm1 keeps small x from cancelling
        return _maybe_scalar(x, self.a * (ax + np.expm1(-ax)))

    def convolve(self, at, positions, masses) -> np.ndarray:
        # Phi(d) = a sign(d) (1 - e^-|d|): the masses strictly on each side,
        # less their e^-|d| weights; coincident points give Phi(0) = 0
        order = np.argsort(positions, kind="stable")
        mass_left, mass_right, near_left, near_right = _exp_sides(
            at, positions[order], masses[order])
        return self.a * ((mass_left - near_left) - (mass_right - near_right))

    def energy(self, x, m) -> float:
        # W(d) = a (|d| - 1 + e^-|d|) summed over the pairs i < j of distinct
        # sorted positions; sum_{i<j} m_i m_j (x_j - x_i) counts each gap
        # x_k - x_(k-1) once per pair it separates (the mass left of x_k times
        # the mass right of x_(k-1)), so it has only positive terms
        order = np.argsort(x, kind="stable")
        x, m = x[order], m[order]
        mass_left, mass_right, near_left, _ = _exp_sides(x, x, m)
        spread = np.diff(x) @ (mass_left[1:] * mass_right[:-1])
        return self.a * float(spread - m @ (mass_left - near_left))

    @property
    def big_phi_sup(self) -> float:
        return self.a

    def inv_big_phi(self, y: float) -> float:
        self._check_inv_range(y)
        return -math.log1p(-y / self.a)


@dataclass(frozen=True)
class CompactBump(Kernel):
    """Indicator kernel: constant height within |r| <= radius, zero outside."""

    radius: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not 0.0 <= self.height < math.inf:
            raise ValueError(f"height must be nonnegative and finite, got {self.height}")

    def phi(self, r):
        ra = np.abs(np.asarray(r, dtype=float))
        return _maybe_scalar(r, np.where(ra <= self.radius, self.height, 0.0))

    def big_phi(self, x):
        xa = np.asarray(x, dtype=float)
        return _maybe_scalar(
            x, np.sign(xa) * self.height * np.minimum(np.abs(xa), self.radius)
        )

    def w_phi(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        inside = 0.5 * self.height * np.minimum(ax, self.radius) ** 2
        outside = self.height * self.radius * np.maximum(ax - self.radius, 0.0)
        return _maybe_scalar(x, inside + outside)

    @property
    def big_phi_sup(self) -> float:
        return self.height * self.radius

    def inv_big_phi(self, y: float) -> float:
        self._check_inv_range(y)
        if y == 0.0:
            return 0.0
        return y / self.height


_FAMILIES = {
    "zero": Zero,
    "all_to_all": AllToAll,
    "power_law": PowerLaw,
    "exponential": Exponential,
    "compact_bump": CompactBump,
}


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from its JSON configuration, e.g.

    ``{"type": "power_law", "c": 1.0, "beta": 0.5, "R": 1.0}``.
    """
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValueError("kernel config must be an object with a 'type' field")
    name = cfg["type"]
    if name not in _FAMILIES:
        raise ValueError(f"unknown kernel type {name!r}; choose from {sorted(_FAMILIES)}")
    cls = _FAMILIES[name]
    names = [f.name for f in fields(cls)]
    extra = set(cfg) - {"type"} - set(names)
    if extra:
        raise ValueError(f"unexpected kernel fields for {name!r}: {sorted(extra)}")
    kwargs = {f: float(cfg[f]) for f in names if f in cfg}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"bad kernel parameters for {name!r}: {exc}") from exc


def kernel_to_config(kernel: Kernel) -> dict:
    """Inverse of :func:`kernel_from_config`."""
    for name, cls in _FAMILIES.items():
        if type(kernel) is cls:
            return {"type": name, **asdict(kernel)}
    raise ValueError(f"unregistered kernel type {type(kernel)!r}")
