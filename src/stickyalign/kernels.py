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
``Kernel.convolve`` (every force term, Phi * rho at the particles) and
``Kernel.energy`` (the double sum of W) are dense N x N sums in the base
class; PowerLaw and CompactBump use them.  Zero returns zeros.  AllToAll
reduces both to the mass, centre of mass and second moment, in O(N).
Exponential sums each side of every sorted point as a prefix sum, in O(N):
e^(x_j - x_k) = e^(x_j - anchor) / e^(x_k - anchor) against the first point
of a block at most 500 wide, so no factor overflows or leaves the normal floats.

All values are plain dimensionless reals; instances are immutable and safe to
share between threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .exceptions import KernelRangeError

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


#: widest span summed against one anchor: e^(+-500) keeps m e^(x - anchor)
#: a normal float for any mass in [1e-90, 1e90]; e^(+-709) is the float edge
_EXP_BLOCK = 500.0


def _exp_prefix(x, m):
    """The mass before each of the sorted points ``x``, L_k = sum_{j<k} m_j, and
    its decayed twin G_k = sum_{j<k} m_j e^(-(x_k - x_j)): one cumulative sum of
    m_j e^(x_j - anchor) per block of points at most ``_EXP_BLOCK`` wide, led
    by the G carried across the gap from the block before."""
    mass = np.concatenate(([0.0], np.add.accumulate(m[:-1])))
    decayed = np.empty_like(x)
    carry, x_carry, start = 0.0, x[0], 0
    while start < x.size:
        stop = int(np.searchsorted(x, x[start] + _EXP_BLOCK, side="right"))
        grow = np.exp(x[start:stop] - x[start])
        sums = np.add.accumulate(np.concatenate(([carry * math.exp(x_carry - x[start])],
                                                 m[start:stop] * grow)))
        decayed[start:stop] = sums[:-1] / grow
        carry, x_carry, start = sums[-1] / grow[-1], x[stop - 1], stop
    return mass, decayed


def _stable_order(x):
    """Indices that sort ``x`` stably; a plain slice when it is nondecreasing."""
    return slice(None) if (x[1:] >= x[:-1]).all() else np.argsort(x, kind="stable")


def _maybe_scalar(x, out):
    """Return ``out`` as a python float when the input was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Kernel:
    """Base class; concrete families implement three evaluations, Phi, W and
    the inverse of Phi.  The pointwise kernel phi is never evaluated.

    Subclasses provide:

    big_phi(x)
        odd primitive Phi with Phi(0) = 0, nondecreasing, concave on x >= 0.
    w_phi(x)
        even convex potential W with W(0) = 0 and W' = Phi.
    inv_big_phi(y)
        the x >= 0 with Phi(x) = y, elementwise; ``KernelRangeError`` if any
        ``y`` is negative, NaN, or at/above the supremum of a bounded Phi.

    and the tail/origin descriptors ``big_phi_sup``, ``phi_l1_norm``,
    ``reciprocal_phi_integrable_at_zero``.
    """

    @property
    def big_phi_sup(self) -> float:
        """sup of Phi on [0, inf); ``inf`` for fat-tailed families."""
        raise NotImplementedError

    @property
    def phi_l1_norm(self) -> float:
        """L1 norm of phi over the whole line; equals 2 sup Phi."""
        return 2.0 * self.big_phi_sup

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

    def convolve(self, positions, masses) -> np.ndarray:
        """(Phi * rho)(x_i) = sum_j m_j Phi(x_i - x_j) at each particle x_i.

        Positions may come in any order.  The base class sums the N x N
        matrix directly; families with a faster exact form override it, and
        this dense form stays their test oracle.
        """
        return self.big_phi(positions[:, None] - positions[None, :]) @ masses

    def energy(self, x, m) -> float:
        """Interaction energy 0.5 sum_ij m_i m_j W(x_i - x_j) over 1-d arrays.

        Dense in the base class, overridden as ``convolve`` is.
        """
        return 0.5 * float(m @ self.w_phi(x[:, None] - x[None, :]) @ m)

    def _in_range(self, y) -> np.ndarray:
        """``y`` as a float array, once every element lies in [0, sup Phi)."""
        ya = np.asarray(y, dtype=float)
        if np.any(below := ~(ya >= 0.0)):  # NaN too
            raise KernelRangeError(f"inverse primitive needs y >= 0, got {ya[below][0]}")
        if np.any(above := (ya > 0.0) & (ya >= self.big_phi_sup)):
            raise KernelRangeError(f"y={ya[above][0]} is outside the range of the primitive "
                                   f"(sup={self.big_phi_sup})")
        return ya


@dataclass(frozen=True)
class Zero(Kernel):
    """No communication: free transport with sticky collisions."""

    def big_phi(self, x):
        return _maybe_scalar(x, np.zeros_like(np.asarray(x, dtype=float)))

    def w_phi(self, x):
        return _maybe_scalar(x, np.zeros_like(np.asarray(x, dtype=float)))

    def convolve(self, positions, masses) -> np.ndarray:
        return np.zeros(len(positions))

    def energy(self, x, m) -> float:
        return 0.0

    @property
    def big_phi_sup(self) -> float:
        return 0.0

    def inv_big_phi(self, y):
        return _maybe_scalar(y, np.zeros_like(self._in_range(y)))  # range {0}


@dataclass(frozen=True)
class AllToAll(Kernel):
    """Constant kernel phi = K: the classical mean-field alignment force."""

    K: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"K must be positive and finite, got {self.K}")

    def big_phi(self, x):
        return _maybe_scalar(x, self.K * np.asarray(x, dtype=float))

    def w_phi(self, x):
        xa = np.asarray(x, dtype=float)
        return _maybe_scalar(x, 0.5 * self.K * xa * xa)

    def convolve(self, positions, masses) -> np.ndarray:
        total = masses.sum()
        with np.errstate(over="ignore"):  # callers refuse a non-finite result
            return self.K * total * (positions - (masses @ positions) / total)

    def energy(self, x, m) -> float:
        total = m.sum()
        dx = x - (m @ x) / total  # centred: no cancellation in M sum m x^2 - (sum m x)^2
        return 0.5 * self.K * float(total * (m @ (dx * dx)))

    @property
    def big_phi_sup(self) -> float:
        return math.inf

    def inv_big_phi(self, y):
        return _maybe_scalar(y, self._in_range(y) / self.K)


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

    def big_phi(self, x):
        # sign(x) (head + tail) in two buffers, each ufunc rounding as in the
        # out-of-place expression; for a 0-d input ``head`` is a numpy scalar,
        # whose ``**`` rounds as libm pow does, not as the array loop
        xa = np.asarray(x, dtype=float)
        ax = np.abs(xa, out=np.empty(xa.shape))
        head = np.minimum(ax, self.R)
        head **= 1.0 - self.beta
        head *= self.c / (1.0 - self.beta)
        ax -= self.R
        np.expm1(np.negative(np.maximum(ax, 0.0, out=ax), out=ax), out=ax)
        ax *= self.c * self.R ** (-self.beta)
        head -= ax
        head *= np.sign(xa, out=ax)  # not copysign: Phi(-0.0) is +0.0
        return _maybe_scalar(x, head)

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

    def inv_big_phi(self, y):
        ya = self._in_range(y)
        phiR = (self.c / (1.0 - self.beta)) * self.R ** (1.0 - self.beta)
        head = ((1.0 - self.beta) * ya / self.c) ** (1.0 / (1.0 - self.beta))
        tail = self.R - np.log1p(-(np.maximum(ya, phiR) - phiR) / (self.c * self.R ** (-self.beta)))
        return _maybe_scalar(y, np.where(ya <= phiR, head, tail))


@dataclass(frozen=True)
class Exponential(Kernel):
    """phi(r) = a e^(-|r|): smooth, bounded, thin-tailed."""

    a: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")

    def big_phi(self, x):
        xa = np.asarray(x, dtype=float)
        return _maybe_scalar(x, np.sign(xa) * self.a * (-np.expm1(-np.abs(xa))))

    def w_phi(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        # integral of a(1 - e^-y) from 0 to x; expm1 keeps small x from cancelling
        return _maybe_scalar(x, self.a * (ax + np.expm1(-ax)))

    def convolve(self, positions, masses) -> np.ndarray:
        # Phi(d) = a sign(d) (1 - e^-|d|): the masses before and after each sorted
        # point less their e^-|d| weights, where a coincident pair adds m - m e^0 = 0
        order = _stable_order(positions)
        x, m = positions[order], masses[order]
        left, near_left = _exp_prefix(x, m)
        right, near_right = _exp_prefix(-x[::-1], m[::-1])
        out = np.empty_like(x)
        out[order] = self.a * ((left - near_left) - (right - near_right)[::-1])
        return out

    def energy(self, x, m) -> float:
        # W(d) = a (|d| - 1 + e^-|d|) summed over the pairs i < j of sorted
        # positions; sum_{i<j} m_i m_j (x_j - x_i) counts each gap
        # x_k - x_(k-1) once per pair it separates (the mass before x_k times
        # the mass from x_k on), so it has only positive terms
        order = _stable_order(x)
        x, m = x[order], m[order]
        mass_left, near_left = _exp_prefix(x, m)
        spread = np.diff(x) @ (mass_left[1:] * np.cumsum(m[:0:-1])[::-1])
        return self.a * float(spread - m @ (mass_left - near_left))

    @property
    def big_phi_sup(self) -> float:
        return self.a

    def inv_big_phi(self, y):
        return _maybe_scalar(y, -np.log1p(-self._in_range(y) / self.a))


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

    def inv_big_phi(self, y):
        ya = self._in_range(y)
        # y = 0 is the only point of range when height = 0, and 0 / 0 is no inverse
        return _maybe_scalar(y, np.divide(ya, self.height, out=np.zeros_like(ya),
                                          where=ya != 0.0))


_FAMILIES = {
    "zero": Zero,
    "all_to_all": AllToAll,
    "power_law": PowerLaw,
    "exponential": Exponential,
    "compact_bump": CompactBump,
}


def _real(value, name: str) -> float:
    """``value`` as a float; a bool or a string is no number (``ValueError``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
    try:
        return cls(**{f: _real(cfg[f], f) for f in names if f in cfg})
    except ValueError as exc:
        raise ValueError(f"bad kernel parameters for {name!r}: {exc}") from exc


def kernel_to_config(kernel: Kernel) -> dict:
    """Inverse of :func:`kernel_from_config`."""
    for name, cls in _FAMILIES.items():
        if type(kernel) is cls:
            return {"type": name, **asdict(kernel)}
    raise ValueError(f"unregistered kernel type {type(kernel)!r}")
