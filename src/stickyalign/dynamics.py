"""Sticky dynamics of the reduced first-order alignment system.

The state is the vector of cluster positions; the right-hand side is

    dx_i/dt = psi_i - sum_j m_j Phi(x_i - x_j)

with psi frozen at t = 0.  Only the primitive Phi ever gets evaluated, so
weakly singular kernels are as smooth to the integrator as bounded ones.

For linear Phi (``Zero``, ``AllToAll``) the flow between merges is solved in
closed form.  Write y = x - xbar_0 and q = psi - psibar (mass-weighted means)
and K' = K sum m (0 for Zero): a cluster moves as

    x(t) = xbar_0 + t psibar + e^{-K't} y + (-expm1(-K't) / K') q,

and a merged cluster pools (m, m y, m q, m psi) and moves by the same
formula, which is the projection solution X_t = P(X_0 + t psi) of Brenier &
Grenier (SIAM J. Numer. Anal. 35, 1998) and Natile & Savare (SIAM J. Math.
Anal. 41, 2009), after a change of time for AllToAll.  Every adjacent pair
therefore has a closed-form contact time, and one kinetic pass over a heap
of pair contact times (:mod:`stickyalign.linear`) yields all merge events,
with no time stepper.

Every other family is integrated event by event: an adjacent gap reaching
the contact threshold stops the step, the instant is localized by bisection
on the cubic-Hermite dense output of the accepted Dormand-Prince 5(4) step,
and the touching clusters merge inelastically.  Each step is capped at the
time to the nearest contact of a closing pair; a capped step that the error
control accepts at its first trial hands the size it was offered before the
cap (the previous step's suggestion) to the next step, whose error control
tests it, so the step size does not regrow from the cap after every event.
The pair is FSAL (Dormand & Prince, J. Comput. Appl. Math. 6, 1980): a step
that starts where one ended without a merge takes that step's last stage as
its first, so ``stats["rhs_evals"]`` counts six evaluations per trial, one
per step that starts fresh (the first, and each one after a merge) and one
per event localization.
The merge rule at one instant is the tangent-cone projection of velocities:
one call of ``project_monotone`` whose ``joins`` are the pairs in contact,
so the mass-weighted isotonic fit pools only within each maximal run of
contact pairs, which conserves momentum.

On both paths a pair is in contact once its gap reaches the floor
``EPS_CONTACT * max(1, max|x|)``, and the integrals kept for later
verification (the per-cell convolution integral of the projection formula,
up to the last snapshot, and the dissipation integral of the squared velocity
norm, up to every snapshot) are accumulated with a left-endpoint rule on the
grid of snapshot nodes and event times, giving clean first-order convergence
as ``snapshot_dt`` shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import Ensemble, _block_sums
from .exceptions import InvalidScenarioError, NumericalAbortError
from .kernels import AllToAll, Kernel, Zero
from .monotone import project_monotone

__all__ = [
    "Tolerances",
    "MergeEvent",
    "StepResult",
    "SimulationRecord",
    "drift",
    "step",
    "simulate",
]

# contact threshold and event-time localization scales
EPS_CONTACT = 1e-13
TAU_EVENT = 1e-12

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# b - b_hat: weights of the embedded error estimate
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
_ROWS = [np.array(row) for row in _A[1:] + (_E,)]


@dataclass(frozen=True)
class Tolerances:
    """Error-control knobs of the embedded Runge-Kutta pair."""

    atol: float = 1e-10
    rtol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.atol < math.inf and 0.0 <= self.rtol < math.inf):
            raise ValueError(f"need finite atol > 0 and rtol >= 0, got {self.atol}, {self.rtol}")


@dataclass(frozen=True)
class MergeEvent:
    """One inelastic merge: a contiguous cell range became one cluster.

    ``first_index``/``last_index`` are inclusive *original cell* indices;
    ``post_velocity`` is the merged cluster's velocity and ``post_psi`` the
    mass-weighted mean of its cell psi.  These five fields are all that
    ``record.npz`` stores, so a loaded event equals the simulated one.
    """

    time: float
    first_index: int
    last_index: int
    post_velocity: float
    post_psi: float


@dataclass(frozen=True)
class StepResult:
    """One accepted step.  ``rejected`` counts the trials the error control
    refused first, ``capped`` says whether the time to the nearest contact
    shortened the first trial, and ``rhs_evals`` counts the right-hand sides
    evaluated: six per trial, one for the first stage unless it was handed
    in, and one to localize an event."""

    ensemble: Ensemble
    events: tuple[MergeEvent, ...]
    dt_taken: float
    dt_next: float
    rejected: int
    capped: bool
    rhs_evals: int


def drift(ensemble: Ensemble, kernel: Kernel) -> np.ndarray:
    """Cluster velocities psi - (Phi * rho)(x) of the first-order system."""
    return _make_rhs(ensemble.masses, ensemble.psi, kernel)(ensemble.positions)


def _make_rhs(masses: np.ndarray, psi: np.ndarray, kernel: Kernel):
    def rhs(x: np.ndarray) -> np.ndarray:
        return psi - kernel.convolve(x, masses)
    return rhs


def _attempt(x0, k1, h, rhs):
    """One Dormand-Prince trial step; returns (x1, k7, error_estimate)."""
    k = np.empty((7, k1.size))
    k[0] = k1
    # the last row of _A gives x1 and k7, _E the error; an axis-0 sum adds the
    # stage rows one by one in tableau order, from zero
    for j, row in enumerate(_ROWS, 1):
        acc = (row[:, None] * k[:j]).sum(axis=0)
        if j < 7:
            x1 = x0 + h * acc
            k[j] = rhs(x1)
    return x1, k[6], h * acc


def _error_norm(err, x0, x1, tol: Tolerances) -> float:
    sc = tol.atol + tol.rtol * np.maximum(np.abs(x0), np.abs(x1))
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean((err / sc) ** 2)))


def _initial_dt(x0, f, tol: Tolerances, dt_max: float) -> float:
    sc = tol.atol + tol.rtol * np.abs(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = float(np.sqrt(np.mean((x0 / sc) ** 2)))
        d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    if not (math.isfinite(d0) and math.isfinite(d1)):
        # tolerances so extreme the scaled norms overflowed; start tiny and
        # let the controller (or the underflow guard) take it from there
        return min(dt_max, 1e-6)
    if d1 < 1e-10:
        return dt_max
    return min(dt_max, max(1e-6, 0.01 * d0 / d1))


def _hermite(s, x0, v0, x1, v1, h):
    """Cubic Hermite dense output on the accepted step, s in [0, 1]."""
    s2, s3 = s * s, s * s * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * x0 + (h10 * h) * v0 + h01 * x1 + (h11 * h) * v1


def _first_trigger(x0, v0, x1, v1, h, eps, s_tol):
    """Earliest contact trigger across all adjacent gaps, or None.

    Gaps that start above twice the contact threshold trigger when they reach
    it; gaps already inside the contact zone (left there by a previous
    cascade because they were separating) trigger only on actual overlap, so
    a kissing-but-separating pair cannot stall the integration.

    Each gap follows the Hermite cubic H(s) = a s^3 + b s^2 + c s + d, with
    H(0) = d above its threshold.  H on [0, 1] lies above its lowest Bernstein
    control point, so only the gaps where that point comes within rounding
    slack of the threshold are examined further.  Their candidates are the
    interior critical points and s = 1; between consecutive candidates H is
    monotone, so the first candidate at or below the threshold ends the
    bracket of the gap's first crossing.  A bracket that opens at or after
    the smallest bracket end cannot hold the earliest crossing; only the
    others are bisected.
    """
    d = x0[1:] - x0[:-1]
    g1 = x1[1:] - x1[:-1]
    dg0 = v0[1:] - v0[:-1]
    dg1 = v1[1:] - v1[:-1]
    # power-basis coefficients of the Hermite cubic per gap
    a = 2.0 * d + h * dg0 - 2.0 * g1 + h * dg1
    b = -3.0 * d - 2.0 * h * dg0 + 3.0 * g1 - h * dg1
    c = h * dg0
    thr = np.where(d > eps, eps, 0.0)
    # control points d, d + c/3, d + (2c + b)/3 and a + b + c + d: each, and
    # H at any s in [0, 1], rounds within a few ulp of |a| + |b| + |c| + |d|;
    # gaps at/below their floor already (separating contacts) never trigger
    low = np.minimum(np.minimum(d, d + c / 3.0), np.minimum(d + (c + c + b) / 3.0, a + b + c + d))
    slack = 1e-14 * (np.abs(a) + np.abs(b) + np.abs(c) + np.abs(d))
    gaps = np.flatnonzero((d > thr) & (low <= thr + slack))
    if gaps.size == 0:
        return None
    brackets = []
    for cubic in zip(*(v[gaps].tolist() for v in (a, b, c, d, thr))):
        ai, bi, ci, di, ti = cubic
        # critical points: the stable roots of H' = qa s^2 + qb s + c, or the
        # root of its linear form where qa == 0; a root that is missing (disc <
        # 0, division by zero) or outside (0, 1) becomes the endpoint s = 1
        qa, qb = 3.0 * ai, 2.0 * bi
        roots = [math.nan, math.nan]
        if qa != 0.0:
            disc = qb * qb - 4.0 * qa * ci
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb)) if disc >= 0.0 else math.nan
            roots = [q / qa, ci / q if q != 0.0 else math.nan]
        elif qb != 0.0:
            roots = [-ci / qb] * 2
        nodes = [0.0, *sorted(r if 0.0 < r < 1.0 else 1.0 for r in roots), 1.0]
        brackets += [(lo, hi, cubic) for lo, hi in zip(nodes, nodes[1:])
                     if ((ai * hi + bi) * hi + ci) * hi + di <= ti][:1]
    hi_min = min((hi for _, hi, _ in brackets), default=None)
    crossings = []
    for lo, hi, (ai, bi, ci, di, ti) in brackets:
        if lo < hi_min:
            while hi - lo > s_tol:
                mid = 0.5 * (lo + hi)
                if ((ai * mid + bi) * mid + ci) * mid + di <= ti:
                    hi = mid
                else:
                    lo = mid
            crossings.append(hi)
    return min(crossings, default=None)


def _runs(pairs: np.ndarray) -> list[tuple[int, int]]:
    """Half-open cluster ranges of the maximal runs of flagged pairs (i, i+1)."""
    pad = np.concatenate(([False], pairs, [False]))
    starts, ends = (pad[1:] != pad[:-1]).nonzero()[0].reshape(-1, 2).T
    return list(zip(starts.tolist(), (ends + 1).tolist()))


def _cascade(ens: Ensemble, t_ev: float, eps: float):
    """Resolve all contacts at one instant; returns (ensemble, events).

    The merge is the tangent-cone projection of the incoming velocities
    (Brenier & Grenier, SIAM J. Numer. Anal. 35, 1998; Natile & Savare, SIAM
    J. Math. Anal. 41, 2009): their mass-weighted isotonic fit, pooling only
    across pairs in contact (gap <= 2 eps), after overlapping clusters (the
    level sets of the same fit of the positions) pool their velocities.  A
    run of pairs that overlap, or are in contact and do not come out strictly
    increasing, merges once, conserving momentum, into one :class:`MergeEvent`.
    """
    m, x = ens.masses, ens.positions
    gaps = np.diff(x)
    # only gaps within the total overlap can close when overlaps are pooled
    reach = -float(np.sum(np.minimum(gaps, 0.0)))
    overlap = np.diff(project_monotone(x, m, gaps <= reach)) <= 0.0
    contact = overlap | (gaps <= 2.0 * eps)
    v = ens.velocities
    if overlap.any():  # pool each overlap block; a cluster alone keeps its velocity
        bounds = np.concatenate(([True], ~overlap, [True])).nonzero()[0]
        starts, sizes = bounds[:-1], np.diff(bounds)
        pooled = _block_sums(m * v, starts) / _block_sums(m, starts)
        v = np.where((sizes > 1).repeat(sizes), pooled.repeat(sizes), v)
    v = project_monotone(v, m, contact)
    blocks = _runs(overlap | (contact & (v[:-1] >= v[1:])))
    if not blocks:
        return ens, []

    post = ens.merged(blocks)
    starts, stops = np.array(blocks).T
    firsts = ens.starts[starts]
    lasts = ens.bounds[stops] - 1
    events = [MergeEvent(time=t_ev, first_index=first, last_index=last,
                         post_velocity=float(post.velocities[k]),
                         post_psi=float(post.psi[k]))
              for first, last, k in zip(firsts.tolist(), lasts.tolist(),
                                        post.starts.searchsorted(firsts).tolist())]
    return post, events


def step(ensemble: Ensemble, kernel: Kernel, dt_max: float,
         tolerances: Tolerances | None = None, *,
         t: float = 0.0, dt_hint: float | None = None, _k1=None) -> StepResult:
    """Advance by one accepted step, stopping early at the first contact.

    Returns the post-step (or post-merge) ensemble, any merge events with
    absolute times (``t`` is the time of the input state), the time actually
    advanced, and a step-size suggestion for the next call.  ``_k1``, when
    given, must be the right-hand side at ``ensemble.positions`` (the last
    stage of the step that ended there); it is then not evaluated again.
    """
    if dt_max <= 0.0:
        raise InvalidScenarioError(f"dt_max must be positive, got {dt_max}")
    tol = tolerances or Tolerances()
    x0 = ensemble.positions
    rhs = _make_rhs(ensemble.masses, ensemble.psi, kernel)
    fresh = _k1 is None
    k1 = rhs(x0) if fresh else _k1
    h = min(dt_hint, dt_max) if dt_hint else _initial_dt(x0, k1, tol, dt_max)
    h_hinted = h
    # Never let one step fully traverse a closing gap: beyond the contact the
    # stages would oscillate across the pair and the dense output could miss
    # the crossing entirely.  Capping at the time-to-contact of the fastest
    # closing pair keeps every crossing visible to the Hermite interpolant.
    eps = EPS_CONTACT * max(1.0, float(np.max(np.abs(x0))))
    gaps0 = x0[1:] - x0[:-1]
    rates0 = k1[:-1] - k1[1:]  # positive where the pair is closing
    closing = (rates0 > 0.0) & (gaps0 > eps)
    if np.any(closing):
        h_contact = float(np.min(gaps0[closing] / rates0[closing]))
        # Keep the cap above the underflow guard; a pair closer than that
        # simply overlaps within the step and is merged by the usual trigger.
        h = min(h, max(h_contact, 2e-14 * max(1.0, abs(t))))
    capped = h < h_hinted
    rejected = 0
    while True:
        if h < 1e-14 * max(1.0, abs(t)):
            raise NumericalAbortError(
                f"step size underflow at t={t}: h={h} (events cannot be separated)")
        x1, k7, err = _attempt(x0, k1, h, rhs)
        errnorm = _error_norm(err, x0, x1, tol)
        if errnorm <= 1.0:
            break
        h *= max(0.2, 0.9 * errnorm ** -0.2)
        h_hinted = h
        rejected += 1
    factor = 5.0 if errnorm == 0.0 else min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
    # The contact cap says nothing about accuracy: a capped step that passed
    # at its first trial hands on the size it was offered before the cap (the
    # previous step's suggestion), for the next step's error control to test.
    dt_next = h * factor if h == h_hinted else max(h * factor, h_hinted)

    s_tol = TAU_EVENT * max(1.0, abs(t) + h) / h
    s_star = _first_trigger(x0, k1, x1, k7, h, eps, s_tol)
    rhs_evals = 6 * (1 + rejected) + fresh
    if s_star is None:
        return StepResult(ensemble.evolved(x1, k7), (), h, dt_next,
                          rejected, capped, rhs_evals)

    x_ev = _hermite(s_star, x0, k1, x1, k7, h)
    v_ev = rhs(x_ev)
    post, events = _cascade(ensemble.evolved(x_ev, v_ev), t + s_star * h, eps)
    return StepResult(post, tuple(events), s_star * h, dt_next,
                      rejected, capped, rhs_evals + 1)


@dataclass
class SimulationRecord:
    """Snapshots, merge events, and verification integrals of one run.

    ``phi_integrals[i]`` is the integral of (Phi * rho_s) along cell i's
    cluster trajectory up to the last snapshot time, the term of the
    projection formula; ``v2_integrals[k]`` is the integral of the
    mass-weighted squared velocity norm up to ``times[k]``.  ``stats`` holds the
    solver's counts of merge events, accepted steps, rejected trials,
    right-hand-side evaluations and contact-capped steps, which
    ``metadata.json`` keeps; the closed-form path takes no steps.
    """

    kernel: Kernel
    initial: Ensemble
    times: np.ndarray
    snapshots: list[Ensemble]
    events: list[MergeEvent]
    phi_integrals: np.ndarray
    v2_integrals: np.ndarray
    stats: dict[str, int] = field(default_factory=dict)

    def snapshot_at(self, t: float) -> Ensemble:
        k = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[k] - t) <= 1e-9 * max(1.0, abs(t)):  # NaN too
            raise KeyError(f"{t} is not a snapshot time")
        return self.snapshots[k]


def _snapshot_nodes(t_end: float, snapshot_dt: float) -> list[float]:
    n = int(math.floor(t_end / snapshot_dt + 1e-9))
    nodes = [k * snapshot_dt for k in range(n + 1)]
    if t_end - nodes[-1] > 1e-9 * max(1.0, t_end):
        nodes.append(t_end)
    else:
        nodes[-1] = min(nodes[-1], t_end)
    return nodes


def simulate(ensemble: Ensemble, kernel: Kernel, t_end: float, snapshot_dt: float,
             tolerances: Tolerances | None = None) -> SimulationRecord:
    """Run to ``t_end`` with snapshots at multiples of ``snapshot_dt``.

    Snapshots taken at an event time show the post-merge state.  ``Zero`` and
    ``AllToAll`` are solved in closed form by one kinetic pass over the pair
    contact times (``tolerances`` is unused there, and ``stats`` reports no
    steps); every other family is integrated by adaptive steps that always
    land exactly on snapshot nodes (the step is capped by the time to the next
    node), so records of the same scenario at refined ``snapshot_dt`` share
    their coarse nodes.
    """
    if not 0.0 < t_end < math.inf:
        raise InvalidScenarioError(f"t_end must be finite and positive, got {t_end}")
    if not 0.0 < snapshot_dt < math.inf:
        raise InvalidScenarioError(f"snapshot_dt must be finite and positive, got {snapshot_dt}")
    if isinstance(kernel, (Zero, AllToAll)):
        from .linear import _simulate_linear  # linear.py imports this module's records
        return _simulate_linear(ensemble, kernel, t_end, snapshot_dt)
    return _integrate(ensemble, kernel, t_end, snapshot_dt, tolerances)


def _integrate(ensemble: Ensemble, kernel: Kernel, t_end: float, snapshot_dt: float,
               tolerances: Tolerances | None = None) -> SimulationRecord:
    """The time-stepping path of :func:`simulate`, for any kernel; the
    closed-form path of the linear families is tested against it."""
    tol = tolerances or Tolerances()
    nodes = _snapshot_nodes(t_end, snapshot_dt)

    state = ensemble
    times = [0.0]
    snaps = [state]
    events: list[MergeEvent] = []
    v2_vals = [0.0]

    acc_phi = np.zeros(state.n_cells)
    acc_v2 = 0.0
    t_mark = 0.0
    state_mark = state  # state at the last accumulation node (left endpoint)

    def accumulate_to(t_new: float) -> None:
        nonlocal acc_phi, acc_v2, t_mark
        dt = t_new - t_mark
        if dt <= 0.0:
            return
        acc_phi = acc_phi + dt * state_mark.convolve_big_phi(kernel)[state_mark.lineage]
        acc_v2 = acc_v2 + dt * float(np.sum(state_mark.masses * state_mark.velocities ** 2))
        t_mark = t_new

    stats = dict.fromkeys(("accepted", "rejected", "rhs_evals", "capped", "events"), 0)
    t = 0.0
    dt_hint: float | None = None
    k1 = None  # the right-hand side at state.positions, once known
    for target in nodes[1:]:
        while True:
            remaining = target - t
            if remaining <= 1e-12 * max(1.0, target):
                t = target
                break
            try:
                res = step(state, kernel, remaining, tol, t=t, dt_hint=dt_hint, _k1=k1)
            except NumericalAbortError as exc:
                exc.stats = {**stats, "t": t}
                raise
            stats["accepted"] += 1
            stats["rejected"] += res.rejected
            stats["rhs_evals"] += res.rhs_evals
            stats["capped"] += res.capped
            stats["events"] += len(res.events)
            t_new = t + res.dt_taken
            if res.events:
                accumulate_to(t_new)
                state_mark = res.ensemble
                events.extend(res.events)
            state = res.ensemble
            # without a merge the velocities are rhs(positions), the next k1
            k1 = None if res.events else state.velocities
            dt_hint = res.dt_next
            t = t_new
        accumulate_to(target)
        state_mark = state
        times.append(target)
        snaps.append(state)
        v2_vals.append(acc_v2)

    return SimulationRecord(kernel=kernel, initial=ensemble,
                            times=np.array(times), snapshots=snaps, events=events,
                            phi_integrals=acc_phi,
                            v2_integrals=np.array(v2_vals), stats=stats)
