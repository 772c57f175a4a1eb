"""The closed-form path of :func:`~stickyalign.dynamics.simulate` for linear Phi.

For ``Zero`` and ``AllToAll`` the flow between merges is solved in closed
form (see the :mod:`~stickyalign.dynamics` docstring), so every adjacent pair
of clusters has a closed-form contact time, and one kinetic pass over a heap
of those times yields every merge event, with no time stepper.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .dynamics import EPS_CONTACT, MergeEvent, SimulationRecord, _snapshot_nodes, drift
from .ensemble import Ensemble, _block_sums
from .kernels import AllToAll, Zero


def _simulate_linear(ensemble: Ensemble, kernel: Zero | AllToAll, t_end: float,
                     snapshot_dt: float) -> SimulationRecord:
    """``simulate`` for Zero and AllToAll, without a time stepper.

    A heap holds the contact time of every adjacent pair, keyed by the pair's
    left cluster and tagged with a version that a merge on either side bumps,
    so stale entries are skipped.  A contact time is computed in absolute time
    from the pooled reference values and clamped to the current time; contacts
    after the last snapshot node are not merged, as the stepper stops there.
    A pair that a merge leaves within twice the contact floor, and not
    separating, merges at the same instant and is folded with that merge into
    one :class:`MergeEvent`, as ``_cascade`` folds a contact run.  Snapshot
    nodes re-pool their clusters from the initial ones with ``_block_sums``.
    """
    nodes = _snapshot_nodes(t_end, snapshot_dt)
    t_last = nodes[-1]
    m0 = ensemble.masses
    total = float(np.sum(m0))
    k = kernel.K * total if isinstance(kernel, AllToAll) else 0.0
    x_bar = float(m0 @ ensemble.positions) / total
    psi_bar = float(m0 @ ensemble.psi) / total
    my0 = m0 * (ensemble.positions - x_bar)
    mq0 = m0 * (ensemble.psi - psi_bar)
    pools = np.stack([m0, my0, mq0])

    def decay(t: float) -> tuple[float, float]:
        """Coefficients of y and q in x(t) - xbar_0 - t psibar."""
        return math.exp(-k * t), (-math.expm1(-k * t) / k if k else t)

    # kinetic state per cluster, indexed by its leftmost initial cluster
    n = m0.size
    mass, my, mq = m0.tolist(), my0.tolist(), mq0.tolist()
    mpsi = (m0 * ensemble.psi).tolist()
    right = list(range(1, n + 1))
    left = list(range(-1, n))  # left[n] is the last cluster
    version = [0] * n
    alive = np.ones(n, dtype=bool)
    cells = ensemble.bounds.tolist()
    heap: list[tuple[float, int, int]] = []

    def frame(t: float) -> tuple[float, float, float]:
        """decay(t) and the contact floor at t; the end clusters bound max|x|."""
        a, b = decay(t)
        last, shift = left[n], x_bar + t * psi_bar
        ends = (a * my[0] + b * mq[0]) / mass[0], (a * my[last] + b * mq[last]) / mass[last]
        return a, b, EPS_CONTACT * max(1.0, abs(shift + ends[0]), abs(shift + ends[1]))

    def schedule(c: int, t: float, a: float, b: float, eps: float) -> None:
        """Push when the gap of the pair (c, right[c]) reaches ``eps``, seen at t."""
        version[c] += 1
        r = right[c]
        if r == n:
            return
        g = my[r] / mass[r] - my[c] / mass[c]
        dq = mq[r] / mass[r] - mq[c] / mass[c]
        if a * g + b * dq <= 2.0 * eps:  # in contact: merge now unless separating
            if dq > k * g:
                return
            t_c = t
        else:
            d = k * eps - dq
            if d <= 0.0:
                return
            t_c = max(t, math.log1p(k * (g - eps) / d) / k if k else (g - eps) / d)
        if t_c <= t_last:
            heapq.heappush(heap, (t_c, c, version[c]))

    # left-endpoint accumulators: the phi integral of a cluster is
    # k (y int a + q int b) over its lifetime, added on retirement to its
    # cell range through the running increments of ``ramp``
    t_mark = int_a = int_b = acc_v2 = 0.0
    w2 = float(np.sum((mq0 - k * my0) ** 2 / m0))  # sum m w^2, v = psibar + e^{-kt} w
    born_a, born_b = np.zeros(n), np.zeros(n)
    ramp = [0.0] * (ensemble.n_cells + 1)

    def accumulate_to(t: float) -> None:
        nonlocal t_mark, int_a, int_b, acc_v2
        dt = t - t_mark
        if dt > 0.0:
            a, b = decay(t_mark)
            int_a += dt * a
            int_b += dt * b
            acc_v2 += dt * (total * psi_bar * psi_bar + a * a * w2)
            t_mark = t

    events: list[MergeEvent | None] = []
    opened: dict[int, tuple[float, int]] = {}  # cluster -> (time, index) of its merge

    def merge(c: int, t: float) -> None:
        nonlocal w2
        r = right[c]
        a, b, eps = frame(t)
        for j in (c, r):
            born = opened.pop(j, None)
            if born is not None and born[0] == t:  # same instant: one contact run
                events[born[1]] = None
            w2 -= (mq[j] - k * my[j]) ** 2 / mass[j]
            if k:  # retire j: its phi integral goes to its cells
                val = k * (my[j] * (int_a - born_a[j]) + mq[j] * (int_b - born_b[j])) / mass[j]
                ramp[cells[j]] += val
                ramp[cells[right[j]]] -= val
        mass[c] += mass[r]
        my[c] += my[r]
        mq[c] += mq[r]
        mpsi[c] += mpsi[r]
        w2 += (mq[c] - k * my[c]) ** 2 / mass[c]
        born_a[c], born_b[c] = int_a, int_b
        right[c] = right[r]
        left[right[r]] = c
        alive[r] = False
        version[r] += 1
        opened[c] = (t, len(events))
        events.append(MergeEvent(
            time=t, first_index=cells[c], last_index=cells[right[c]] - 1,
            post_velocity=psi_bar + a * (mq[c] - k * my[c]) / mass[c],
            post_psi=mpsi[c] / mass[c]))
        if left[c] >= 0:
            schedule(left[c], t, a, b, eps)
        schedule(c, t, a, b, eps)

    times, snaps, v2_vals = [0.0], [ensemble], [0.0]

    def snapshot(t: float) -> None:
        accumulate_to(t)
        heads = np.flatnonzero(alive)
        mh, y, q = _block_sums(pools, heads)
        y, q = y / mh, q / mh
        a, b = decay(t)
        x = x_bar + t * psi_bar + a * y + b * q
        # the velocities are the drift at x, set once masses and psi are pooled
        snap = Ensemble._assemble(ensemble.cell_masses, ensemble.cell_positions,
                                  ensemble.cell_velocities, ensemble.cell_psi,
                                  ensemble.starts[heads], cluster_positions=x,
                                  cluster_velocities=x)
        times.append(t)
        snaps.append(snap.evolved(x, drift(snap, kernel)))
        v2_vals.append(acc_v2)

    start = frame(0.0)
    for c in range(n - 1):
        schedule(c, 0.0, *start)
    pending = iter(nodes[1:])
    node = next(pending, math.inf)
    while heap:
        t_c, c, ver = heapq.heappop(heap)
        if ver != version[c]:
            continue
        while node < t_c:
            snapshot(node)
            node = next(pending, math.inf)
        accumulate_to(t_c)
        merge(c, t_c)
    while node < math.inf:
        snapshot(node)
        node = next(pending, math.inf)
    phi = np.zeros(ensemble.n_cells)
    if k:  # the phi integral up to the last node, where the pass ended
        heads = np.flatnonzero(alive)
        mh, y, q = _block_sums(pools, heads)
        live = k * (y / mh * (int_a - born_a[heads]) + q / mh * (int_b - born_b[heads]))
        phi = np.cumsum(ramp)[:-1] + np.repeat(live, np.diff(snaps[-1].bounds))

    merges = sorted((ev for ev in events if ev is not None),
                    key=lambda ev: (ev.time, ev.first_index))
    stats = {"accepted": 0, "rejected": 0, "rhs_evals": 0, "capped": 0, "events": len(merges)}
    return SimulationRecord(kernel=kernel, initial=ensemble,
                            times=np.array(times), snapshots=snaps, events=merges,
                            phi_integrals=phi,
                            v2_integrals=np.array(v2_vals), stats=stats)
