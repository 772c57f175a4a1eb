"""Disk round-trip of simulation output: one array file plus a JSON manifest.

A saved run is a directory with ``record.npz`` and ``metadata.json``.  The
manifest carries the kernel configuration and the solver counts
(``SimulationRecord.stats``, under ``stats``).  ``record.npz`` is an
uncompressed ``np.savez`` archive of these arrays:

* ``cells``: float ``(4, N)``, the cell masses, positions, velocities and psi;
* ``lineage``: int64 ``(N)``, the initial cluster of each cell;
* ``clusters``: int64 ``(T)``, the cluster count at each snapshot time;
* ``snapshots``: float ``(2, sum(clusters))``, cluster positions and
  velocities, snapshot after snapshot, clusters in order;
* ``accumulators``: float ``(T, 2)``, one row per snapshot time:
  ``t, v_norm2_integral``;
* ``phi_integral``: float ``(N)``, each cell's phi integral up to the last
  snapshot time;
* ``events``: float ``(E, 3)``, ``t, post_velocity, post_psi``;
* ``event_cells``: int64 ``(E, 2)``, ``first_index, last_index``.

These are all the fields of a :class:`~stickyalign.dynamics.SimulationRecord`
and its :class:`~stickyalign.dynamics.MergeEvent` objects, so a loaded record
equals the saved one.  Binary floats make a save/load cycle bit-exact, which
the golden regression tests rely on, and ``np.savez`` stamps every member
with one fixed date, so saving a loaded record reproduces the file byte for
byte.  Cluster masses and psi are not stored: they are pooled from the cells.

Loading checks the cells as ``Ensemble.from_particles`` checks raw particles
(finite, positive masses totalling 1, nondecreasing positions), and their psi
for finiteness, and refuses invalid cell data: ``stickyalign verify`` exits 4
on it instead of failing its checks.  Every other float must be finite too,
snapshot times strictly increasing and event times nonnegative and
nondecreasing.  Loading then replays the merge events over the cell grid to
rebuild each snapshot's ``starts`` (an event ``[first_index, last_index]``
removes the cluster starts inside it), so a loaded record's cluster/cell
bookkeeping matches the in-memory one.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .dynamics import MergeEvent, SimulationRecord
from .ensemble import Ensemble, _checked_cells
from .exceptions import InvalidEnsembleError, RecordIOError
from .flux import FluxAnalysis
from .kernels import kernel_from_config, kernel_to_config

__all__ = [
    "save_record",
    "load_record",
    "save_flux_analysis",
]

RECORD_FILES = ("metadata.json", "record.npz")

# every member of record.npz with its dtype and number of dimensions
_MEMBERS = {
    "cells": (np.dtype(float), 2),
    "lineage": (np.dtype(np.int64), 1),
    "clusters": (np.dtype(np.int64), 1),
    "snapshots": (np.dtype(float), 2),
    "accumulators": (np.dtype(float), 2),
    "phi_integral": (np.dtype(float), 1),
    "events": (np.dtype(float), 2),
    "event_cells": (np.dtype(np.int64), 2),
}


def _write_table(path: Path, fields, table, row_format: str | None = None) -> None:
    """Write the header ``fields``, then one line per row of ``table``.

    ``table`` is a 2-D float array, or rows of mixed values when ``row_format``
    gives each column's format; floats are written ``%.17g``, which reads back
    bit-exact.
    """
    row_format = (row_format or ",".join(["%.17g"] * len(fields))) + "\n"
    values = np.asarray(table, dtype=object).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        fh.write(row_format * len(table) % tuple(values))


def save_record(record: SimulationRecord, directory, extra_metadata: dict | None = None) -> Path:
    """Write a run to ``directory`` (created if needed); returns the path.

    ``extra_metadata`` entries (e.g. a config echo, seed, timings) are merged
    into ``metadata.json`` next to the kernel and the solver counts.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    init, snaps, events = record.initial, record.snapshots, record.events
    np.savez(
        d / "record.npz",
        cells=np.stack((init.cell_masses, init.cell_positions, init.cell_velocities,
                        init.cell_psi)),
        lineage=init.lineage.astype(np.int64),
        clusters=np.array([s.n_clusters for s in snaps], dtype=np.int64),
        snapshots=np.stack((np.concatenate([s.positions for s in snaps]),
                            np.concatenate([s.velocities for s in snaps]))),
        accumulators=np.column_stack((record.times, record.v2_integrals)),
        phi_integral=record.phi_integrals,
        events=np.array([(ev.time, ev.post_velocity, ev.post_psi) for ev in events],
                        dtype=float).reshape(-1, 3),
        event_cells=np.array([(ev.first_index, ev.last_index) for ev in events],
                             dtype=np.int64).reshape(-1, 2),
    )
    meta = {"format": "stickyalign-record", "kernel": kernel_to_config(record.kernel),
            "stats": record.stats}
    if extra_metadata:
        meta.update(extra_metadata)
    with open(d / "metadata.json", "w") as fh:
        json.dump(meta, fh)
        fh.write("\n")
    return d


def _read_arrays(path: Path) -> dict[str, np.ndarray]:
    """Every member of ``record.npz``, each checked for its dtype and ndim."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in _MEMBERS}
    except (OSError, EOFError, ValueError, KeyError, TypeError, RuntimeError,
            zipfile.BadZipFile) as exc:
        raise RecordIOError(f"cannot read {path}: {exc}") from exc
    for name, (dtype, ndim) in _MEMBERS.items():
        if arrays[name].dtype != dtype or arrays[name].ndim != ndim:
            raise RecordIOError(f"{path.name}: {name} must be a {ndim}-D {dtype} array, got a "
                                f"{arrays[name].ndim}-D {arrays[name].dtype} array")
    return arrays


def _first_cover(n, lo, hi) -> np.ndarray:
    """For each index in ``[0, n)`` the first ``k`` with ``lo[k] <= index <= hi[k]``,
    else ``len(lo)``: a sparse table marks each range as two power-of-two
    blocks, and each level hands its minimum down to the halves of its blocks."""
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(length)), exact
    table = np.full((int(level.max(initial=0)) + 1, n), lo.size)
    for start in (lo, hi + 1 - (1 << level)):
        np.minimum.at(table, (level, start), np.arange(lo.size))
    for j in range(table.shape[0] - 1, 0, -1):
        half = 1 << (j - 1)
        np.minimum(table[j - 1], table[j], out=table[j - 1])
        np.minimum(table[j - 1, half:], table[j, :-half], out=table[j - 1, half:])
    return table[0]


def load_record(directory) -> SimulationRecord:
    """Rebuild a :class:`SimulationRecord` saved by :func:`save_record`.

    Snapshot partitions are replayed from the events: at each snapshot the
    replay consumes events (in file order) until the cluster count matches
    the snapshot's, so events recorded exactly at a node land on the correct
    side.  An event left over after the last snapshot is an error, as are
    snapshot rows whose positions are not finite and strictly increasing
    within one time, any other float that is not finite, and event times
    that are negative or decrease.  A manifest without ``stats`` loads with
    ``stats == {}``; invalid cell data, and anything else missing or
    inconsistent (an older layout has no ``record.npz``, or no
    ``phi_integral``), raises :class:`RecordIOError`.
    """
    d = Path(directory)
    try:
        with open(d / "metadata.json") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise RecordIOError(f"cannot read {d / 'metadata.json'}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RecordIOError(f"malformed metadata.json: {exc}") from exc
    try:
        kernel = kernel_from_config(meta["kernel"])
        stats = meta.get("stats", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordIOError(f"malformed metadata.json: {exc}") from exc
    if not (isinstance(stats, dict) and all(type(n) is int and n >= 0 for n in stats.values())):
        raise RecordIOError("metadata.json: stats must map names to non-negative integers")

    arrays = _read_arrays(d / "record.npz")
    cells, lineage0, clusters = arrays["cells"], arrays["lineage"], arrays["clusters"]
    rows, acc, phi = arrays["snapshots"], arrays["accumulators"], arrays["phi_integral"]
    ev_table, ev_cells = arrays["events"], arrays["event_cells"]
    n = lineage0.size
    if not (cells.shape == (4, n) and acc.shape == (clusters.size, 2) and phi.shape == (n,)
            and rows.shape == (2, int(np.sum(clusters))) and np.all(clusters > 0)
            and ev_table.shape[1] == 3 and ev_cells.shape == (len(ev_table), 2)):
        raise RecordIOError("record.npz: array shapes do not match one another (cells (4, N), "
                            "accumulators (T, 2), phi_integral (N), snapshots (2, sum of "
                            "positive clusters), events (E, 3), event_cells (E, 2))")
    if not clusters.size:
        raise RecordIOError("record.npz holds no snapshots")
    try:
        m, x, v = _checked_cells(*cells[:3])
    except InvalidEnsembleError as exc:
        raise RecordIOError(f"record.npz: cells: {exc}") from exc
    psi = cells[3]
    if not np.all(np.isfinite(psi)):
        raise RecordIOError("record.npz: cells: psi must be finite")
    for name, values in (("accumulators", acc), ("phi_integral", phi), ("events", ev_table)):
        if not np.all(np.isfinite(values)):
            raise RecordIOError(f"record.npz: {name} must be finite")
    if not np.all(np.diff(ev_table[:, 0], prepend=0.0) >= 0.0):
        raise RecordIOError("record.npz: event times must be nonnegative and nondecreasing")

    first, last = ev_cells.T
    bad = ~((0 <= first) & (first < last) & (last < n))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RecordIOError(f"event at t={ev_table[k, 0]}: bad cell range "
                            f"[{first[k]}, {last[k]}] (indices in [0, {n}) expected)")
    events = [MergeEvent(time=t, first_index=i, last_index=j, post_velocity=post_v,
                         post_psi=post_psi)
              for (t, post_v, post_psi), (i, j) in zip(ev_table.tolist(), ev_cells.tolist())]

    times = acc[:, 0]
    if not np.all(np.diff(times) > 0):
        raise RecordIOError("record.npz: snapshot times must be strictly increasing")
    t_rows = np.repeat(times, clusters)
    x_rows, v_rows = rows
    bad = ~(np.isfinite(x_rows) & np.isfinite(v_rows))
    bad[1:] |= (t_rows[1:] == t_rows[:-1]) & ~(x_rows[1:] > x_rows[:-1])
    if np.any(bad):
        raise RecordIOError(f"record.npz: snapshot at t={t_rows[np.argmax(bad)]}: positions "
                            "must be finite and strictly increasing, velocities finite")

    # replay the merge events: a cluster start closes at the first event whose
    # range holds it; a snapshot takes events while clusters are left over and
    # the next event is due by its time
    opens = np.flatnonzero(np.concatenate(([True], lineage0[1:] != lineage0[:-1])))
    closing = _first_cover(n, first + 1, last)[opens]
    left = opens.size - np.searchsorted(np.sort(closing), np.arange(len(events) + 1))
    due = np.searchsorted(ev_table[:, 0], times + 1e-9 * np.maximum(1.0, np.abs(times)), "right")
    cursors = np.maximum.accumulate(np.minimum(np.searchsorted(-left, -clusters), due))
    snapshots = []
    for t, count, cursor, (xs, vs) in zip(times.tolist(), clusters.tolist(), cursors.tolist(),
                                          np.split(rows, np.cumsum(clusters)[:-1], axis=1)):
        if left[cursor] != count:
            raise RecordIOError(f"snapshot at t={t}: {count} clusters but event replay "
                                f"gives {left[cursor]}")
        snapshots.append(Ensemble._assemble(m, x, v, psi, opens[closing >= cursor],
                                            cluster_positions=xs, cluster_velocities=vs))
    if cursors[-1] < len(events):
        raise RecordIOError(f"event at t={events[cursors[-1]].time} is not reflected in any "
                            "snapshot (event replay ended at the last snapshot)")

    return SimulationRecord(kernel=kernel, initial=snapshots[0], times=times,
                            snapshots=snapshots, events=events, phi_integrals=phi,
                            v2_integrals=acc[:, 1], stats=stats)


# -- flux analysis exports ----------------------------------------------


def save_flux_analysis(analysis: FluxAnalysis, directory) -> Path:
    """Write flux.csv (nodes of A and its envelope), regions.csv, subgroups.csv."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    nodes = analysis.A.nodes
    _write_table(d / "flux.csv", ("m", "A", "A_star_star"),
                 np.column_stack((nodes, analysis.A.values, analysis.A_star_star(nodes))))
    _write_table(d / "regions.csv", ("m_lo", "m_hi", "label"),
                 [(r.m_lo, r.m_hi, r.label.value) for r in analysis.regions],
                 "%.17g,%.17g,%s")
    _write_table(d / "subgroups.csv", ("m_lo", "m_hi", "psi", "forecast"),
                 [(s.m_lo, s.m_hi, s.psi, s.forecast.value) for s in analysis.subgroups],
                 "%.17g,%.17g,%.17g,%s")
    return d
