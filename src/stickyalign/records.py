"""Disk round-trip of simulation output: CSV tables plus a JSON manifest.

A saved run is a directory with ``snapshots.csv``, ``events.csv``,
``accumulators.csv`` and ``metadata.json``.  The manifest carries the kernel
configuration, the immutable cell data and the solver counts
(``SimulationRecord.stats``, under ``stats``); the CSV tables carry everything
time-dependent, each written and read as one 2-D float array:

* ``snapshots.csv``: ``t, position, velocity``, one row per cluster and time,
  clusters in order (a row's cluster index is its rank within its time).
  Cluster masses and psi are not stored: they are pooled from the cells.
* ``events.csv``: ``t, first_index, last_index, post_velocity, post_psi``.
* ``accumulators.csv``: one row per snapshot time, with the columns
  ``t, v_norm2_integral, phi_0 ... phi_{N-1}`` (one per cell).

Every float is written with 17 significant digits so a save/load cycle is
bit-exact, which the golden regression tests rely on.  A table whose header
differs from these columns (such as the older snapshot layout with
``cluster_id``, ``mass`` and ``psi``) is refused.

Loading checks the manifest's cells as ``Ensemble.from_particles`` checks
raw particles (finite, positive masses totalling 1, nondecreasing positions),
and their psi for finiteness, and refuses invalid cell data: ``stickyalign
verify`` exits 4 on it instead of failing its checks.  It then replays the
merge events over the cell grid to rebuild each snapshot's ``starts`` (an
event ``[first_index, last_index]`` removes the cluster starts inside it), so
a loaded record's cluster/cell bookkeeping matches the in-memory one.
Cluster velocities at event instants are not serialized, hence loaded
:class:`~stickyalign.dynamics.MergeEvent` objects have
``pre_velocities=None``.
"""

from __future__ import annotations

import io
import json
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

SNAPSHOT_FIELDS = ("t", "position", "velocity")
EVENT_FIELDS = ("t", "first_index", "last_index", "post_velocity", "post_psi")


def _accumulator_fields(n_cells: int) -> tuple[str, ...]:
    return ("t", "v_norm2_integral") + tuple(f"phi_{i}" for i in range(n_cells))


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


def _read_table(path: Path, fields) -> np.ndarray:
    """The rows under the header ``fields`` as one ``(rows, len(fields))`` float array."""
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            body = fh.read()
    except OSError as exc:
        raise RecordIOError(f"cannot read {path}: {exc}") from exc
    if header != ",".join(fields):
        raise RecordIOError(f"{path.name}: expected columns {','.join(fields)}, got {header!r}")
    if not body.strip():
        return np.empty((0, len(fields)))
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise RecordIOError(f"malformed {path.name}: {exc}") from exc
    if table.shape[1] != len(fields):
        raise RecordIOError(f"malformed {path.name}: rows must have {len(fields)} columns")
    return table


def save_record(record: SimulationRecord, directory, extra_metadata: dict | None = None) -> Path:
    """Write a run to ``directory`` (created if needed); returns the path.

    ``extra_metadata`` entries (e.g. a config echo, seed, timings) are merged
    into ``metadata.json`` next to the kernel and cell data.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    snaps = record.snapshots
    _write_table(d / "snapshots.csv", SNAPSHOT_FIELDS, np.column_stack((
        np.repeat(record.times, [s.n_clusters for s in snaps]),
        np.concatenate([s.positions for s in snaps]),
        np.concatenate([s.velocities for s in snaps]))))
    _write_table(d / "events.csv", EVENT_FIELDS,
                 np.array([(ev.time, ev.first_index, ev.last_index, ev.post_velocity,
                            ev.post_psi) for ev in record.events]).reshape(-1, len(EVENT_FIELDS)))
    if record.phi_integrals is not None and record.v2_integrals is not None:
        _write_table(d / "accumulators.csv", _accumulator_fields(record.initial.n_cells),
                     np.column_stack((record.times, record.v2_integrals, record.phi_integrals)))

    init = record.initial
    meta = {
        "format": "stickyalign-record",
        "kernel": kernel_to_config(record.kernel),
        "cells": {
            "masses": init.cell_masses.tolist(),
            "positions": init.cell_positions.tolist(),
            "velocities": init.cell_velocities.tolist(),
            "psi": init.cell_psi.tolist(),
            "lineage": init.lineage.tolist(),
        },
        "stats": record.stats,
    }
    if extra_metadata:
        meta.update(extra_metadata)
    with open(d / "metadata.json", "w") as fh:
        json.dump(meta, fh)
        fh.write("\n")
    return d


def load_record(directory) -> SimulationRecord:
    """Rebuild a :class:`SimulationRecord` saved by :func:`save_record`.

    Snapshot partitions are replayed from the event table: at each snapshot
    the replay consumes events (in file order) until the cluster count
    matches the snapshot's row count, so events recorded exactly at a node
    land on the correct side.  An event left over after the last snapshot is
    an error, as are snapshot rows whose positions are not finite and strictly
    increasing within one time, or whose velocities are not finite.  A missing
    ``accumulators.csv`` loads with the integral fields
    set to ``None``, a manifest without ``stats`` with ``stats == {}``;
    invalid cell data, and anything else missing or inconsistent, raises
    :class:`RecordIOError`.
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
        cell_data = meta["cells"]
        m, x, v = _checked_cells(cell_data["masses"], cell_data["positions"],
                                 cell_data["velocities"])
        psi = np.array(cell_data["psi"], dtype=float)
        lineage0 = np.array(cell_data["lineage"], dtype=np.intp)
        stats = meta.get("stats", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordIOError(f"malformed metadata.json: {exc}") from exc
    except InvalidEnsembleError as exc:
        raise RecordIOError(f"metadata.json: cells: {exc}") from exc
    if psi.shape != m.shape or lineage0.shape != m.shape or not np.all(np.isfinite(psi)):
        raise RecordIOError("metadata.json: cells: psi and lineage need one entry per cell, "
                            "psi finite")
    if not (isinstance(stats, dict) and all(type(n) is int and n >= 0 for n in stats.values())):
        raise RecordIOError("metadata.json: stats must map names to non-negative integers")

    ev_table = _read_table(d / "events.csv", EVENT_FIELDS)
    first, last = ev_table[:, 1], ev_table[:, 2]
    bad = ~((0 <= first) & (first < last) & (last < m.size)
            & (first == np.floor(first)) & (last == np.floor(last)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RecordIOError(f"event at t={ev_table[k, 0]}: bad cell range "
                            f"[{first[k]:g}, {last[k]:g}] (integers in [0, {m.size}) expected)")
    events = [MergeEvent(time=t, first_index=int(i), last_index=int(j),
                         post_velocity=post_v, post_psi=post_psi)
              for t, i, j, post_v, post_psi in ev_table.tolist()]

    snap_table = _read_table(d / "snapshots.csv", SNAPSHOT_FIELDS)
    if not snap_table.size:
        raise RecordIOError("snapshots.csv has no rows")
    bounds = np.flatnonzero(np.diff(snap_table[:, 0])) + 1
    times = snap_table[np.concatenate(([0], bounds)), 0]
    if not np.all(np.diff(times) > 0):
        raise RecordIOError("snapshots.csv: times must be strictly increasing")
    t_rows, x_rows, v_rows = snap_table.T
    bad = ~(np.isfinite(x_rows) & np.isfinite(v_rows))
    bad[1:] |= (t_rows[1:] == t_rows[:-1]) & ~(x_rows[1:] > x_rows[:-1])
    if np.any(bad):
        raise RecordIOError(f"snapshots.csv: snapshot at t={t_rows[np.argmax(bad)]}: positions "
                            "must be finite and strictly increasing, velocities finite")

    # replay the merge events: an event clears the cluster starts inside it
    opens = np.concatenate(([True], lineage0[1:] != lineage0[:-1]))
    cursor = 0
    snapshots = []
    for t, rows in zip(times.tolist(), np.split(snap_table, bounds)):
        while cursor < len(events) and np.count_nonzero(opens) > len(rows):
            ev = events[cursor]
            if ev.time > t + 1e-9 * max(1.0, abs(t)):
                break
            opens[ev.first_index + 1:ev.last_index + 1] = False
            cursor += 1
        starts = np.flatnonzero(opens)
        if starts.size != len(rows):
            raise RecordIOError(f"snapshot at t={t}: {len(rows)} rows but event replay "
                                f"gives {starts.size} clusters")
        snapshots.append(Ensemble._assemble(m, x, v, psi, starts, cluster_positions=rows[:, 1],
                                            cluster_velocities=rows[:, 2]))
    if cursor < len(events):
        raise RecordIOError(f"event at t={events[cursor].time} is not reflected in any "
                            "snapshot (event replay ended at the last snapshot)")

    phi_integrals = None
    v2_integrals = None
    if (d / "accumulators.csv").exists():
        table = _read_table(d / "accumulators.csv", _accumulator_fields(m.size))
        if table.shape[0] != times.size or not np.array_equal(table[:, 0], times):
            raise RecordIOError("accumulators.csv times do not match snapshots.csv")
        v2_integrals = table[:, 1]
        phi_integrals = table[:, 2:]

    return SimulationRecord(kernel=kernel, initial=snapshots[0],
                            times=times, snapshots=snapshots, events=events,
                            phi_integrals=phi_integrals, v2_integrals=v2_integrals,
                            stats=stats)


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
