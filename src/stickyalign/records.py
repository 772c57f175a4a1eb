"""Disk round-trip of simulation output: CSV tables plus a JSON manifest.

A saved run is a directory with ``snapshots.csv``, ``events.csv``,
``accumulators.csv`` and ``metadata.json``.  The manifest carries the kernel
configuration and the immutable cell data; the CSV tables carry everything
time-dependent.  ``accumulators.csv`` has one row per snapshot time, with the
columns ``t, v_norm2_integral, phi_0 ... phi_{N-1}`` (one per cell).  All
floating-point columns use 17 significant digits so a save/load cycle is
bit-exact, which the golden regression tests rely on.

Loading replays the merge events over the cell grid to rebuild each
snapshot's ``starts`` (an event ``[first_index, last_index]`` removes the
cluster starts inside it), so a loaded record's cluster/cell bookkeeping
matches the in-memory one.  Cluster velocities at event instants are not
serialized, hence loaded :class:`~stickyalign.dynamics.MergeEvent` objects
have ``pre_velocities=None``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dynamics import MergeEvent, SimulationRecord
from .ensemble import Ensemble
from .exceptions import InvalidEnsembleError, RecordIOError
from .flux import FluxAnalysis
from .kernels import kernel_from_config, kernel_to_config

__all__ = [
    "save_record",
    "load_record",
    "ensemble_to_json",
    "ensemble_from_json",
    "write_ensemble_csv",
    "read_ensemble_csv",
    "save_flux_analysis",
]

SNAPSHOT_FIELDS = ("t", "cluster_id", "mass", "position", "velocity", "psi")
EVENT_FIELDS = ("t", "first_index", "last_index", "post_velocity", "post_psi")
ENSEMBLE_FIELDS = ("cluster_id", "mass", "position", "velocity", "psi")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _accumulator_fields(n_cells: int) -> tuple[str, ...]:
    return ("t", "v_norm2_integral") + tuple(f"phi_{i}" for i in range(n_cells))


def _write_csv(path: Path, fields, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def _read_csv(path: Path, fields) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != tuple(fields):
                raise RecordIOError(
                    f"{path.name}: expected columns {','.join(fields)}, "
                    f"got {reader.fieldnames}")
            return list(reader)
    except OSError as exc:
        raise RecordIOError(f"cannot read {path}: {exc}") from exc


def save_record(record: SimulationRecord, directory, extra_metadata: dict | None = None) -> Path:
    """Write a run to ``directory`` (created if needed); returns the path.

    ``extra_metadata`` entries (e.g. a config echo, seed, timings) are merged
    into ``metadata.json`` next to the kernel and cell data.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    rows = []
    for t, snap in zip(record.times, record.snapshots):
        for i in range(snap.n_clusters):
            rows.append((_fmt(t), i, _fmt(snap.masses[i]), _fmt(snap.positions[i]),
                         _fmt(snap.velocities[i]), _fmt(snap.psi[i])))
    _write_csv(d / "snapshots.csv", SNAPSHOT_FIELDS, rows)

    _write_csv(d / "events.csv", EVENT_FIELDS,
               [(_fmt(ev.time), ev.first_index, ev.last_index,
                 _fmt(ev.post_velocity), _fmt(ev.post_psi)) for ev in record.events])

    if record.phi_integrals is not None and record.v2_integrals is not None:
        _write_csv(d / "accumulators.csv", _accumulator_fields(record.initial.n_cells),
                   [[_fmt(t), _fmt(v2), *map(_fmt, phi)] for t, v2, phi in
                    zip(record.times, record.v2_integrals, record.phi_integrals)])

    init = record.initial
    meta = {
        "format": "stickyalign-record",
        "kernel": kernel_to_config(record.kernel),
        "cells": {
            "masses": [float(v) for v in init.cell_masses],
            "positions": [float(v) for v in init.cell_positions],
            "velocities": [float(v) for v in init.cell_velocities],
            "psi": [float(v) for v in init.cell_psi],
            "lineage": [int(v) for v in init.lineage],
        },
    }
    if extra_metadata:
        meta.update(extra_metadata)
    with open(d / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return d


def _group_by_time(rows):
    """Split consecutive snapshot rows sharing a ``t`` value; returns [(t, rows)]."""
    groups: list[tuple[float, list[dict]]] = []
    for row in rows:
        t = float(row["t"])
        if not groups or groups[-1][0] != t:
            if groups and t <= groups[-1][0]:
                raise RecordIOError(f"snapshots.csv: times must be strictly increasing (at t={t})")
            groups.append((t, []))
        groups[-1][1].append(row)
    return groups


def _snapshot_from_rows(cells, starts, t, rows) -> Ensemble:
    n_clusters = starts.size
    if len(rows) != n_clusters:
        raise RecordIOError(
            f"snapshot at t={t}: {len(rows)} rows but event replay gives "
            f"{n_clusters} clusters")
    ids = [int(r["cluster_id"]) for r in rows]
    if ids != list(range(n_clusters)):
        raise RecordIOError(f"snapshot at t={t}: cluster_id must run 0..{n_clusters - 1}")
    positions = np.array([float(r["position"]) for r in rows])
    velocities = np.array([float(r["velocity"]) for r in rows])
    snap = Ensemble._assemble(*cells, starts,
                              cluster_positions=positions, cluster_velocities=velocities)
    for row, mass, psi in zip(rows, snap.masses, snap.psi):
        if abs(float(row["mass"]) - mass) > 1e-9 * (1.0 + abs(mass)):
            raise RecordIOError(
                f"snapshot at t={t}: cluster mass {row['mass']} does not pool its cells")
        if abs(float(row["psi"]) - psi) > 1e-9 * (1.0 + abs(psi)):
            raise RecordIOError(
                f"snapshot at t={t}: cluster psi {row['psi']} does not pool its cells")
    return snap


def load_record(directory) -> SimulationRecord:
    """Rebuild a :class:`SimulationRecord` saved by :func:`save_record`.

    Snapshot partitions are replayed from the event table: at each snapshot
    the replay consumes events (in file order) until the cluster count
    matches the snapshot's row count, so events recorded exactly at a node
    land on the correct side.  An event left over after the last snapshot is
    an error.  A missing ``accumulators.csv`` loads with the integral fields
    set to ``None``; anything else missing or inconsistent raises
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
        cells = tuple(np.array(cell_data[key], dtype=float)
                      for key in ("masses", "positions", "velocities", "psi"))
        lineage0 = np.array(cell_data["lineage"], dtype=np.intp)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordIOError(f"malformed metadata.json: {exc}") from exc
    n_cells = cells[0].size
    if any(a.size != n_cells for a in cells) or lineage0.size != n_cells or n_cells == 0:
        raise RecordIOError("metadata.json: cell arrays must be equal-length and nonempty")

    try:
        events = [MergeEvent(time=float(r["t"]),
                             first_index=int(r["first_index"]),
                             last_index=int(r["last_index"]),
                             post_velocity=float(r["post_velocity"]),
                             post_psi=float(r["post_psi"]))
                  for r in _read_csv(d / "events.csv", EVENT_FIELDS)]
        snapshot_groups = _group_by_time(_read_csv(d / "snapshots.csv", SNAPSHOT_FIELDS))
    except (KeyError, ValueError) as exc:
        raise RecordIOError(f"malformed record table: {exc}") from exc
    if not snapshot_groups:
        raise RecordIOError("snapshots.csv has no rows")
    for ev in events:
        if not (0 <= ev.first_index < ev.last_index < n_cells):
            raise RecordIOError(f"event at t={ev.time}: bad cell range "
                                f"[{ev.first_index}, {ev.last_index}]")

    # replay the merge events: an event clears the cluster starts inside it
    opens = np.concatenate(([True], lineage0[1:] != lineage0[:-1]))
    cursor = 0
    times = []
    snapshots = []
    for t, rows in snapshot_groups:
        while cursor < len(events) and np.count_nonzero(opens) > len(rows):
            ev = events[cursor]
            if ev.time > t + 1e-9 * max(1.0, abs(t)):
                break
            opens[ev.first_index + 1:ev.last_index + 1] = False
            cursor += 1
        try:
            snapshots.append(_snapshot_from_rows(cells, np.flatnonzero(opens), t, rows))
        except InvalidEnsembleError as exc:
            raise RecordIOError(f"snapshot at t={t}: {exc}") from exc
        times.append(t)
    if cursor < len(events):
        raise RecordIOError(f"event at t={events[cursor].time} is not reflected in any "
                            "snapshot (event replay ended at the last snapshot)")

    phi_integrals = None
    v2_integrals = None
    if (d / "accumulators.csv").exists():
        fields = _accumulator_fields(n_cells)
        rows = _read_csv(d / "accumulators.csv", fields)
        try:
            table = np.array([[float(r[f]) for f in fields] for r in rows])
        except (TypeError, ValueError) as exc:
            raise RecordIOError(f"malformed accumulators.csv: {exc}") from exc
        if table.shape != (len(times), len(fields)) or table[:, 0].tolist() != times:
            raise RecordIOError("accumulators.csv times do not match snapshots.csv")
        v2_integrals = table[:, 1]
        phi_integrals = table[:, 2:]

    return SimulationRecord(kernel=kernel, initial=snapshots[0],
                            times=np.array(times), snapshots=snapshots, events=events,
                            phi_integrals=phi_integrals, v2_integrals=v2_integrals)


# -- standalone ensemble serialization ----------------------------------


def ensemble_to_json(ensemble: Ensemble) -> dict:
    """Cluster-level state as a plain dict (keys match the CSV columns)."""
    return {
        "masses": [float(v) for v in ensemble.masses],
        "positions": [float(v) for v in ensemble.positions],
        "velocities": [float(v) for v in ensemble.velocities],
        "natural_velocities": [float(v) for v in ensemble.psi],
    }


def _ensemble_from_arrays(m, x, v, psi, *, normalize: bool) -> Ensemble:
    """Rebuild an ensemble whose cells are the listed clusters themselves."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != np.shape(m):
        raise RecordIOError("ensemble arrays must be equal-length, nonempty, 1-d")
    if not np.all(np.isfinite(psi)):
        raise RecordIOError("ensemble state must be finite")
    try:
        return Ensemble._from_cells(m, x, v, psi, normalize=normalize)
    except InvalidEnsembleError as exc:
        raise RecordIOError(str(exc)) from exc


def ensemble_from_json(data: dict, *, normalize: bool = False) -> Ensemble:
    """Inverse of :func:`ensemble_to_json`.

    The stored natural velocities are taken as given (no kernel is needed),
    and each listed cluster becomes one cell of the rebuilt ensemble.
    """
    try:
        return _ensemble_from_arrays(data["masses"], data["positions"],
                                     data["velocities"], data["natural_velocities"],
                                     normalize=normalize)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordIOError(f"malformed ensemble JSON: {exc}") from exc


def write_ensemble_csv(ensemble: Ensemble, path) -> None:
    """One row per cluster: cluster_id, mass, position, velocity, psi."""
    _write_csv(Path(path), ENSEMBLE_FIELDS,
               [(i, _fmt(ensemble.masses[i]), _fmt(ensemble.positions[i]),
                 _fmt(ensemble.velocities[i]), _fmt(ensemble.psi[i]))
                for i in range(ensemble.n_clusters)])


def read_ensemble_csv(path, *, normalize: bool = False) -> Ensemble:
    rows = _read_csv(Path(path), ENSEMBLE_FIELDS)
    if not rows:
        raise RecordIOError(f"{path}: no ensemble rows")
    try:
        return _ensemble_from_arrays(
            [float(r["mass"]) for r in rows],
            [float(r["position"]) for r in rows],
            [float(r["velocity"]) for r in rows],
            [float(r["psi"]) for r in rows],
            normalize=normalize)
    except (KeyError, ValueError) as exc:
        raise RecordIOError(f"malformed ensemble CSV: {exc}") from exc


# -- flux analysis exports ----------------------------------------------


def save_flux_analysis(analysis: FluxAnalysis, directory) -> Path:
    """Write flux.csv (nodes of A and its envelope), regions.csv, subgroups.csv."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    nodes = analysis.A.nodes
    _write_csv(d / "flux.csv", ("m", "A", "A_star_star"),
               [(_fmt(m), _fmt(a), _fmt(analysis.A_star_star(m)))
                for m, a in zip(nodes, analysis.A.values)])
    _write_csv(d / "regions.csv", ("m_lo", "m_hi", "label"),
               [(_fmt(r.m_lo), _fmt(r.m_hi), r.label.value) for r in analysis.regions])
    _write_csv(d / "subgroups.csv", ("m_lo", "m_hi", "psi", "forecast"),
               [(_fmt(s.m_lo), _fmt(s.m_hi), _fmt(s.psi), s.forecast.value)
                for s in analysis.subgroups])
    return d
