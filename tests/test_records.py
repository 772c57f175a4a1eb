"""Disk round-trips: bit-exactness, event replay, and malformed-input errors."""

import json
import re

import numpy as np
import pytest

from stickyalign import (
    Exponential,
    PowerLaw,
    RecordIOError,
    Zero,
    analyze,
    load_record,
    save_flux_analysis,
    save_record,
    simulate,
)
from stickyalign.cli import EXIT_IO_ERROR, run_verify
from stickyalign.ensemble import MASS_BUDGET_TOL
from stickyalign.verify import verify_record
from tests.conftest import KERNEL_POOL, ensemble_with_psi, random_scenario


@pytest.fixture
def eventful_record(rng):
    """A run guaranteed to contain merges strictly between snapshot nodes."""
    ens = ensemble_with_psi([0.25, 0.25, 0.25, 0.25], [-0.6, -0.2, 0.2, 0.6],
                            [2.0, -1.0, 0.0, 3.0], PowerLaw(1.0, 0.5, 1.0))
    rec = simulate(ens, PowerLaw(1.0, 0.5, 1.0), 4.0, 1.0)
    assert rec.events
    return rec


def _assert_same_bits(got, orig):
    got, orig = np.asarray(got), np.asarray(orig)
    assert (got.dtype, got.shape) == (orig.dtype, orig.shape)
    assert got.tobytes() == orig.tobytes()


def _assert_same_record(back, rec):
    """Bit equality of everything a saved record carries."""
    _assert_same_bits(back.times, rec.times)
    assert back.kernel == rec.kernel
    assert len(back.snapshots) == len(rec.snapshots)
    for orig, got in zip(rec.snapshots, back.snapshots):
        for field in ("positions", "velocities", "masses", "psi", "starts", "cell_masses",
                      "cell_positions", "cell_velocities", "cell_psi"):
            _assert_same_bits(getattr(got, field), getattr(orig, field))
        got.validate()
    fields = ("time", "first_index", "last_index", "post_velocity", "post_psi")
    assert [tuple(getattr(e, f) for f in fields) for e in back.events] == \
        [tuple(getattr(e, f) for f in fields) for e in rec.events]
    assert all(e.pre_velocities is None for e in back.events)  # not serialized
    _assert_same_bits(back.phi_integrals, rec.phi_integrals)
    _assert_same_bits(back.v2_integrals, rec.v2_integrals)
    assert back.stats == rec.stats


def test_round_trip_is_bit_exact(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    _assert_same_record(load_record(tmp_path), eventful_record)


def test_save_load_save_is_idempotent(eventful_record, tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    save_record(eventful_record, d1)
    save_record(load_record(d1), d2)
    for name in ("snapshots.csv", "events.csv", "accumulators.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_extra_metadata_lands_in_manifest(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path, extra_metadata={"seed": 7, "note": "x"})
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["seed"] == 7
    assert meta["note"] == "x"
    assert meta["kernel"]["type"] == "power_law"
    assert len(meta["cells"]["masses"]) == eventful_record.initial.n_cells


def test_missing_accumulators_load_as_none(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    (tmp_path / "accumulators.csv").unlink()
    back = load_record(tmp_path)
    assert back.phi_integrals is None
    assert back.v2_integrals is None


def test_random_scenarios_survive_round_trip(rng, tmp_path):
    for i, kernel in enumerate(KERNEL_POOL * 2):
        ens, _ = random_scenario(rng, 20, kernel=kernel)
        rec = simulate(ens, kernel, 2.0, 0.5)
        d = tmp_path / str(i)
        save_record(rec, d)
        _assert_same_record(load_record(d), rec)


def test_record_from_a_merged_snapshot(tmp_path):
    """Initial clusters of several cells at distinct positions come back from
    the saved lineage, not from the positions."""
    kernel = PowerLaw(1.0, 0.5, 1.0)
    ens = ensemble_with_psi([0.25] * 4, [-0.6, -0.2, 0.2, 0.6], [2.0, 1.0, 0.0, -1.0],
                            kernel).merged([(0, 2), (2, 4)])
    rec = simulate(ens, kernel, 2.0, 0.5)
    assert rec.initial.lineage.tolist() == [0, 0, 1, 1] and rec.events
    save_record(rec, tmp_path)
    back = load_record(tmp_path)
    _assert_same_record(back, rec)
    assert all(r.passed for r in verify_record(back))


def test_stats_in_manifest(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["stats"] == eventful_record.stats and eventful_record.stats["accepted"] > 0
    del meta["stats"]
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    assert load_record(tmp_path).stats == {}
    for bad in ([1], {"accepted": -1}, {"accepted": 1.5}, {"accepted": True}):
        (tmp_path / "metadata.json").write_text(json.dumps({**meta, "stats": bad}))
        with pytest.raises(RecordIOError, match="metadata.json: stats"):
            load_record(tmp_path)


# -- malformed inputs ----------------------------------------------------


def _tamper(path, old, new, count=1):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


def test_missing_manifest(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    (tmp_path / "metadata.json").unlink()
    with pytest.raises(RecordIOError, match="metadata.json"):
        load_record(tmp_path)


def test_malformed_manifest_json(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    (tmp_path / "metadata.json").write_text("{not json")
    with pytest.raises(RecordIOError, match="malformed"):
        load_record(tmp_path)


def test_manifest_missing_key(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    del meta["cells"]
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(RecordIOError):
        load_record(tmp_path)


def test_unknown_kernel_family(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    meta["kernel"]["type"] = "no-such-kernel"
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(RecordIOError):
        load_record(tmp_path)


@pytest.mark.parametrize("key, index, value", [
    ("masses", 1, 0.0), ("masses", 1, -0.25),
    ("masses", 0, np.inf), ("positions", 3, np.nan), ("velocities", 1, -np.inf),
    ("psi", 2, np.nan), ("positions", 0, 0.0), ("masses", 3, 0.5),
    ("masses", 0, 0.25 + 2 * MASS_BUDGET_TOL), ("positions", 1, "x"),
], ids=["zero-mass", "negative-mass", "inf-mass", "nan-position", "inf-velocity", "nan-psi",
        "decreasing-positions", "mass-total-1.25", "mass-total-just-off", "non-numeric"])
def test_invalid_cells_refused(eventful_record, tmp_path, capsys, key, index, value):
    save_record(eventful_record, tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    meta["cells"][key][index] = value
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(RecordIOError, match="metadata.json"):
        load_record(tmp_path)
    assert run_verify(tmp_path, quiet=True) == EXIT_IO_ERROR
    err = capsys.readouterr().err
    assert "metadata.json" in err and "Traceback" not in err


def test_wrong_snapshot_header(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    _tamper(tmp_path / "snapshots.csv", "t,position", "time,position")
    with pytest.raises(RecordIOError, match="expected columns"):
        load_record(tmp_path)


def test_dropped_event_row_breaks_replay(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    lines = (tmp_path / "events.csv").read_text().splitlines()
    (tmp_path / "events.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(RecordIOError, match="event replay"):
        load_record(tmp_path)


def test_event_with_bad_cell_range(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    lines = (tmp_path / "events.csv").read_text().splitlines()
    head, first = lines[0], lines[1].split(",")
    first[1], first[2] = "3", "9"  # beyond the 4-cell grid
    (tmp_path / "events.csv").write_text("\n".join([head, ",".join(first)] + lines[2:]) + "\n")
    with pytest.raises(RecordIOError, match="bad cell range"):
        load_record(tmp_path)


def test_non_integer_event_index(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    lines = (tmp_path / "events.csv").read_text().splitlines()
    first = lines[1].split(",")
    first[1] = str(int(first[1]) + 0.5)
    (tmp_path / "events.csv").write_text("\n".join([lines[0], ",".join(first)] + lines[2:]) + "\n")
    with pytest.raises(RecordIOError, match="bad cell range"):
        load_record(tmp_path)


def test_ragged_snapshot_row(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    with open(tmp_path / "snapshots.csv", "a") as fh:
        fh.write("4,1.0\n")
    with pytest.raises(RecordIOError, match="malformed snapshots.csv"):
        load_record(tmp_path)


def test_old_snapshot_layout_refused(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    (tmp_path / "snapshots.csv").write_text(
        "t,cluster_id,mass,position,velocity,psi\n" + "".join(
            f"{float(t)!r},{i},{m!r},{x!r},{v!r},{p!r}\n"
            for t, s in zip(eventful_record.times, eventful_record.snapshots)
            for i, (m, x, v, p) in enumerate(zip(s.masses, s.positions, s.velocities, s.psi))))
    with pytest.raises(RecordIOError, match="snapshots.csv: expected columns t,position,velocity"):
        load_record(tmp_path)


@pytest.mark.parametrize("line, column, value", [
    (1, 1, "nan"), (1, 1, "5.0"), (1, 2, "inf"), (-1, 1, "nan"),
], ids=["nan-position", "unordered-position", "inf-velocity", "nan-in-last-row"])
def test_corrupt_snapshot_rows_refused(eventful_record, tmp_path, capsys, line, column, value):
    save_record(eventful_record, tmp_path)
    lines = (tmp_path / "snapshots.csv").read_text().splitlines()
    row = lines[line].split(",")
    row[column] = value
    lines[line] = ",".join(row)
    (tmp_path / "snapshots.csv").write_text("\n".join(lines) + "\n")
    where = re.escape(f"snapshots.csv: snapshot at t={float(row[0])}")
    with pytest.raises(RecordIOError, match=where):
        load_record(tmp_path)
    assert run_verify(tmp_path, quiet=True) == EXIT_IO_ERROR
    assert "snapshots.csv" in capsys.readouterr().err


def test_empty_snapshot_table(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    (tmp_path / "snapshots.csv").write_text("t,position,velocity\n")
    with pytest.raises(RecordIOError, match="no rows"):
        load_record(tmp_path)


def test_accumulator_time_mismatch(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    _tamper(tmp_path / "accumulators.csv", "\n1,", "\n1.5,", count=1)
    with pytest.raises(RecordIOError):
        load_record(tmp_path)


def test_accumulators_one_row_per_time(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    lines = (tmp_path / "accumulators.csv").read_text().splitlines()
    assert lines[0] == "t,v_norm2_integral,phi_0,phi_1,phi_2,phi_3"
    assert len(lines) == 1 + eventful_record.times.size


def test_old_accumulator_layout_refused(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    (tmp_path / "accumulators.csv").write_text(
        "t,cell_id,phi_integral,v_norm2_integral\n" + "".join(
            f"{float(t)!r},{i},0,0\n" for t in eventful_record.times for i in range(4)))
    with pytest.raises(RecordIOError, match="accumulators.csv"):
        load_record(tmp_path)


def test_event_after_the_last_snapshot(tmp_path):
    kernel = Zero()
    ens = ensemble_with_psi([0.25] * 4, [-0.6, -0.2, 0.2, 0.6], [1.0, -1.0, 1.0, -1.0], kernel)
    rec = simulate(ens, kernel, 1.0, 0.5)
    assert rec.snapshots[-1].n_clusters == 2
    save_record(rec, tmp_path)
    with open(tmp_path / "events.csv", "a") as fh:
        fh.write("5.0,0,3,0.0,0.0\n")
    with pytest.raises(RecordIOError, match=re.escape("t=5.0")):
        load_record(tmp_path)


# -- flux analysis export ------------------------------------------------


def test_save_flux_analysis(tmp_path):
    kernel = Exponential(1.0)
    ens = ensemble_with_psi([0.25, 0.25, 0.25, 0.25], [-0.6, -0.2, 0.2, 0.6],
                            [2.0, -1.0, 0.0, 3.0], kernel)
    an = analyze(ens, kernel)
    save_flux_analysis(an, tmp_path)

    flux_lines = (tmp_path / "flux.csv").read_text().splitlines()
    assert flux_lines[0] == "m,A,A_star_star"
    assert len(flux_lines) == 1 + an.A.nodes.size
    m, a_val, hull_val = (float(s) for s in flux_lines[2].split(","))
    assert m == 0.25
    assert a_val == pytest.approx(float(an.A(0.25)), abs=1e-15)
    assert hull_val == pytest.approx(float(an.A_star_star(0.25)), abs=1e-15)

    region_lines = (tmp_path / "regions.csv").read_text().splitlines()
    assert region_lines[0] == "m_lo,m_hi,label"
    assert region_lines[1].endswith("Supercritical")

    sub_lines = (tmp_path / "subgroups.csv").read_text().splitlines()
    assert sub_lines[0] == "m_lo,m_hi,psi,forecast"
    # the (2, -1, 0) block is fully supercritical: finite time for any kernel
    assert sub_lines[1].endswith("FiniteTimeCluster")
    assert sub_lines[2].endswith("NoCluster")
