"""Disk round-trips: bit-exactness, event replay, and malformed-input errors."""

import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from stickyalign.cli import EXIT_CONFIG_ERROR, EXIT_IO_ERROR, run_verify
from stickyalign.ensemble import MASS_BUDGET_TOL
from stickyalign.records import RECORD_FILES, _first_cover
from stickyalign.verify import verify_record
from tests.conftest import (KERNEL_POOL, ensemble_with_psi, random_scenario, rewrite_record,
                            validate_ensemble)


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
        validate_ensemble(got)
    assert back.events == rec.events  # a MergeEvent holds only stored fields
    _assert_same_bits(back.phi_integrals, rec.phi_integrals)
    _assert_same_bits(back.v2_integrals, rec.v2_integrals)
    assert back.stats == rec.stats


def test_round_trip_is_bit_exact(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(RECORD_FILES)
    _assert_same_record(load_record(tmp_path), eventful_record)


def test_save_load_save_is_idempotent(eventful_record, tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    save_record(eventful_record, d1)
    save_record(load_record(d1), d2)
    for name in RECORD_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_extra_metadata_lands_in_manifest(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path, extra_metadata={"seed": 7, "note": "x"})
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["seed"] == 7
    assert meta["note"] == "x"
    assert meta["kernel"]["type"] == "power_law"
    # every array lives in record.npz
    assert set(meta) == {"format", "kernel", "stats", "seed", "note"}


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


def _arrays(directory):
    with np.load(directory / "record.npz") as npz:
        return dict(npz)


def _refused(directory, capsys, match, where="record.npz"):
    """load_record raises RecordIOError, and `stickyalign verify` exits 4
    naming ``where`` without a traceback."""
    with pytest.raises(RecordIOError, match=match):
        load_record(directory)
    assert run_verify(directory, quiet=True) == EXIT_IO_ERROR
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


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
    del meta["kernel"]
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


def test_boolean_kernel_parameter(eventful_record, tmp_path, capsys):
    save_record(eventful_record, tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    meta["kernel"]["c"] = True  # float(True) is a valid c
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    _refused(tmp_path, capsys, "c must be a number", where="metadata.json")


CELL_ROWS = {"masses": 0, "positions": 1, "velocities": 2, "psi": 3}


@pytest.mark.parametrize("key, index, value", [
    ("masses", 1, 0.0), ("masses", 1, -0.25),
    ("masses", 0, np.inf), ("positions", 3, np.nan), ("velocities", 1, -np.inf),
    ("psi", 2, np.nan), ("positions", 0, 0.0), ("masses", 3, 0.5),
    ("masses", 0, 0.25 + 2 * MASS_BUDGET_TOL), ("positions", 1, "x"),
], ids=["zero-mass", "negative-mass", "inf-mass", "nan-position", "inf-velocity", "nan-psi",
        "decreasing-positions", "mass-total-1.25", "mass-total-just-off", "non-numeric"])
def test_invalid_cells_refused(eventful_record, tmp_path, capsys, key, index, value):
    save_record(eventful_record, tmp_path)
    cells = _arrays(tmp_path)["cells"]
    if isinstance(value, str):
        cells = cells.astype(str)
    cells[CELL_ROWS[key], index] = value
    rewrite_record(tmp_path, cells=cells)
    _refused(tmp_path, capsys, "record.npz")


def test_wrong_snapshot_header(eventful_record, tmp_path, capsys):
    # the .npy header of a member declares its dtype and shape
    save_record(eventful_record, tmp_path)
    rewrite_record(tmp_path, snapshots=_arrays(tmp_path)["snapshots"].T.ravel())
    _refused(tmp_path, capsys, "snapshots must be a 2-D float64 array, got a 1-D float64")


def test_dropped_event_row_breaks_replay(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    arrays = _arrays(tmp_path)
    rewrite_record(tmp_path, events=arrays["events"][:-1], event_cells=arrays["event_cells"][:-1])
    with pytest.raises(RecordIOError, match="event replay"):
        load_record(tmp_path)


@given(st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))))
@settings(max_examples=200, deadline=None)
def test_first_cover_is_the_replay_loop(case):
    # the event replay as a loop: range k clears what no earlier range cleared
    n, pairs = case
    lo = np.array([min(p) for p in pairs], dtype=np.int64)
    hi = np.array([max(p) for p in pairs], dtype=np.int64)
    loop = np.full(n, len(pairs))
    for k in range(len(pairs) - 1, -1, -1):
        loop[lo[k]:hi[k] + 1] = k
    np.testing.assert_array_equal(_first_cover(n, lo, hi), loop)


def test_event_with_bad_cell_range(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    event_cells = _arrays(tmp_path)["event_cells"]
    event_cells[0] = (3, 9)  # beyond the 4-cell grid
    rewrite_record(tmp_path, event_cells=event_cells)
    with pytest.raises(RecordIOError, match=re.escape("bad cell range [3, 9]")):
        load_record(tmp_path)


def test_non_integer_event_index(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    event_cells = _arrays(tmp_path)["event_cells"] + 0.5
    rewrite_record(tmp_path, event_cells=event_cells)
    with pytest.raises(RecordIOError, match="event_cells must be a 2-D int64 array"):
        load_record(tmp_path)


def test_ragged_snapshot_row(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    snapshots = _arrays(tmp_path)["snapshots"]
    rewrite_record(tmp_path, snapshots=np.column_stack((snapshots, [4.0, 1.0])))
    with pytest.raises(RecordIOError, match="shapes do not match"):
        load_record(tmp_path)


def test_old_snapshot_layout_refused(eventful_record, tmp_path, capsys):
    """A record directory of the earlier CSV layout has no record.npz."""
    save_record(eventful_record, tmp_path)
    (tmp_path / "record.npz").unlink()
    (tmp_path / "snapshots.csv").write_text(
        "t,position,velocity\n" + "".join(
            f"{float(t)!r},{x!r},{v!r}\n"
            for t, s in zip(eventful_record.times, eventful_record.snapshots)
            for x, v in zip(s.positions, s.velocities)))
    (tmp_path / "events.csv").write_text("t,first_index,last_index,post_velocity,post_psi\n")
    with pytest.raises(RecordIOError, match="record.npz"):
        load_record(tmp_path)
    assert run_verify(tmp_path, quiet=True) == EXIT_CONFIG_ERROR
    assert "missing record.npz" in capsys.readouterr().err


@pytest.mark.parametrize("line, column, value", [
    (0, 0, np.nan), (0, 0, 5.0), (0, 1, np.inf), (-1, 0, np.nan),
], ids=["nan-position", "unordered-position", "inf-velocity", "nan-in-last-row"])
def test_corrupt_snapshot_rows_refused(eventful_record, tmp_path, capsys, line, column, value):
    save_record(eventful_record, tmp_path)
    arrays = _arrays(tmp_path)
    snapshots = arrays["snapshots"]
    snapshots[column, line] = value
    rewrite_record(tmp_path, snapshots=snapshots)
    # the first bad row is the corrupted one, or its successor for an unordered position
    bad = line % snapshots.shape[1] + (value == 5.0)
    t = np.repeat(arrays["accumulators"][:, 0], arrays["clusters"])[bad]
    _refused(tmp_path, capsys, re.escape(f"record.npz: snapshot at t={t}"))


def test_empty_snapshot_table(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    rewrite_record(tmp_path, clusters=np.empty(0, np.int64), snapshots=np.empty((2, 0)),
                   accumulators=np.empty((0, 2)))
    with pytest.raises(RecordIOError, match="no snapshots"):
        load_record(tmp_path)


def test_accumulator_time_mismatch(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    acc = _arrays(tmp_path)["accumulators"]
    rewrite_record(tmp_path, accumulators=acc[:-1])  # one snapshot time short
    with pytest.raises(RecordIOError, match="shapes do not match"):
        load_record(tmp_path)
    acc[1, 0] = acc[0, 0]
    rewrite_record(tmp_path, accumulators=acc)
    with pytest.raises(RecordIOError, match="times must be strictly increasing"):
        load_record(tmp_path)


def test_accumulators_one_row_per_time(eventful_record, tmp_path):
    save_record(eventful_record, tmp_path)
    arrays = _arrays(tmp_path)
    assert arrays["accumulators"].shape == (eventful_record.times.size, 2)
    _assert_same_bits(arrays["accumulators"][:, 0], eventful_record.times)
    _assert_same_bits(arrays["accumulators"][:, 1], eventful_record.v2_integrals)
    # one phi row, up to the last snapshot time
    _assert_same_bits(arrays["phi_integral"], eventful_record.phi_integrals)
    assert arrays["phi_integral"].shape == (eventful_record.initial.n_cells,)


def test_old_accumulator_layout_refused(eventful_record, tmp_path):
    # one row per time and cell: t, cell_id, phi_integral, v_norm2_integral
    save_record(eventful_record, tmp_path)
    rewrite_record(tmp_path, accumulators=np.array(
        [(t, i, 0.0, 0.0) for t in eventful_record.times.tolist() for i in range(4)]))
    with pytest.raises(RecordIOError, match="accumulators"):
        load_record(tmp_path)
    # one row per time: t, v_norm2_integral, phi_0 ... phi_{N-1}, no phi_integral member
    times, v2 = eventful_record.times, eventful_record.v2_integrals
    phi = np.zeros((times.size, eventful_record.initial.n_cells))
    rewrite_record(tmp_path, drop=("phi_integral",),
                   accumulators=np.column_stack((times, v2, phi)))
    with pytest.raises(RecordIOError, match="phi_integral"):
        load_record(tmp_path)


def _swap_event_times(events):
    events[[0, -1], 0] = events[[-1, 0], 0]


@pytest.mark.parametrize("member, corrupt, match", [
    ("events", lambda a: a.__setitem__((0, 0), np.nan), "events must be finite"),
    ("events", _swap_event_times, "event times must be nonnegative and nondecreasing"),
    ("events", lambda a: a.__setitem__((0, 0), -5.0), "event times must be nonnegative"),
    ("events", lambda a: a.__setitem__((0, 1), np.inf), "events must be finite"),
    ("events", lambda a: a.__setitem__((-1, 2), np.nan), "events must be finite"),
    ("accumulators", lambda a: a.__setitem__((3, 1), np.nan), "accumulators must be finite"),
    ("accumulators", lambda a: a.__setitem__((-1, 0), np.inf), "accumulators must be finite"),
    ("phi_integral", lambda a: a.__setitem__(2, np.inf), "phi_integral must be finite"),
], ids=["nan-event-time", "swapped-event-times", "negative-event-time", "inf-post-velocity",
        "nan-post-psi", "nan-v2", "inf-last-time", "inf-phi"])
def test_corrupt_floats_refused(eventful_record, tmp_path, capsys, member, corrupt, match):
    """Event, time and accumulator data that would load and pass every check,
    or fail one check only, is refused on load instead."""
    assert len({ev.time for ev in eventful_record.events}) > 1
    save_record(eventful_record, tmp_path)
    values = _arrays(tmp_path)[member]
    corrupt(values)
    rewrite_record(tmp_path, **{member: values})
    _refused(tmp_path, capsys, re.escape(f"record.npz: {match}"))


def test_event_after_the_last_snapshot(tmp_path):
    kernel = Zero()
    ens = ensemble_with_psi([0.25] * 4, [-0.6, -0.2, 0.2, 0.6], [1.0, -1.0, 1.0, -1.0], kernel)
    rec = simulate(ens, kernel, 1.0, 0.5)
    assert rec.snapshots[-1].n_clusters == 2
    save_record(rec, tmp_path)
    arrays = _arrays(tmp_path)
    rewrite_record(tmp_path, events=np.vstack((arrays["events"], [5.0, 0.0, 0.0])),
                   event_cells=np.vstack((arrays["event_cells"], [0, 3])))
    with pytest.raises(RecordIOError, match=re.escape("t=5.0")):
        load_record(tmp_path)


def test_truncated_record_file(eventful_record, tmp_path, capsys):
    save_record(eventful_record, tmp_path)
    data = (tmp_path / "record.npz").read_bytes()
    for size in (0, 1, 100, len(data) // 2, len(data) - 1):
        (tmp_path / "record.npz").write_bytes(data[:size])
        _refused(tmp_path, capsys, "record.npz")


def test_foreign_record_file(eventful_record, tmp_path, capsys):
    save_record(eventful_record, tmp_path)
    path = tmp_path / "record.npz"
    path.write_text("t,position,velocity\n0,1,2\n")
    _refused(tmp_path, capsys, "record.npz")
    with open(path, "wb") as fh:  # one bare array, not an archive
        np.save(fh, np.arange(3.0))
    _refused(tmp_path, capsys, "record.npz")
    with zipfile.ZipFile(path, "w") as zf:  # an archive without the members
        zf.writestr("notes.txt", "no arrays here")
    _refused(tmp_path, capsys, "cells")


@pytest.mark.parametrize("where, mask", [
    (lambda data: data.index(b"\x93NUMPY") + 60, 0x41),  # member bytes: the CRC fails
    (lambda data: data.index(b"PK\x01\x02") + 8, 0x01),  # directory flags: encrypted
    (lambda data: data.index(b"PK\x01\x02") + 10, 0x41),  # directory: compression method
], ids=["member-data", "encrypted-flag", "compression-method"])
def test_flipped_record_byte_refused(eventful_record, tmp_path, capsys, where, mask):
    save_record(eventful_record, tmp_path)
    data = bytearray((tmp_path / "record.npz").read_bytes())
    data[where(data)] ^= mask
    (tmp_path / "record.npz").write_bytes(data)
    _refused(tmp_path, capsys, "record.npz")


@pytest.mark.parametrize("member", ["cells", "lineage", "clusters", "snapshots",
                                    "accumulators", "phi_integral", "events", "event_cells"])
def test_missing_member_refused(eventful_record, tmp_path, capsys, member):
    save_record(eventful_record, tmp_path)
    rewrite_record(tmp_path, drop=(member,))
    _refused(tmp_path, capsys, member)


@pytest.mark.parametrize("member, change", [
    ("lineage", lambda a: a.astype(float)),
    ("clusters", lambda a: a.astype(np.int32)),
    ("cells", lambda a: a.ravel()),
    ("accumulators", lambda a: a[None]),
    ("events", lambda a: a.astype(np.float32)),
], ids=["float-lineage", "int32-clusters", "flat-cells", "3-D-accumulators", "float32-events"])
def test_wrong_dtype_or_ndim_refused(eventful_record, tmp_path, capsys, member, change):
    save_record(eventful_record, tmp_path)
    rewrite_record(tmp_path, **{member: change(_arrays(tmp_path)[member])})
    _refused(tmp_path, capsys, f"{member} must be a")


@pytest.mark.parametrize("member, change", [
    ("lineage", lambda a: a[:-1]),
    ("cells", lambda a: a[:3]),
    ("phi_integral", lambda a: a[:-1]),
    ("event_cells", lambda a: a[:-1]),
    ("clusters", lambda a: np.concatenate(([a[0] + a[-1]], a[1:-1], [0]))),
], ids=["short-lineage", "three-cell-rows", "missing-phi-column", "short-event-cells",
        "empty-snapshot"])
def test_mismatched_lengths_refused(eventful_record, tmp_path, capsys, member, change):
    save_record(eventful_record, tmp_path)
    rewrite_record(tmp_path, **{member: change(_arrays(tmp_path)[member])})
    _refused(tmp_path, capsys, "shapes do not match")


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
