"""CLI exit-code matrix, file artifacts, and config-echo round-trips.

Most cases call the ``run_*`` functions directly (fast, no subprocess); a few
go through click's test runner.  One runs the command in a subprocess through
``python -m stickyalign``, and one runs the installed ``stickyalign`` script,
only where that script is on ``PATH``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import stickyalign
from stickyalign import cli, load_record, simulate as _simulate
from stickyalign.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_NUMERICAL_ABORT,
    EXIT_OK,
    main,
    run_converge,
    run_predict,
    run_simulate,
    run_verify,
)

HEAD_ON = {
    "kernel": {"type": "zero"},
    "particles": {"masses": [0.5, 0.5], "positions": [-1.0, 1.0],
                  "velocities": [1.0, -1.0]},
    "t_end": 2.0,
    "snapshot_dt": 0.5,
}

# raw velocities chosen so the natural velocities are exactly (1, -1) after
# the convolution shift: v = +-(1 + Phi(2)/2)
TENT_POWER_LAW = {
    "kernel": {"type": "power_law", "c": 1.0, "beta": 0.5, "R": 1.0},
    "particles": {"masses": [0.5, 0.5], "positions": [-1.0, 1.0],
                  "velocities": [2.316060279414279, -2.316060279414279]},
    "t_end": 1.0,
    "snapshot_dt": 0.25,
}

SUBCOMMANDS = ("simulate", "predict", "verify", "converge")

LINEAR_CONVERGE = {
    "kernel": {"type": "zero"},
    "sampler": {"profile": "linear", "N": 8},
    "t_end": 1.0,
    "snapshot_dt": 0.25,
    "ns": [8, 16, 32],
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# -- simulate ------------------------------------------------------------


def test_simulate_happy_path(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    out = tmp_path / "run"
    assert run_simulate(cfg, out, quiet=True) == EXIT_OK
    for name in ("snapshots.csv", "events.csv", "accumulators.csv", "metadata.json"):
        assert (out / name).exists()
    rec = load_record(out)
    assert len(rec.events) == 1
    assert rec.events[0].time == pytest.approx(1.0, abs=1e-9)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["kernel"] == {"type": "zero"}
    assert set(meta["versions"]) == {"stickyalign", "numpy", "scipy", "python"}
    assert meta["wall_time_s"] >= 0.0


# an Exponential head-on pair: time-stepped, so every solver count moves
EXP_HEAD_ON = dict(HEAD_ON, kernel={"type": "exponential", "a": 1.0},
                   particles=dict(HEAD_ON["particles"], velocities=[2.0, -2.0]))


def test_simulate_summary_reports_solver_counts(tmp_path, monkeypatch, capsys):
    made = []
    monkeypatch.setattr(cli, "_simulate", lambda *a: made.append(_simulate(*a)) or made[-1])
    cfg = write_config(tmp_path, EXP_HEAD_ON)
    assert run_simulate(cfg, tmp_path / "run", quiet=False) == EXIT_OK
    st = made[0].stats
    assert st["accepted"] > 0 and st["rhs_evals"] >= 7 * st["accepted"]
    assert st["events"] == len(made[0].events) == 1
    assert (f"{st['events']} merge event(s), {st['accepted']} step(s), {st['rejected']} "
            f"rejected, {st['capped']} contact-capped, {st['rhs_evals']} rhs evaluation(s)"
            ) in capsys.readouterr().out
    # the counts are saved with the record and come back with it
    assert json.loads((tmp_path / "run" / "metadata.json").read_text())["stats"] == st
    assert load_record(tmp_path / "run").stats == st


def test_simulate_summary_of_a_closed_form_run(tmp_path, monkeypatch, capsys):
    # Zero is solved without a time stepper: one event and no solver work
    made = []
    monkeypatch.setattr(cli, "_simulate", lambda *a: made.append(_simulate(*a)) or made[-1])
    assert run_simulate(write_config(tmp_path, HEAD_ON), tmp_path / "run", quiet=False) == EXIT_OK
    st = made[0].stats
    assert st == {"accepted": 0, "rejected": 0, "rhs_evals": 0, "capped": 0, "events": 1}
    assert ("1 merge event(s), 0 step(s), 0 rejected, 0 contact-capped, "
            "0 rhs evaluation(s)") in capsys.readouterr().out
    assert load_record(tmp_path / "run").stats == st


def test_simulate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    run_simulate(cfg, tmp_path / "a", quiet=True)
    run_simulate(cfg, tmp_path / "b", quiet=True)
    for name in ("snapshots.csv", "events.csv", "accumulators.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_linear_sampler_defaults(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"type": "zero"},
        "sampler": {"profile": "linear", "N": 8},
        "t_end": 0.5, "snapshot_dt": 0.25,
    })
    out = tmp_path / "run"
    assert run_simulate(cfg, out, quiet=True) == EXIT_OK
    init = load_record(out).initial
    np.testing.assert_allclose(init.cell_masses, np.full(8, 0.125))
    np.testing.assert_allclose(init.cell_positions, (np.arange(8) + 0.5) / 8)
    np.testing.assert_allclose(init.cell_velocities, 0.5 - init.cell_positions,
                               atol=1e-15)


def test_simulate_gaussian_seed_override(tmp_path):
    base = {"kernel": {"type": "exponential", "a": 1.0},
            "sampler": {"profile": "gaussian", "N": 6, "seed": 1},
            "t_end": 0.5, "snapshot_dt": 0.25}
    cfg = write_config(tmp_path, base)
    assert run_simulate(cfg, tmp_path / "a", seed=7, quiet=True) == EXIT_OK
    assert run_simulate(cfg, tmp_path / "b", seed=7, quiet=True) == EXIT_OK
    assert run_simulate(cfg, tmp_path / "c", quiet=True) == EXIT_OK  # seed 1
    snap = lambda d: (tmp_path / d / "snapshots.csv").read_bytes()
    assert snap("a") == snap("b")
    assert snap("a") != snap("c")
    # the echoed config must reproduce the run: the override is folded in
    meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
    assert meta["config"]["sampler"]["seed"] == 7
    assert meta["seed"] == 7
    echo_cfg = write_config(tmp_path, meta["config"], "echo.json")
    assert run_simulate(echo_cfg, tmp_path / "d", quiet=True) == EXIT_OK
    assert snap("a") == snap("d")


def test_simulate_custom_table(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"type": "zero"},
        "sampler": {"profile": "custom-table", "N": 4,
                    "table": {"masses": [0.5, 0.5], "positions": [0.0, 1.0],
                              "velocities": [1.0, -1.0]}},
        "t_end": 0.25, "snapshot_dt": 0.25,
    })
    out = tmp_path / "run"
    assert run_simulate(cfg, out, quiet=True) == EXIT_OK
    init = load_record(out).initial
    np.testing.assert_allclose(init.cell_masses, [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_allclose(init.cell_positions, [0.0, 0.0, 1.0, 1.0])


def test_simulate_normalizes_masses_with_warning(tmp_path, capsys):
    cfg = dict(HEAD_ON, particles=dict(HEAD_ON["particles"], masses=[1.0, 1.0]))
    path = write_config(tmp_path, cfg)
    assert run_simulate(path, tmp_path / "run") == EXIT_OK  # quiet would mute it
    assert "normalizing" in capsys.readouterr().err
    init = load_record(tmp_path / "run").initial
    assert float(np.sum(init.cell_masses)) == 1.0


def _gaussian(**params):
    """Swap the particles for a gaussian sampler with ``params``."""
    return lambda c: dict({k: v for k, v in c.items() if k != "particles"},
                          sampler={"profile": "gaussian", "N": 4, **params})


@pytest.mark.parametrize("mangle", [
    lambda c: {k: v for k, v in c.items() if k != "kernel"},
    lambda c: dict(c, kernel={"type": "warp-drive"}),
    lambda c: dict(c, t_end=-1.0),
    lambda c: {k: v for k, v in c.items() if k != "t_end"},
    lambda c: dict(c, sampler={"profile": "linear", "N": 4}),  # both sources
    lambda c: {k: v for k, v in c.items() if k != "particles"},  # no source
    lambda c: dict(c, particles=dict(c["particles"], positions=[1.0, -1.0])),
    lambda c: dict(c, tolerances={"atol": 1e-10, "bogus": 1.0}),
    lambda c: dict(c, t_end=float("nan")),  # JSON NaN and Infinity parse as floats
    lambda c: dict(c, snapshot_dt=float("inf")),
    _gaussian(x_scale=-1),
    _gaussian(v_loc="a"),
    _gaussian(seed="x"),
    # amplitudes must be finite: JSON 1e400 parses to inf
    lambda c: dict(c, kernel={"type": "all_to_all", "K": 1e400}),
    lambda c: dict(c, kernel={"type": "power_law", "c": 1e400, "beta": 0.5}),
    lambda c: dict(c, kernel={"type": "exponential", "a": 1e400}),
    lambda c: dict(c, kernel={"type": "compact_bump", "height": 1e400}),
    # finite positions whose natural velocities overflow
    lambda c: dict(c, kernel={"type": "all_to_all", "K": 10.0},
                   particles=dict(c["particles"], positions=[-1e308, 1e308])),
    lambda c: dict(c, tolerances={"atol": 0, "rtol": 0}),
    lambda c: dict(c, tolerances={"atol": "nan"}),
    lambda c: dict(c, tolerances={"atol": -1e-10}),
    lambda c: dict(c, tolerances={"rtol": -1e-9}),
    lambda c: dict(c, tolerances={"atol": 1e400}),
])
def test_simulate_config_errors(tmp_path, mangle, capsys):
    cfg = write_config(tmp_path, mangle(dict(HEAD_ON)))
    assert run_simulate(cfg, tmp_path / "run", quiet=True) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err  # a reason was printed


def test_simulate_missing_config_file(tmp_path):
    assert run_simulate(tmp_path / "absent.json", tmp_path / "run",
                        quiet=True) == EXIT_CONFIG_ERROR


def test_simulate_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run_simulate(path, tmp_path / "run", quiet=True) == EXIT_CONFIG_ERROR


def test_simulate_numerical_abort(tmp_path, capsys):
    particles = {"masses": [0.5, 0.5], "positions": [-1.0, 1.0], "velocities": [0.3, -0.1]}
    cfg = write_config(tmp_path, {
        "kernel": {"type": "exponential", "a": 1.0}, "particles": particles,
        "t_end": 1.0, "snapshot_dt": 0.5,
        "tolerances": {"atol": 1e-300, "rtol": 1e-300},
    })
    assert run_simulate(cfg, tmp_path / "run", quiet=True) == EXIT_NUMERICAL_ABORT
    err = capsys.readouterr().err

    kernel = stickyalign.Exponential(1.0)
    ens = stickyalign.Ensemble.from_particles(*particles.values(), kernel)
    with pytest.raises(stickyalign.NumericalAbortError) as info:
        _simulate(ens, kernel, 1.0, 0.5, stickyalign.Tolerances(1e-300, 1e-300))
    stats = info.value.stats
    assert set(stats) == {"accepted", "rejected", "rhs_evals", "capped", "events", "t"}
    assert stats["rhs_evals"] > 0 and 0.0 <= stats["t"] < 1.0
    assert (f"simulation aborted: {info.value}; {stats['events']} merge event(s), "
            f"{stats['accepted']} step(s), {stats['rejected']} rejected, "
            f"{stats['capped']} contact-capped, {stats['rhs_evals']} rhs evaluation(s) "
            f"by t={stats['t']:g}") in err


def test_simulate_unwritable_out(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file: out/… cannot be a directory under it
    assert run_simulate(cfg, blocker / "sub", quiet=True) == EXIT_IO_ERROR


# -- predict -------------------------------------------------------------


def test_predict_happy_path(tmp_path):
    cfg = write_config(tmp_path, TENT_POWER_LAW)
    out = tmp_path / "an"
    assert run_predict(cfg, out, quiet=True) == EXIT_OK
    regions = (out / "regions.csv").read_text().splitlines()
    assert regions[1:] == ["0,1,Supercritical"]
    subgroups = (out / "subgroups.csv").read_text().splitlines()
    assert len(subgroups) == 2
    assert subgroups[1].endswith("FiniteTimeCluster")
    flux = (out / "flux.csv").read_text().splitlines()
    assert flux[0] == "m,A,A_star_star"
    assert len(flux) == 4  # 3 grid nodes


def test_predict_config_error(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"type": "zero"}})
    assert run_predict(cfg, tmp_path / "an", quiet=True) == EXIT_CONFIG_ERROR


def test_predict_unwritable_out(tmp_path):
    cfg = write_config(tmp_path, TENT_POWER_LAW)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run_predict(cfg, blocker / "sub", quiet=True) == EXIT_IO_ERROR


# -- verify --------------------------------------------------------------


def test_verify_green_record(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    out = tmp_path / "run"
    run_simulate(cfg, out, quiet=True)
    assert run_verify(out, quiet=True) == EXIT_OK
    report = json.loads((out / "verification.json").read_text())
    names = [r["name"] for r in report]
    assert {"barycentric", "rankine_hugoniot", "oleinik_entropy", "stickiness",
            "conservation", "projection_formula", "dissipation"} <= set(names)
    assert all(r["pass"] for r in report)


def test_verify_green_on_non_dyadic_masses(tmp_path):
    # masses 1/100: snapshot mass totals differ from the initial one in the
    # last bit, and conservation must still pass
    cfg = write_config(tmp_path, {
        "kernel": {"type": "zero"},
        "sampler": {"profile": "gaussian", "N": 100},
        "t_end": 4.0, "snapshot_dt": 0.25,
    })
    out = tmp_path / "run"
    assert run_simulate(cfg, out, seed=1, quiet=True) == EXIT_OK
    assert run_verify(out, quiet=True) == EXIT_OK


def test_verify_includes_flocking_when_subgroups_split(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"type": "exponential", "a": 1.0},
        "particles": {"masses": [0.5, 0.5], "positions": [-1.0, 1.0],
                      "velocities": [-2.0, 2.0]},
        "t_end": 2.0, "snapshot_dt": 0.5,
    })
    out = tmp_path / "run"
    run_simulate(cfg, out, quiet=True)
    assert run_verify(out, quiet=True) == EXIT_OK
    names = [r["name"] for r in json.loads((out / "verification.json").read_text())]
    assert "flocking" in names
    # the head-on record collapses to a single subgroup: no flocking entry
    cfg2 = write_config(tmp_path, HEAD_ON, "c2.json")
    out2 = tmp_path / "run2"
    run_simulate(cfg2, out2, quiet=True)
    run_verify(out2, quiet=True)
    names2 = [r["name"] for r in json.loads((out2 / "verification.json").read_text())]
    assert "flocking" not in names2


def test_verify_tampered_events_fails_checks(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    out = tmp_path / "run"
    run_simulate(cfg, out, quiet=True)
    events = out / "events.csv"
    head, row = events.read_text().splitlines()
    cols = row.split(",")
    cols[-1] = "5"  # post_psi far outside the admissible bounds
    events.write_text(head + "\n" + ",".join(cols) + "\n")
    assert run_verify(out, quiet=True) == EXIT_CHECK_FAILURE
    report = {r["name"]: r["pass"] for r in
              json.loads((out / "verification.json").read_text())}
    assert not report["barycentric"]
    assert not report["rankine_hugoniot"]


def test_verify_missing_dir_and_files(tmp_path):
    assert run_verify(tmp_path / "absent", quiet=True) == EXIT_CONFIG_ERROR
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "metadata.json").write_text("{}")
    assert run_verify(partial, quiet=True) == EXIT_CONFIG_ERROR


def test_verify_malformed_record(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    out = tmp_path / "run"
    run_simulate(cfg, out, quiet=True)
    snaps = out / "snapshots.csv"
    snaps.write_text(snaps.read_text().replace("t,position", "when,position"))
    assert run_verify(out, quiet=True) == EXIT_IO_ERROR


# -- converge ------------------------------------------------------------


def test_converge_happy_path(tmp_path):
    cfg = write_config(tmp_path, LINEAR_CONVERGE)
    out = tmp_path / "study"
    assert run_converge(cfg, out, quiet=True) == EXIT_OK
    lines = (tmp_path / "study" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,n_fine,sup_w2,bound,passed"
    assert len(lines) == 4  # two comparison rows + the trailing ladder end
    assert lines[1].startswith("8,16,") and lines[1].endswith("True")
    assert lines[2].startswith("16,32,")
    assert lines[3] == "32,,,,"


def test_converge_honours_tolerances(tmp_path, capsys):
    """The config's solver tolerances reach every run of the study: ones no
    step can meet abort it, with the solver counts on the abort line."""
    cfg = write_config(tmp_path, {
        "kernel": {"type": "power_law", "c": 1.0, "beta": 0.5, "R": 1.0},
        "sampler": {"profile": "linear", "N": 4},
        "t_end": 0.5, "snapshot_dt": 0.25, "ns": [4, 8],
        "tolerances": {"atol": 1e-300, "rtol": 1e-300},
    })
    assert run_converge(cfg, tmp_path / "study", quiet=True) == EXIT_NUMERICAL_ABORT
    err = capsys.readouterr().err
    assert re.search(r"simulation aborted: .*; \d+ merge event\(s\), \d+ step\(s\), \d+ rejected, "
                     r"\d+ contact-capped, \d+ rhs evaluation\(s\) by t=", err)


def test_converge_single_resolution(tmp_path):
    cfg = write_config(tmp_path, dict(LINEAR_CONVERGE, ns=[16]))
    assert run_converge(cfg, tmp_path / "study", quiet=True) == EXIT_OK
    lines = (tmp_path / "study" / "convergence.csv").read_text().splitlines()
    assert lines[1:] == ["16,,,,"]


@pytest.mark.parametrize("ns", [[8, 8, 16], [16, 8], [], [4, "x"]])
def test_converge_bad_ladders(tmp_path, ns):
    cfg = write_config(tmp_path, dict(LINEAR_CONVERGE, ns=ns))
    assert run_converge(cfg, tmp_path / "study", quiet=True) == EXIT_CONFIG_ERROR


def test_converge_rejects_random_profile(tmp_path):
    cfg = write_config(tmp_path, dict(
        LINEAR_CONVERGE, sampler={"profile": "gaussian", "N": 8}))
    assert run_converge(cfg, tmp_path / "study", quiet=True) == EXIT_CONFIG_ERROR


def test_converge_custom_table_refinement(tmp_path):
    cfg = write_config(tmp_path, {
        "kernel": {"type": "zero"},
        "sampler": {"profile": "custom-table",
                    "table": {"masses": [0.5, 0.5], "positions": [0.0, 1.0],
                              "velocities": [0.5, -0.5]}},
        "t_end": 0.5, "snapshot_dt": 0.25,
        "ns": [2, 4, 8],
    })
    assert run_converge(cfg, tmp_path / "study", quiet=True) == EXIT_OK
    # a ladder that is not a chain of multiples is a config error
    cfg2 = write_config(tmp_path, json.loads((tmp_path / "config.json").read_text())
                        | {"ns": [2, 3]}, "c2.json")
    assert run_converge(cfg2, tmp_path / "s2", quiet=True) == EXIT_CONFIG_ERROR


# -- command wiring ------------------------------------------------------


def test_click_group_lists_subcommands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for sub in SUBCOMMANDS:
        assert sub in result.output


def test_click_end_to_end(tmp_path):
    cfg = write_config(tmp_path, HEAD_ON)
    out = tmp_path / "run"
    runner = CliRunner()
    sim = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert sim.exit_code == 0, sim.output
    assert "1 merge event(s)" in sim.output
    ver = runner.invoke(main, ["verify", "--out", str(out), "--quiet"])
    assert ver.exit_code == 0, ver.output


def _declared_console_script() -> str | None:
    """The ``stickyalign`` target in ``[project.scripts]``; None if unreadable.

    Read from ``pyproject.toml`` on Python >= 3.11; on 3.10, which has no
    ``tomllib``, from the installed distribution's metadata when there is one.
    """
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            return tomllib.load(fh)["project"]["scripts"]["stickyalign"]
    from importlib.metadata import entry_points

    found = entry_points(group="console_scripts", name="stickyalign")
    return next((ep.value for ep in found), None)


def test_console_script_installed(tmp_path):
    target = _declared_console_script()
    if target is not None:
        assert target == "stickyalign.cli:main"  # what __main__.py runs
    # run the package under test, wherever the subprocess starts
    pkg_root = str(Path(stickyalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "stickyalign", "--help"],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.partition("Commands:")[2]  # not the group docstring
    for sub in SUBCOMMANDS:
        assert sub in listed


@pytest.mark.skipif(shutil.which("stickyalign") is None,
                    reason="stickyalign console script not on PATH")
def test_installed_console_script_help():
    proc = subprocess.run(["stickyalign", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.partition("Commands:")[2]  # not the group docstring
    for sub in SUBCOMMANDS:
        assert sub in listed


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, HEAD_ON)
    assert run_simulate(cfg, tmp_path / "run", quiet=True) == EXIT_OK
    assert capsys.readouterr().out == ""
