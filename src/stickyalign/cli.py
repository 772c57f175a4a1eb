"""Command-line front end: scenario configs in, records and CSV tables out.

Subcommands
-----------
simulate   integrate a scenario and write its record (record.npz, metadata.json)
predict    static clustering forecast (flux/regions/subgroups CSV), no simulation
verify     run the checkers on a saved record; report JSON, exit 1 on failure
converge   refinement study over an N ladder; writes the comparison table CSV

Exit codes: 0 ok, 1 check failure, 2 config error, 3 numerical abort, 4 I/O.

Scenario configs are JSON::

    {
      "kernel": {"type": "exponential", "a": 1.0},
      "particles": {"masses": [...], "positions": [...], "velocities": [...]},
      -- or --
      "sampler": {"profile": "linear" | "gaussian" | "custom-table", "N": 32, ...},
      "t_end": 4.0,
      "snapshot_dt": 0.25,
      "tolerances": {"atol": 1e-10, "rtol": 1e-9}   // optional
    }

Masses are normalized to total 1 (with a warning when that changes them).
``converge`` additionally takes ``"ns": [8, 16, 32]`` (a strictly increasing
ladder) and refines the sampler profile, so it accepts only the deterministic
profiles (``linear``, ``custom-table``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .dynamics import SimulationRecord, Tolerances, simulate as _simulate
from .ensemble import MASS_BUDGET_TOL, Ensemble
from .exceptions import (
    ConfigError,
    NumericalAbortError,
    RecordIOError,
    StickyAlignError,
)
from .flux import analyze
from .kernels import Kernel, _real, kernel_from_config
from .records import RECORD_FILES, _write_table, load_record, save_flux_analysis, save_record
from .verify import check_flocking, convergence_study, report_json, verify_record

__all__ = ["main", "run_simulate", "run_predict", "run_verify", "run_converge"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3
EXIT_IO_ERROR = 4

REFINABLE_PROFILES = ("linear", "custom-table")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        click.echo(message)


def _warn(quiet: bool, message: str) -> None:
    if not quiet:
        click.echo(f"warning: {message}", err=True)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _parse_kernel(cfg: dict) -> Kernel:
    if "kernel" not in cfg:
        raise ConfigError("config needs a 'kernel' object")
    try:
        return kernel_from_config(cfg["kernel"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_tolerances(cfg: dict) -> Tolerances | None:
    tols = cfg.get("tolerances")
    if tols is None:
        return None
    if not isinstance(tols, dict) or set(tols) - {"atol", "rtol"}:
        raise ConfigError("'tolerances' takes only 'atol' and 'rtol'")
    try:
        return Tolerances(atol=_real(tols.get("atol", Tolerances.atol), "atol"),
                          rtol=_real(tols.get("rtol", Tolerances.rtol), "rtol"))
    except ValueError as exc:
        raise ConfigError(f"bad tolerances: {exc}") from exc


def _float_array(obj, what: str) -> np.ndarray:
    if not (isinstance(obj, list) and obj):
        raise ConfigError(f"{what} must be a nonempty list of numbers")
    try:
        return np.array([_real(e, f"every entry of {what}") for e in obj])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sampler_particles(sampler: dict, n: int, seed: int | None):
    """Raw (masses, positions, velocities) of a sampler profile at size n."""
    profile = sampler.get("profile")
    if profile == "linear":
        x_ends = _float_array(sampler.get("x", [0.0, 1.0]), "sampler.x")
        v_ends = _float_array(sampler.get("v", [0.5, -0.5]), "sampler.v")
        if x_ends.size != 2 or v_ends.size != 2:
            raise ConfigError("linear profile takes two-point 'x' and 'v' endpoint lists")
        if x_ends[1] < x_ends[0]:
            raise ConfigError("linear profile positions must be nondecreasing")
        mids = (np.arange(n) + 0.5) / n
        return (np.full(n, 1.0 / n),
                x_ends[0] + (x_ends[1] - x_ends[0]) * mids,
                v_ends[0] + (v_ends[1] - v_ends[0]) * mids)
    if profile == "gaussian":
        seed = sampler.get("seed", 0) if seed is None else seed
        if type(seed) is not int or seed < 0:
            raise ConfigError("sampler seed must be a non-negative integer")
        defaults = {"x_loc": 0.0, "x_scale": 1.0, "v_loc": 0.0, "v_scale": 1.0}
        try:
            x_loc, x_scale, v_loc, v_scale = (_real(sampler.get(k, d), k)
                                              for k, d in defaults.items())
        except ValueError as exc:
            raise ConfigError(f"gaussian profile parameters must be numbers: {exc}") from exc
        if not np.all(np.isfinite([x_loc, x_scale, v_loc, v_scale])) or min(x_scale, v_scale) < 0:
            raise ConfigError("gaussian x_loc, v_loc must be finite; x_scale, v_scale finite, >= 0")
        rng = np.random.default_rng(seed)
        x = np.sort(rng.normal(x_loc, x_scale, n))
        v = rng.normal(v_loc, v_scale, n)
        return np.full(n, 1.0 / n), x, v
    if profile == "custom-table":
        table = sampler.get("table")
        if not isinstance(table, dict):
            raise ConfigError("custom-table profile needs a 'table' object")
        m = _float_array(table.get("masses"), "table.masses")
        x = _float_array(table.get("positions"), "table.positions")
        v = _float_array(table.get("velocities"), "table.velocities")
        if not (m.size == x.size == v.size):
            raise ConfigError("table arrays must have equal length")
        if n == m.size:
            return m, x, v
        if n % m.size:
            raise ConfigError(
                f"custom-table refinement size {n} must be a multiple of {m.size}")
        k = n // m.size
        return np.repeat(m / k, k), np.repeat(x, k), np.repeat(v, k)
    raise ConfigError(f"unknown sampler profile {profile!r}; "
                      f"choose from linear, gaussian, custom-table")


def _build_ensemble(cfg: dict, kernel: Kernel, seed: int | None, quiet: bool,
                    n_override: int | None = None) -> Ensemble:
    if ("particles" in cfg) == ("sampler" in cfg):
        raise ConfigError("config needs exactly one of 'particles' or 'sampler'")
    if "particles" in cfg:
        particles = cfg["particles"]
        if not isinstance(particles, dict):
            raise ConfigError("'particles' must be an object")
        m = _float_array(particles.get("masses"), "particles.masses")
        x = _float_array(particles.get("positions"), "particles.positions")
        v = _float_array(particles.get("velocities"), "particles.velocities")
    else:
        sampler = cfg["sampler"]
        if not isinstance(sampler, dict):
            raise ConfigError("'sampler' must be an object")
        n = n_override if n_override is not None else sampler.get("N")
        if type(n) is not int or n < 1:
            raise ConfigError("sampler needs a positive integer 'N'")
        m, x, v = _sampler_particles(sampler, n, seed)
    total = float(np.sum(m))
    if abs(total - 1.0) > MASS_BUDGET_TOL:
        _warn(quiet, f"masses sum to {total:.6g}; normalizing to 1")
    try:
        return Ensemble.from_particles(m, x, v, kernel, normalize=True)
    except StickyAlignError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_time_grid(cfg: dict) -> tuple[float, float]:
    try:
        t_end = _real(cfg["t_end"], "t_end")
        snapshot_dt = _real(cfg["snapshot_dt"], "snapshot_dt")
    except KeyError as exc:
        raise ConfigError(f"config needs {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad time grid: {exc}") from exc
    if not (0.0 < t_end < np.inf and 0.0 < snapshot_dt < np.inf):
        raise ConfigError("'t_end' and 'snapshot_dt' must be finite and positive")
    return t_end, snapshot_dt


def _config_echo(cfg: dict, seed: int | None) -> dict:
    """The config as run: a seed override is folded into the sampler."""
    echo = json.loads(json.dumps(cfg))
    if seed is not None and "sampler" in echo:
        echo["sampler"]["seed"] = seed
    return echo


def _metadata(cfg: dict, seed: int | None, wall_time: float) -> dict:
    return {
        "config": _config_echo(cfg, seed),
        "seed": seed if seed is not None else cfg.get("sampler", {}).get("seed"),
        "versions": {
            "stickyalign": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall_time,
    }


def _solver_counts(stats: dict) -> str:
    return (f"{stats['events']} merge event(s), {stats['accepted']} step(s), "
            f"{stats['rejected']} rejected, {stats['capped']} contact-capped, "
            f"{stats['rhs_evals']} rhs evaluation(s)")


def _aborted(exc: NumericalAbortError) -> int:
    _warn(False, f"simulation aborted: {exc}; {_solver_counts(exc.stats)} by t={exc.stats['t']:g}")
    return EXIT_NUMERICAL_ABORT


def run_simulate(config_path, out_dir, seed: int | None = None,
                 quiet: bool = False) -> int:
    """Integrate the configured scenario and save the record; exit code."""
    try:
        cfg = _load_config(config_path)
        kernel = _parse_kernel(cfg)
        ensemble = _build_ensemble(cfg, kernel, seed, quiet)
        t_end, snapshot_dt = _parse_time_grid(cfg)
        tolerances = _parse_tolerances(cfg)
    except ConfigError as exc:
        _warn(False, str(exc))
        return EXIT_CONFIG_ERROR
    try:
        start = time.perf_counter()
        record = _simulate(ensemble, kernel, t_end, snapshot_dt, tolerances)
        wall = time.perf_counter() - start
    except NumericalAbortError as exc:
        return _aborted(exc)
    except StickyAlignError as exc:
        _warn(False, str(exc))
        return EXIT_CONFIG_ERROR
    try:
        save_record(record, out_dir, extra_metadata=_metadata(cfg, seed, wall))
    except (OSError, RecordIOError) as exc:
        _warn(False, f"cannot write record: {exc}")
        return EXIT_IO_ERROR
    _say(quiet, f"simulated to t={record.times[-1]:g}: {record.snapshots[-1].n_clusters} "
                f"final cluster(s); {_solver_counts(record.stats)} -> {out_dir}")
    return EXIT_OK


def run_predict(config_path, out_dir, seed: int | None = None,
                quiet: bool = False) -> int:
    """Static clustering forecast of the configured scenario; exit code."""
    try:
        cfg = _load_config(config_path)
        kernel = _parse_kernel(cfg)
        ensemble = _build_ensemble(cfg, kernel, seed, quiet)
        analysis = analyze(ensemble, kernel)
    except StickyAlignError as exc:
        _warn(False, str(exc))
        return EXIT_CONFIG_ERROR
    try:
        save_flux_analysis(analysis, out_dir)
    except OSError as exc:
        _warn(False, f"cannot write analysis: {exc}")
        return EXIT_IO_ERROR
    for sg in analysis.subgroups:
        _say(quiet, f"subgroup m in [{sg.m_lo:.6g}, {sg.m_hi:.6g}): psi={sg.psi:.6g} "
                    f"-> {sg.forecast.value}")
    _say(quiet, f"wrote flux/regions/subgroups CSV -> {out_dir}")
    return EXIT_OK


def run_verify(record_dir, quiet: bool = False) -> int:
    """Run all applicable checkers on a saved record; exit code."""
    d = Path(record_dir)
    missing = [name for name in RECORD_FILES if not (d / name).exists()]
    if missing:
        _warn(False, f"{record_dir} is not a record directory (missing {', '.join(missing)})")
        return EXIT_CONFIG_ERROR
    try:
        record = load_record(d)
    except RecordIOError as exc:
        _warn(False, str(exc))
        return EXIT_IO_ERROR
    results = verify_record(record)
    try:
        analysis = analyze(record.initial, record.kernel)
        if len(analysis.subgroups) >= 2:
            results.append(check_flocking(record, analysis))
    except StickyAlignError as exc:
        _warn(quiet, f"flocking check skipped: {exc}")
    report = report_json(results)
    try:
        (d / "verification.json").write_text(report + "\n")
    except OSError as exc:
        _warn(False, f"cannot write verification report: {exc}")
        return EXIT_IO_ERROR
    _say(quiet, report)
    failed = [r.name for r in results if not r.passed]
    if failed:
        _warn(False, f"checks failed: {', '.join(failed)}")
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def run_converge(config_path, out_dir, seed: int | None = None,
                 quiet: bool = False) -> int:
    """Refinement study over the configured N ladder; exit code."""
    try:
        cfg = _load_config(config_path)
        kernel = _parse_kernel(cfg)
        t_end, snapshot_dt = _parse_time_grid(cfg)
        tolerances = _parse_tolerances(cfg)
        ns = cfg.get("ns")
        if (not isinstance(ns, list) or not ns
                or any(type(n) is not int or n < 1 for n in ns)):
            raise ConfigError("'ns' must be a nonempty list of positive integers")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("'ns' must be strictly increasing (no duplicates)")
        if "sampler" not in cfg:
            raise ConfigError("converge needs a 'sampler' (a fixed profile to refine)")

        def sampler(n: int) -> Ensemble:
            return _build_ensemble(cfg, kernel, seed, quiet, n_override=n)

        for n in ns:  # surface a malformed sampler, or profile/size mismatches, as config errors
            sampler(n)
        if cfg["sampler"].get("profile") not in REFINABLE_PROFILES:
            raise ConfigError("converge needs a deterministic profile "
                              f"({' or '.join(REFINABLE_PROFILES)})")
    except ConfigError as exc:
        _warn(False, str(exc))
        return EXIT_CONFIG_ERROR

    t_grid = np.arange(0.0, t_end + 0.5 * snapshot_dt, snapshot_dt)
    rows = []
    passed = True
    try:
        if len(ns) >= 2:
            study = convergence_study(sampler, ns, t_grid, kernel, tolerances=tolerances)
            passed = study.passed
            rows = [(r.n, r.n_fine, format(r.sup_w2, ".17g"),
                     format(r.bound, ".17g"), r.passed) for r in study.rows]
            rows.append((ns[-1], "", "", "", ""))
        else:
            rows = [(ns[0], "", "", "", "")]
    except NumericalAbortError as exc:
        return _aborted(exc)
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_table(out / "convergence.csv", ("n", "n_fine", "sup_w2", "bound", "passed"),
                     rows, "%s,%s,%s,%s,%s")
    except OSError as exc:
        _warn(False, f"cannot write convergence table: {exc}")
        return EXIT_IO_ERROR
    for row in rows:
        _say(quiet, "  " + ",".join(str(c) for c in row))
    if not passed:
        _warn(False, "refinement study failed its stability bound or monotonicity")
        return EXIT_CHECK_FAILURE
    _say(quiet, f"wrote convergence table -> {out_dir}")
    return EXIT_OK


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Sticky-particle alignment dynamics: simulate, predict, verify, converge."""


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Scenario JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Record directory.")
@click.option("--seed", type=int, default=None, help="Override the sampler seed.")
@click.option("--quiet", is_flag=True, help="Suppress non-error output.")
def _cmd_simulate(config_path, out_dir, seed, quiet):
    """Integrate a scenario; write its record (record.npz, metadata.json)."""
    sys.exit(run_simulate(config_path, out_dir, seed, quiet))


@main.command("predict")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Scenario JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Analysis directory.")
@click.option("--seed", type=int, default=None, help="Override the sampler seed.")
@click.option("--quiet", is_flag=True, help="Suppress non-error output.")
def _cmd_predict(config_path, out_dir, seed, quiet):
    """Forecast clustering from the flux envelope; no simulation."""
    sys.exit(run_predict(config_path, out_dir, seed, quiet))


@main.command("verify")
@click.option("--out", "record_dir", required=True, type=click.Path(),
              help="Record directory written by 'simulate'.")
@click.option("--quiet", is_flag=True, help="Suppress non-error output.")
def _cmd_verify(record_dir, quiet):
    """Check a saved record; exit 1 if any check fails."""
    sys.exit(run_verify(record_dir, quiet))


@main.command("converge")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Scenario JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Table directory.")
@click.option("--seed", type=int, default=None, help="Override the sampler seed.")
@click.option("--quiet", is_flag=True, help="Suppress non-error output.")
def _cmd_converge(config_path, out_dir, seed, quiet):
    """Refinement study over an N ladder against the stability bound."""
    sys.exit(run_converge(config_path, out_dir, seed, quiet))


if __name__ == "__main__":
    main()
