"""Benchmark of stickyalign: seeded workloads run through the public API.

    python3 perfbench/run.py --workload exp-rarefaction --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, a table of every metric

One run builds four instances of the workload from ``--seed`` and repeats
rounds of the six phases a user goes through (build the ``Ensemble``,
``simulate``, forecast, ``save_record``, ``load_record``, verify), one
instance per round, until ``--seconds`` of rounds have passed.  The first
outputs of each instance are checked apart from the program (``checks.py``);
every later round must reproduce them bit for bit.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
``--workload all`` runs every workload in its own process and prints every
metric by name and unit.  The library is imported from ``src/`` of the
checkout this file lies in, never from an installed copy.
"""

import os

# One BLAS thread.  The dense matvecs of the convolution otherwise spread over
# every core and the timings follow whatever else the host runs; this must be
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PHASES = ("setup", "simulate", "predict", "save", "load", "verify")


def import_library():
    """Import stickyalign from ``src/`` next to the benchmark, or exit with 1."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import stickyalign
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stickyalign from {src}: {exc}")
    if Path(stickyalign.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: stickyalign came from {stickyalign.__file__}, not {src}")


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def one_pass(workload, inputs, record_dir: Path, reps: dict, tracer=None):
    """The six phases once, short ones ``reps[phase]`` times; returns
    (per-call seconds by phase, outputs)."""
    from stickyalign import dynamics, ensemble, flux, kernels, records, verify
    from workloads import SNAPSHOT_DT, T_END

    m, x, v = inputs
    kernel = kernels.kernel_from_config(workload.kernel)
    seconds = {p: [] for p in PHASES}

    def timed(phase, fn, before=None):
        if tracer is not None:
            fn = tracer.wrap("phase." + phase, fn)
        gc.collect()
        for _ in range(reps.get(phase, 1)):
            if before is not None:
                before()
            start = time.perf_counter()
            out = fn()
            seconds[phase].append(time.perf_counter() - start)
        return out

    def predict():
        analysis = flux.analyze(ens, kernel)
        return flux.predicted_partition(analysis, ens)

    def check():
        # what `stickyalign verify` runs on a saved record
        results = verify.verify_record(loaded)
        analysis = flux.analyze(loaded.initial, loaded.kernel)
        if len(analysis.subgroups) >= 2:
            results.append(verify.check_flocking(loaded, analysis))
        return results

    ens = timed("setup", lambda: ensemble.Ensemble.from_particles(m, x, v, kernel))
    record = timed("simulate", lambda: dynamics.simulate(ens, kernel, T_END, SNAPSHOT_DT))
    partition = timed("predict", predict)
    timed("save", lambda: records.save_record(record, record_dir),
          before=lambda: shutil.rmtree(record_dir, ignore_errors=True))
    loaded = timed("load", lambda: records.load_record(record_dir))
    results = timed("verify", check)
    return seconds, (record, loaded, results, partition)


def digest(outputs, record_dir: Path):
    """What every later round must reproduce exactly."""
    record, _, results, partition = outputs
    return (record.snapshots[-1].positions.tobytes(),
            [(e.time, e.first_index, e.last_index, e.post_psi) for e in record.events],
            _dir_bytes(record_dir), [r.passed for r in results], partition)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "ratio" if "_per_" in name else "count"


def run_workload(name: str, seed: int, budget: float, trace: bool) -> dict:
    """One run: rounds of the six phases for ``budget`` seconds, then the result.

    Rounds cycle over the workload's instances; with ``trace`` every instance
    runs untraced and then traced.  Once each instance has run, peak memory is
    read and the first outputs of every instance are checked.
    """
    import workloads
    from stickyalign import kernels

    workload = workloads.WORKLOADS[name]
    instances = [workloads.particles(workload, seed, k) for k in range(workloads.INSTANCES)]
    OUT.mkdir(exist_ok=True)
    record_dir = OUT / f"record-{name}-seed{seed}-pid{os.getpid()}"
    if trace:
        import tracing
        tracer = tracing.Tracer()
        kernel_class = type(kernels.kernel_from_config(workload.kernel))
        single = dict.fromkeys(PHASES, 1)

    attempted = failed = 0
    correct = True
    samples = {p: [] for p in PHASES}
    traced_simulate, layers = [], []
    expected = [None] * len(instances)
    first_outputs = {}
    peak_rss = None

    def check_first_outputs():
        nonlocal attempted, failed, correct, peak_rss, first_outputs
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        import checks  # only now: scipy would add its own memory to peak_rss_mb
        for k, outputs in first_outputs.items():
            for check, passed, detail in checks.output_checks(workload, instances[k], *outputs):
                attempted += 1
                if not passed:
                    failed += 1
                    correct = False
                    print(f"perfbench: instance {k}: check {check} failed: {detail}",
                          file=sys.stderr)
        first_outputs = None

    spent = 0.0
    rounds = 0
    try:
        # start a round only if one of average length still fits the budget,
        # after every instance has run (untraced and traced) once
        while (rounds < len(instances) * (1 + trace)
               or spent * (rounds + 1) / rounds <= budget):
            traced = trace and rounds % 2 == 1
            k = rounds // (1 + trace) % len(instances)
            start = time.perf_counter()
            try:
                if traced:
                    tracer.round = rounds
                    with tracing.installed(tracer, kernel_class):
                        seconds, outputs = one_pass(workload, instances[k], record_dir,
                                                    single, tracer)
                else:
                    seconds, outputs = one_pass(workload, instances[k], record_dir,
                                                workload.reps)
            except Exception:  # reported as failed operations, and the run ends
                traceback.print_exc(file=sys.stderr)
                attempted += len(PHASES)
                failed += len(PHASES)
                break
            spent += time.perf_counter() - start
            attempted += len(PHASES)
            if traced:
                traced_simulate.extend(seconds["simulate"])
                layers.append(tracing.layer_metrics(tracer, rounds))
            else:
                for p in PHASES:
                    samples[p].extend(seconds[p])
            got = digest(outputs, record_dir)
            if expected[k] is None:
                expected[k] = got
                first_outputs[k] = outputs
            else:  # one more operation: the round repeats the instance's first exactly
                attempted += 1
                if got != expected[k]:
                    failed += 1
                    correct = False
                    print(f"perfbench: round {rounds} differs from the first round of "
                          f"instance {k}", file=sys.stderr)
            del outputs
            rounds += 1
            if rounds == len(instances) * (1 + trace):
                check_first_outputs()
    finally:
        shutil.rmtree(record_dir, ignore_errors=True)
    if first_outputs:  # the run ended before every instance had run
        check_first_outputs()

    metrics = {}
    if trace and layers:
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        values["trace.overhead_s"] = min(traced_simulate) - min(samples["simulate"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
            json.dump({"fields": ["round", "name", "start", "end", "parent"],
                       "spans": tracer.spans,
                       "counts": [[r, k, v] for (r, k), v in tracer.counts.items()]}, fh)
    elif not trace and all(samples.values()) and None not in expected:
        # the fastest call of each phase: the host runs the same call at two or
        # three speeds, up to 2x apart, for seconds at a time, so that a median
        # follows the host's mix over the run (README.md, "Timing")
        fastest = {f"{p}_s": min(samples[p]) for p in PHASES}
        metrics = {k: {"value": v, "unit": "s"} for k, v in fastest.items()}
        metrics["total_s"] = {"value": sum(fastest.values()), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss / 1e6, "unit": "MB"}
        metrics["record_mb"] = {"value": statistics.fmean(e[2] for e in expected) / 1e6,
                                "unit": "MB"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    import workloads

    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or 'all' (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the timed rounds of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
