"""Spans and counts at the layer boundaries of stickyalign, for the traced run.

:func:`installed` wraps public callables at the place their callers look
them up (a class attribute of the kernel family or of ``Ensemble``, or a
module global of the calling module) and restores the originals on exit.
Each call becomes one span ``[round, name, start, end, parent]`` kept in
memory; :func:`layer_metrics` turns the spans of one round into the
per-layer figures.  A span's self time is its duration minus the durations
of its direct children, which never overlap because the program runs on one
thread.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from stickyalign import dynamics, ensemble, flux, records, verify

VERIFY_CHECKS = ("barycentric", "rankine_hugoniot", "oleinik_entropy", "stickiness",
                 "conservation", "projection_formula", "dissipation", "flocking")


class Tracer:
    """Spans of every traced round plus counts taken at the same calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = 0
        self._stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def caller(self) -> str:
        """Name of the innermost open span, or ``""``."""
        return self.spans[self._stack[-1]][1] if self._stack else ""

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.round, name)] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs once the span closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [self.round, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return traced


def _csv_rows(directory) -> int:
    rows = 0
    for path in Path(directory).glob("*.csv"):
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1  # minus the header
    return rows


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


@contextlib.contextmanager
def installed(tracer: Tracer, kernel_class):
    """Install the wrappers for one kernel family; restore on exit."""
    def kernel_pairs(args, out):
        tracer.count("pairs:" + tracer.caller(), np.size(args[1]))

    def step_events(args, out):
        tracer.count("dynamics.events", len(out.events))

    def saved(args, out):
        tracer.count("records.rows_written", _csv_rows(out))
        tracer.count("records.bytes_written", _dir_bytes(out))

    def loaded(args, out):
        tracer.count("records.rows_read", _csv_rows(args[0]))

    targets = [
        (kernel_class, "big_phi", "kernels.big_phi", kernel_pairs),
        (kernel_class, "w_phi", "kernels.w_phi", kernel_pairs),
        (ensemble.Ensemble, "evolved", "ensemble.evolved", None),
        (ensemble.Ensemble, "merged", "ensemble.merged", None),
        (ensemble.Ensemble, "convolve_big_phi", "ensemble.convolve_big_phi", None),
        (dynamics, "step", "dynamics.step", step_events),
        (flux, "analyze", "flux.analyze", None),
        (flux, "predicted_partition", "flux.predicted_partition", None),
        (flux, "lower_convex_envelope", "monotone.lower_convex_envelope", None),
        (verify, "project_monotone", "monotone.project_monotone", None),
        (verify, "energy", "metrics.energy", None),
        (records, "save_record", "records.save_record", saved),
        (records, "load_record", "records.load_record", loaded),
    ] + [(verify, "check_" + c, "verify." + c, None) for c in VERIFY_CHECKS]

    saved_attrs = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    from_particles = ensemble.Ensemble.__dict__["from_particles"]
    try:
        for owner, attr, name, after in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
        ensemble.Ensemble.from_particles = staticmethod(
            tracer.wrap("ensemble.from_particles", from_particles.__func__))
        yield
    finally:
        for owner, attr, original in saved_attrs:
            setattr(owner, attr, original)
        ensemble.Ensemble.from_particles = from_particles


def layer_metrics(tracer: Tracer, rnd: int) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    spans = [(k, s) for k, s in enumerate(tracer.spans) if s[0] == rnd]
    duration = {k: s[3] - s[2] for k, s in spans}
    selft = dict(duration)
    for k, s in spans:
        if s[4] >= 0:
            selft[s[4]] -= duration[k]
    name_of = {k: s[1] for k, s in spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    for k, s in spans:
        parent = name_of.get(s[4], "")
        key = s[1] + "<" + parent if s[1].startswith("kernels.") else s[1]
        total[key] += selft[k]
        calls[key] += 1

    def counted(name):
        return tracer.counts.get((rnd, name), 0.0)

    steps = calls["dynamics.step"]
    events = counted("dynamics.events")
    rhs_calls = calls["kernels.big_phi<dynamics.step"]
    simulate = [k for k, s in spans if s[1] == "phase.simulate"]
    out = {
        "kernels.rhs_s": total["kernels.big_phi<dynamics.step"],
        "kernels.rhs_calls": rhs_calls,
        "kernels.rhs_pairs": counted("pairs:dynamics.step"),
        "kernels.accum_s": total["kernels.big_phi<ensemble.convolve_big_phi"],
        "kernels.setup_s": total["kernels.big_phi<ensemble.from_particles"],
        "kernels.energy_s": total["kernels.w_phi<metrics.energy"],
        "kernels.energy_pairs": counted("pairs:metrics.energy"),
        "dynamics.step_s": total["dynamics.step"],
        "dynamics.steps": steps,
        "dynamics.rhs_per_step": rhs_calls / steps if steps else 0.0,
        "dynamics.events": events,
        "dynamics.steps_per_event": steps / events if events else 0.0,
        "ensemble.merged_s": total["ensemble.merged"],
        "ensemble.merged_calls": calls["ensemble.merged"],
        "ensemble.evolved_s": total["ensemble.evolved"],
        "ensemble.convolve_s": total["ensemble.convolve_big_phi"],
        "ensemble.from_particles_s": total["ensemble.from_particles"],
        "flux.analyze_s": total["flux.analyze"],
        "flux.predicted_partition_s": total["flux.predicted_partition"],
        "monotone.lower_convex_envelope_s": total["monotone.lower_convex_envelope"],
        "monotone.project_monotone_s": total["monotone.project_monotone"],
        "metrics.energy_s": total["metrics.energy"],
        "records.rows_written": counted("records.rows_written"),
        "records.bytes_written": counted("records.bytes_written"),
        "records.rows_read": counted("records.rows_read"),
        "trace.simulate_s": sum(duration[k] for k in simulate),
        "trace.unattributed_s": sum(selft[k] for k in simulate),
        "trace.spans": len(spans),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = total["verify." + check]
    return out
