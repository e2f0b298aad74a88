#!/usr/bin/env python3
"""The repository benchmark: one workload per run, from a seed.

Usage, from the repository root::

    python3 perfbench/run.py --workload broadcast-steady --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json
    python3 -m pytest -q perfbench/check_perfbench.py   # the benchmark's tests

A run sets its workload up ``Info.setup_reps`` times (``setup_s`` is the
median), then measures closed-loop cycles until ``--seconds`` of window
time have passed and the workload is at a boundary (join-wave ends its
windows on whole waves).  The window excludes the benchmark's own work inside a
cycle: the correctness checks and the settle-to-quiet waits of the TCP
accounting check.  Every broadcast is checked member by member against a
reference entitlement, every publish against the engine's zero-unicast
rekey invariant, every revoked member for lockout; a failed check or an
operation past its deadline counts into ``error_rate`` and the run exits
with 1 after printing every metric.

Every timing (set-up, latencies, the window behind the rates) is
scaled to a reference machine speed: the benchmark times a fixed piece
of its own work after every cycle (:class:`harness.SpeedProbe`) and
divides the cycle's timings by how much slower than the reference the
probes around it ran.  On a shared machine this removes most of the
drift of the speed a process gets; the factor is printed with the run.

``--trace 1`` sets up once, measures an untraced window, then a traced
window of the same length with :class:`layers.LayerTracer` installed,
and reports the per-layer metrics (``load.trace_overhead`` is the traced
over the untraced p50 of the workload's headline latency).

Quantiles use the nearest-rank rule (:func:`harness.nearest_rank`) on
raw samples.  Every tail is p90 (:data:`harness.TAIL_Q`); a tail with
fewer than ten samples ranked above it is not reported and fails the
run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

RUN_SECONDS = 20

#: ``(name, unit, better, bound, definition)``: printed by every
#: workload's untraced run and named in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median over the run's set-ups of world construction plus warm-population registration"),
    ("publish_p50_ms", "ms", "lower", 0.2,
     "median wall time of one DisseminationService.publish"),
    ("deliver_p50_ms", "ms", "lower", 0.2,
     "median time from the publish call until every live member processed the package"),
    ("broadcasts_per_s", "1/s", "higher", 0.2,
     "delivered publishes per second of window"),
    ("broadcast_bytes", "B", "lower", 0.1,
     "mean accounted bytes of the window's first byte_ops broadcast frames"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident set size of the generator process"),
)

#: Printed with unit and sample count where the workload has them, but
#: not in BENCHMARK.json: the join metrics exist on two workloads only,
#: ``error_rate`` is 0 on a healthy run, and a p90 over the 120 to 150
#: samples a churn-rekey window holds moves by 10 to 15 % between runs
#: (the medians hold within 3 %).
UNGATED = (
    ("publish_tail_ms", "ms", "publish time at the tail percentile"),
    ("deliver_tail_ms", "ms", "deliver time at the tail percentile"),
    ("join_p50_ms", "ms", "median time from a member's first token request until all its registration sessions finished"),
    ("join_tail_ms", "ms", "join time at the tail percentile"),
    ("joins_per_s", "1/s", "registrations completed per second of window"),
    ("join_bytes", "B", "mean wire bytes of the window's first byte_ops registrations"),
    ("error_rate", "ratio", "failed checks and missed deadlines over attempted ones"),
)


@dataclass
class Outcome:
    """What one run measured and checked."""

    workload: str
    metrics: Dict[str, dict] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: The window recorders (untraced first), for tests.
    recorders: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def emit(self, name: str, value: float, unit: str, note: str = "",
             gated: bool = True) -> None:
        if gated:
            self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append("%-26s %16.6f %-6s %s" % (name, value, unit, note))

    def absorb(self, rec) -> None:
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.problems.extend(
            "check failed: %s" % message for message in rec.messages
        )


def measure(workload, seconds: float, max_cycles: Optional[int], probe,
            tracer=None):
    """Run closed-loop cycles for ``seconds`` of window time, then on to
    the workload's next boundary.

    The CPU speed is probed after every cycle; each cycle's samples and
    window time are scaled to the reference speed by the probes around it.
    """
    from harness import Recorder
    from repro.errors import ReproError

    rec = Recorder(tracer)
    cycles = 0
    probe.sample()
    try:
        while (rec.window_s < seconds or not workload.at_boundary()) and (
            max_cycles is None or cycles < max_cycles
        ):
            marks = rec.marks()
            excluded = rec.excluded_s
            if tracer is not None:
                tracer.recording = True
            started = time.perf_counter()
            try:
                workload.cycle(rec)
            finally:
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.recording = False
                cycle_window = elapsed - (rec.excluded_s - excluded)
                cycles += 1
                probe.sample()
                factor = probe.local()
                rec.scale_since(marks, factor)
                rec.window_s += cycle_window
                rec.reference_window_s += cycle_window / factor
        workload.finish(rec)
    except ReproError as exc:
        rec.fail("window aborted after %d cycles: %s" % (cycles, exc))
    return rec


def _latency(out: Outcome, rec, family: str, gated: bool) -> None:
    """Median and tail of one latency family; only a median is gated."""
    from harness import MIN_BEYOND, TAIL_Q, nearest_rank, tail_label

    values = rec.samples.get(family, [])
    if not values:
        out.problems.append("no %s samples" % family)
        return
    median, _ = nearest_rank(values, 0.5)
    out.emit(family + "_p50_ms", median * 1e3, "ms", "n=%d" % len(values),
             gated)
    tail, beyond = nearest_rank(values, TAIL_Q)
    label = tail_label(TAIL_Q)
    if beyond < MIN_BEYOND:
        out.problems.append(
            "%s_tail_ms refused: %s of %d samples leaves %d beyond it (< %d)"
            % (family, label, len(values), beyond, MIN_BEYOND)
        )
        return
    out.emit(family + "_tail_ms", tail * 1e3, "ms",
             "%s n=%d beyond=%d" % (label, len(values), beyond), gated=False)


def _rate(out: Outcome, name: str, count: int, rec, gated: bool) -> None:
    out.emit(name, count / rec.reference_window_s, "1/s",
             "n=%d window=%.3fs" % (count, rec.window_s), gated)


def _byte_mean(out: Outcome, sizes: List[int], count: int, name: str,
               gated: bool) -> None:
    if len(sizes) < count:
        out.problems.append(
            "%s needs %d operations, the window had %d" % (name, count, len(sizes))
        )
        return
    out.emit(name, statistics.fmean(sizes[:count]), "B",
             "mean of the first %d" % count, gated)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(out: Outcome, workload, rec, setup_times: List[float],
               probe) -> None:
    info = workload.info
    sizes = workload.sizes
    out.lines.append(
        "speed factor %.4f (median of %d CPU-speed probes); the timings "
        "below are scaled to the reference speed"
        % (probe.factor(), len(probe.samples))
    )
    out.emit("setup_s", statistics.median(setup_times), "s",
             "median of %d set-ups" % len(setup_times))
    _latency(out, rec, "publish", True)
    _latency(out, rec, "deliver", True)
    _rate(out, "broadcasts_per_s", rec.counts.get("broadcasts", 0), rec, True)
    _byte_mean(out, rec.broadcast_sizes, sizes.byte_ops, "broadcast_bytes", True)
    out.emit("peak_rss_mb", peak_rss_mb(), "MB")
    if info.joins:
        _latency(out, rec, "join", False)
        _rate(out, "joins_per_s", rec.counts.get("joins", 0), rec, False)
        _byte_mean(out, rec.join_sizes, sizes.byte_ops, "join_bytes", False)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: str, sizes=None, max_cycles: Optional[int] = None) -> Outcome:
    """Set up, measure and check one workload; never raises for a
    failed check or a missed deadline (they are counted)."""
    from harness import Recorder, SetupClock, SpeedProbe
    from layers import LayerTracer, layer_metrics
    from repro.errors import ReproError
    from workloads import DEFAULT_SIZES, WORKLOADS

    sizes = sizes or DEFAULT_SIZES
    out = Outcome(workload=name)
    workload = WORKLOADS[name](seed, sizes, work)
    probe = SpeedProbe()
    setup_rec = Recorder()
    setup_times: List[float] = []
    try:
        for rep in range(1 if trace else workload.info.setup_reps):
            if rep:
                workload.teardown()
            clock = SetupClock(probe)
            workload.setup(setup_rec, clock.lap)
            clock.lap()
            setup_times.append(clock.seconds)
        rec = measure(workload, seconds, max_cycles, probe)
        out.recorders.append(rec)
        if trace:
            before = workload.cache_stats()
            frames = workload.frames()
            with LayerTracer() as tracer:
                traced = measure(workload, seconds, max_cycles, probe, tracer)
            after = workload.cache_stats()
            frames = workload.frames() - frames
            out.recorders.append(traced)
    except ReproError as exc:
        out.problems.append("run aborted: %s" % exc)
        return out
    finally:
        out.absorb(setup_rec)
        workload.teardown()
    for recorder in out.recorders:
        out.absorb(recorder)
    if not trace:
        end_to_end(out, workload, rec, setup_times, probe)
    else:
        from harness import nearest_rank

        headline = workload.info.headline
        plain, _ = nearest_rank(rec.samples.get(headline, []), 0.5)
        traced_p50, _ = nearest_rank(traced.samples.get(headline, []), 0.5)
        if not plain or traced_p50 is None:
            out.problems.append("no %s samples for the trace overhead" % headline)
            return out
        cache = {k: after[k] - before[k] for k in after}
        values = layer_metrics(
            tracer, traced.window_s, cache, frames,
            traced.counts.get("net.bytes", 0), traced_p50 / plain,
        )
        from layers import PER_LAYER

        for metric, unit, _ in PER_LAYER:
            out.emit(metric, values[metric], unit)
        self_total = sum(tracer.self_s.values())
        out.lines.append(
            "traced window %.6f s = layer self times %.6f s + residual %.6f s"
            "  (headline %s p50: untraced %.3f ms, traced %.3f ms)"
            % (traced.window_s, self_total, values["load.residual_s"], headline,
               plain * 1e3, traced_p50 * 1e3)
        )
    out.lines.append(
        "%-26s %16.6f %-6s %d failed of %d attempted"
        % ("error_rate", out.error_rate, "ratio", out.failed, out.attempted)
    )
    return out


# -- manifest ---------------------------------------------------------------------

def manifest() -> dict:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.info.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def workload_details() -> dict:
    """What BENCHMARK.json has no room for, kept in ``workloads.json``."""
    import dataclasses

    from harness import MIN_BEYOND, TAIL_Q, tail_label
    from workloads import DEFAULT_SIZES, WORKLOADS

    return {
        "quantile_rule": (
            "nearest rank on raw samples: the q quantile of n sorted samples "
            "is the one of rank ceil(q*n); every *_tail_ms is %s, reported "
            "only with at least %d samples ranked above it"
            % (tail_label(TAIL_Q), MIN_BEYOND)
        ),
        "sizes": dataclasses.asdict(DEFAULT_SIZES),
        "end_to_end": {name: definition for name, _, _, _, definition in END_TO_END},
        "reported_not_gated": {name: definition for name, _, definition in UNGATED},
        "workloads": {
            name: {
                "why": cls.info.why,
                "setup": cls.info.setup,
                "loop": cls.info.loop,
                "concurrency": cls.info.concurrency,
                "loads": list(cls.info.loads),
                "bypasses": list(cls.info.bypasses),
                "headline": cls.info.headline,
                "setup_reps": cls.info.setup_reps,
            }
            for name, cls in WORKLOADS.items()
        },
    }


def write_manifest() -> None:
    for path, payload in (
        (os.path.join(ROOT, "BENCHMARK.json"), manifest()),
        (os.path.join(HERE, "workloads.json"), workload_details()),
    ):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


# -- command line -------------------------------------------------------------------

def main(argv: Optional[List[str]] = None, *, sizes=None,
         max_cycles: Optional[int] = None) -> int:
    """The command line; ``sizes`` and ``max_cycles`` shrink a run for
    the benchmark's own tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.write_manifest:
        write_manifest()
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    # Everything the run writes -- member stores, the broker's port files,
    # supervisor logs -- stays inside the checkout; spawned broker and
    # relay processes import the program from it.
    work = tempfile.mkdtemp(prefix="run-", dir=_ensure(WORK))
    saved_env = {key: os.environ.get(key) for key in ("TMPDIR", "PYTHONPATH")}
    saved_tempdir = tempfile.tempdir
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, saved_env["PYTHONPATH"]) if p
    )
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), work, sizes=sizes,
                           max_cycles=max_cycles)
    finally:
        tempfile.tempdir = saved_tempdir
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for line in out.lines:
        print(line)
    for problem in out.problems:
        print("FAILED: %s" % problem)
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }))
    return 0 if out.correct else 1


def _ensure(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
