"""futurecone benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fy1c_contain --seed 0 \
        --seconds 20 --trace 0

The benchmark imports the package from ``src/`` of the checkout it sits
in and drives it as one closed-loop client in one process: the next
request starts when the previous one has returned, and no thread is
started. Workloads and their checks are in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics. Requests run until their
summed time reaches ``--seconds`` (at least one request):

* setup_s: import futurecone, build or load the scenario and make the
  inputs; the median of this process's own set-up and of SETUP_PROBES
  fresh processes that do only that, each in reference seconds.
* solve_s: median wall time of one request. Every request's measured
  and scaled time, and its speed samples, are also written to
  ``perfbench/out/<workload>-seed<n>.times.json``.
* work_per_s: work units (tested points, chains or games) per second of
  request time.
* peak_rss_mb: peak resident memory of this process.
* success_frac: requests that returned and passed their output check,
  over requests attempted (one minus the error fraction; never zero
  while anything succeeds).

The three times are reported in reference seconds, because the speed of
the shared machine this runs on changes within seconds: while a request
runs, a timer samples the speed of a fixed piece of work, and the
request's time is scaled by what its samples saw (see ``speed.py``).
Each set-up time is divided by the time of a fixed reference set-up in
a fresh process right after it (see REF_SETUP).

``--trace 1`` runs the workload's first ``traced_requests`` requests
twice each, untraced then traced, and reports per-layer metrics from
the traced pass: calls, busy and self time per wrapped public function,
the layer counters, and the tracing overhead on solve_s. The counters
depend on the seed alone. Spans are written to
``perfbench/out/<workload>-seed<n>.spans.tsv.gz``.

Before timing, each workload runs untimed warm-up work; the containment
workloads use it to check that two CLI runs with one seed write
identical report bytes. The last line of standard output is the JSON
result; ``correct`` is false when any output check or that repeat
check failed.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
# Each set-up time is divided by the time a fresh process takes for a
# fixed reference set-up, measured right after it: importing the
# third-party modules futurecone uses, which is most of its own set-up.
REF_SETUP = ("import time; start = time.perf_counter(); "
             "import numpy, scipy.optimize; "
             "print(repr(time.perf_counter() - start))")
REF_SETUP_S = 0.5
# Fewest speed samples that scale a block of requests.
BLOCK_TICKS = 10
PROBE_TIMEOUT_S = 60
MODULES = ("cli", "cone", "constants", "errors", "kepler", "lambert",
           "maneuver", "scenario_io", "twocars")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _setup(workload: str, seed: int):
    """Import the package and build the workload; time both."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import futurecone
    for name in MODULES:
        importlib.import_module(f"futurecone.{name}")
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; choose from "
                 + ", ".join(WORKLOADS))
    wl = WORKLOADS[workload](futurecone, ROOT, OUT, seed)
    return wl, time.perf_counter() - start


def _timed_process(argv: list[str]) -> float:
    """The seconds a child process prints as its last word."""
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def _setup_times(workload: str, seed: int, own: float) -> list[float]:
    """This process's set-up time and SETUP_PROBES more from fresh
    processes, each in reference seconds (see REF_SETUP)."""
    probe = [os.path.abspath(__file__), "--setup-probe", "--workload",
             workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    times = []
    for i in range(SETUP_PROBES + 1):
        seconds = _timed_process(probe) if i else own
        times.append(seconds / _timed_process(["-c", REF_SETUP])
                     * REF_SETUP_S)
    return times


def _expected_errors(wl) -> tuple:
    """Errors that fail a request rather than the benchmark."""
    from workloads import CheckFailed
    return (wl.fc.errors.FutureConeError, ValueError, CheckFailed)


def wall_clock(call):
    """Run call(); return its result and its wall time in seconds."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class Runner:
    """Times requests with ``clock`` and counts failures for one workload."""

    def __init__(self, wl, clock=wall_clock) -> None:
        self.wl = wl
        self.clock = clock
        self.expected = _expected_errors(wl)
        self.times: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, request=None) -> float:
        """Time request i, check it, and return its time."""
        request = request or self.wl.request

        def call():
            try:
                return request(i), None
            except self.expected as exc:
                return None, exc

        self.attempted += 1
        (output, exc), elapsed = self.clock(call)
        if exc is None:
            try:
                self.work += self.wl.check(i, output)
            except self.expected as failure:
                exc = failure
        if exc is not None:
            self.failed += 1
            print(f"perfbench: {self.wl.name} request {i} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, seconds: float, setup_times: list[float]) -> tuple:
    """Time requests until their own time reaches ``seconds``.

    Consecutive requests form blocks that hold at least BLOCK_TICKS
    ticks (one request, unless requests are short), and each request's
    time is scaled by the speed its block's ticks saw. ``setup_times``
    are already in reference seconds.
    """
    # imported here, not at the top, so that set-up time includes numpy
    import speed
    sampler = speed.Sampler()
    runner = Runner(wl, sampler.timed)
    times = runner.times
    scaled: list[float] = []
    ticks: list[list[float]] = []
    first = 0
    i = 0
    while not times or sum(times) < seconds:
        times.append(runner.run(i))
        i += 1
        block = sampler.ticks[first:]
        if len(block) >= BLOCK_TICKS or sum(times) >= seconds:
            block = block or sampler.ticks
            scaled += [t * speed.scale(block)
                       for t in times[len(scaled):]]
            ticks.append(block)
            first = len(sampler.ticks)
    with open(os.path.join(OUT, f"{wl.name}-seed{wl.seed}.times.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"measured_s": times, "reference_s": scaled,
                   "block_tick_s_per_step": ticks}, handle)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "solve_s": _metric(statistics.median(scaled), "s"),
        "work_per_s": _metric(runner.work / sum(scaled), "1/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "success_frac": _metric(
            (runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    print(f"perfbench: {wl.name}: {len(times)} requests, {runner.work} "
          f"{wl.unit}; measured request time median "
          f"{statistics.median(times):.6g} s, min {min(times):.6g} s, "
          f"max {max(times):.6g} s; set-up samples "
          + ", ".join(f"{t:.4g}" for t in setup_times) + " s; "
          f"{len(sampler.ticks)} ticks, reference seconds per second "
          f"{speed.scale(sampler.ticks):.4g}")
    return runner, metrics


def measure_traced(wl) -> tuple:
    import layers
    from layers import ROOT_SPAN
    from tracing import Tracer
    runner = Runner(wl)
    modules = [wl.fc] + [getattr(wl.fc, name) for name in MODULES]
    tracer = Tracer(modules)
    layers.install(tracer, wl)
    root = tracer.wrap(wl.request, ROOT_SPAN)

    def traced_request(i):
        # tracing covers the request only, never its untimed check
        tracer.request_id = i
        tracer.enabled = True
        try:
            return root(i)
        finally:
            tracer.enabled = False

    untraced, traced = [], []
    try:
        for i in range(wl.traced_requests):
            untraced.append(runner.run(i))
            traced.append(runner.run(i, traced_request))
    finally:
        tracer.uninstall()
    base = statistics.median(untraced)
    overhead = (statistics.median(traced) - base) / base
    metrics = layers.metrics(tracer, wl, overhead)
    tracer.write_spans(os.path.join(
        OUT, f"{wl.name}-seed{wl.seed}.spans.tsv.gz"))
    print(f"perfbench: {wl.name}: {wl.traced_requests} requests traced, "
          f"{tracer.span_count} spans, overhead {overhead:.3g}")
    return runner, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "futurecone", "__init__.py")):
        print(f"perfbench: no futurecone package under {SRC}",
              file=sys.stderr)
        return 2
    wl, setup_time = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_time))
        return 0
    if not args.trace:
        setup_times = _setup_times(args.workload, args.seed, setup_time)
    os.makedirs(OUT, exist_ok=True)
    try:
        warm_ok = wl.warmup()
        if not warm_ok:
            print(f"perfbench: {wl.name}: two runs with one seed wrote "
                  "different reports", file=sys.stderr)
    except _expected_errors(wl) as exc:
        print(f"perfbench: {wl.name}: warm-up failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        warm_ok = False
    if args.trace:
        runner, metrics = measure_traced(wl)
    else:
        runner, metrics = measure(wl, args.seconds, setup_times)
    result = {
        "correct": warm_ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
