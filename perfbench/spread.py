"""Run the benchmark repeatedly and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 0-9 --out perfbench/out/spread.json

Workloads and run length default to those in BENCHMARK.json; with
``--seeds 0`` this is the one command that prints every end-to-end
metric of every workload, with its unit, and runs the output checks.

Runs ``run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. ``--out``
writes every run's result and the summary as JSON.

``--repeat 2 --trace 1`` runs each seed twice in a row and reports
whether the two runs agree exactly on every per-layer metric that is
not a time, and on the bytes of the last verdict report the containment
workloads wrote (a traced run always ends on the same request).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900
# Metrics without a time unit that still depend on timing or on how many
# requests fit in a run.
INEXACT = {"work_per_s", "peak_rss_mb", "trace.overhead_frac"}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    report = os.path.join(HERE, "out", f"{workload}.report")
    if os.path.exists(report):
        with open(report, "rb") as handle:
            result["report_sha256"] = hashlib.sha256(handle.read()).hexdigest()
    return result


def exact_part(result: dict) -> dict:
    """Everything in a result that must repeat exactly for one seed."""
    metrics = {name: m["value"] for name, m in result["metrics"].items()
               if m["unit"] != "s" and name not in INEXACT}
    return {"metrics": metrics, "report": result.get("report_sha256")}


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and spread of every metric over the runs."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        results = []
        identical = {}
        for seed in _seeds(args.seeds):
            repeats = []
            for _ in range(args.repeat):
                result = run_once(workload, seed, args.seconds, args.trace)
                result["seed"] = seed
                repeats.append(result)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']} "
                      f"wall={result['wall_s']:.1f} s", flush=True)
            results += repeats
            if args.repeat > 1:
                first = exact_part(repeats[0])
                identical[seed] = all(exact_part(r) == first
                                      for r in repeats[1:])
                print(f"  repeats identical: {identical[seed]}", flush=True)
        summary = summarize(results)
        for name, s in summary.items():
            print(f"  {name:48s} median {s['median']:.6g} {s['unit']:9s} "
                  f"spread {s['spread']:.4f}", flush=True)
        report[workload] = {"runs": results, "summary": summary,
                            "repeats_identical": identical}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
