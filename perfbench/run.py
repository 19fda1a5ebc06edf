#!/usr/bin/env python3
"""The repository benchmark: three workloads over the ccsim simulator.

Run from the repository root:

    python3 perfbench/run.py --workload lattice|replay|shared \
        --seed N --seconds S --trace 0|1

It builds perfbench/harness.cpp against src/ (in .bench_build/perfbench),
generates the inputs from --seed, runs the workload for at least --seconds
in whole passes over the suite, checks every simulated result, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
WORKLOADS = ("lattice", "replay", "shared")
# Committed expected stats, one file per seed that has them.
EXPECTED_DIR = HERE / "expected"
# Latency percentiles are taken per window of whole passes holding at least
# this many requests, so p90 has ten samples beyond it, and the median over
# windows is reported: a host slowdown over less than half of a run does
# not move it.
WINDOW_REQUESTS = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_harness", "-j", jobs],
                   check=True, stdout=sys.stderr)


def harness(*args):
    """Runs one harness subcommand and returns its JSON report (or None)."""
    proc = subprocess.run([str(HARNESS), *args], check=True,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def p90(values):
    """Nearest-rank 90th percentile; needs ten samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p90 of {len(ordered)} samples has fewer than ten "
                         "samples beyond it")
    return ordered[rank - 1]


def windows(phase):
    """Splits a phase's request latencies into windows of whole passes with
    at least WINDOW_REQUESTS requests each; a remainder joins the last."""
    requests = phase["request_ms"]
    per_pass = len(requests) // len(phase["pass_s"])
    size = per_pass * math.ceil(WINDOW_REQUESTS / per_pass)
    count = max(1, len(requests) // size)
    return [requests[i * size:(i + 1) * size] for i in range(count - 1)] + \
        [requests[(count - 1) * size:]]


def end_to_end(phase):
    """The request-level metrics of one measured phase. Every pass replays
    the same inputs, so one pass's accesses over the median pass time is
    the typical pass's throughput."""
    wall = statistics.median(phase["pass_s"])
    groups = windows(phase)
    return {
        "wall_s": wall,
        "accesses_per_s": phase["accesses"] / len(phase["pass_s"]) / wall
        / 1e6,
        "job_latency_p50_ms": statistics.median(
            map(statistics.median, groups)),
        "job_latency_p90_ms": statistics.median(map(p90, groups)),
    }


def measure(args, work):
    """Runs set-up and the workload; returns (attempted, failed, values)."""
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--dir={work}"]

    expected = args.expected
    committed = EXPECTED_DIR / f"seed-{args.seed}.tsv"
    if not expected and args.workload != "shared":
        if committed.exists():
            expected = str(committed)
        else:
            # No committed values for this seed: the serial dense reference,
            # computed before and outside the timed phase.
            expected = str(work / "reference.tsv")
            harness("reference", *common, f"--out={expected}")

    # Set-up repeats inside the harness; setup_s is the median.
    setup = harness("setup", *common)
    run_args = ["run", *common, f"--seconds={args.seconds}",
                f"--trace={args.trace}"]
    if expected:
        run_args.append(f"--expected={expected}")
    if args.forge:
        run_args.append(f"--forge={args.forge}")
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        run_args.append(
            f"--spans-out={spans / f'{args.workload}-seed{args.seed}.json'}")
    report = harness(*run_args)

    untraced = end_to_end(report["untraced"])
    log(f"{args.workload}: {len(report['untraced']['request_ms'])} requests "
        f"in {len(report['untraced']['pass_s'])} passes")
    if not args.trace:
        values = dict(untraced)
        values["setup_s"] = statistics.median(setup["setup_s"])
        values["peak_rss_mb"] = report["peak_rss_kb"] / 1024.0
    else:
        values = dict(report["layers"])
        values["trace.generate_s"] = statistics.median(setup["generate_s"])
        values["trace.write_s"] = statistics.median(setup["write_s"])
        traced = end_to_end(report["traced"])
        for name, value in traced.items():
            values[f"tracing.{name}_delta"] = value - untraced[name]
    return int(report["attempted"]), int(report["failed"]), values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hooks (perfbench/tests): another expected-stats file and a
    # forged failing job.
    parser.add_argument("--expected", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--forge", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # harness it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    work = BUILD / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        attempted, failed, values = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A layer the workload never enters reads 0; a name the benchmark
    # measured but BENCHMARK.json does not list is a failed check.
    unknown = sorted(set(values) - set(units))
    attempted += 1
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
        failed += 1
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
