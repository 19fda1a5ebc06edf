#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root (a few minutes; most of it is the lattice,
whose runs never stop before 100 requests):

    python3 perfbench/tests/test_perfbench.py

Every run goes through perfbench/run.py exactly as the benchmark is run.
The tests use seed 5, which has no committed expected stats, so each run
checks against the serial reference it computes first.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench" / "tests"

sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import run as perfbench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload measures (the rest read 0: the workload
# bypasses that layer). Counts that can legitimately be 0 on a small suite,
# such as fence stalls, are left out.
MEASURED = {
    "lattice": [
        "trace.generate_s", "core.accesses", "core.hits", "core.misses",
        "core.hit_ratio", "core.eviction_invocations",
        "core.evicted_blocks", "core.links_created", "core.unlinked_links",
        "core.modelled_overhead_ginsn", "multisweep.pass_s", "multisweep.pass_max_s",
        "multisweep.decoded_accesses", "multisweep.all_resident_shortcuts",
        "multisweep.all_hit_fraction", "multisweep.shared_misses",
        "sim.dense_pass_s", "bench.request.self_s"],
    "replay": [
        "trace.generate_s", "trace.write_s", "trace.read_s",
        "trace.read_mb_per_s", "service.job_s", "service.job.self_s",
        "service.wait_ms_mean", "service.run_ms_mean", "service.jobs_done",
        "service.jobs_attempted", "core.accesses", "core.hits", "core.misses",
        "core.hit_ratio", "core.ns_per_access", "core.eviction_invocations",
        "core.evicted_blocks", "core.links_created", "core.unlinked_links",
        "core.modelled_overhead_ginsn", "bench.request.self_s"],
    "shared": [
        "trace.generate_s", "trace.write_s", "trace.map_open_s",
        "core.accesses", "core.hits", "core.misses", "core.hit_ratio",
        "core.eviction_invocations", "core.evicted_blocks",
        "core.links_created", "core.modelled_overhead_ginsn",
        "shared.run_s", "shared.ns_per_access_thread", "shared.fast_hits",
        "shared.fast_hit_frac", "shared.engine_lock_stalls",
        "bench.request.self_s"],
}

# Per-layer metrics read from simulated results rather than clocks.
COUNT_UNITS = {"count", "ratio", "Ginsn"}

_runs = {}


def bench(workload, trace, seed=5, *extra):
    """Runs the benchmark once per distinct argument list; returns the
    parsed result line."""
    key = (workload, trace, seed, extra)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
             *extra],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=True)
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


def reference(workload, seed):
    """The serial reference stats file for a seed."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"reference-{workload}-{seed}.tsv"
    perfbench.build()
    subprocess.run([str(perfbench.HARNESS), "reference",
                    f"--workload={workload}", f"--seed={seed}",
                    f"--out={path}"], check=True)
    return path


def forge(path):
    """Copies an expected-stats file with one counter of one cell off by
    one; returns the copy."""
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[row].split("\t")
    fields[5] = str(int(float(fields[5])) + 1)  # Misses
    lines[row] = "\t".join(fields)
    forged = path.with_name("forged-" + path.name)
    forged.write_text("\n".join(lines) + "\n")
    return forged


class MetricNames(unittest.TestCase):
    def test_every_metric_printed_matches_benchmark_json(self):
        for workload in perfbench.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    listed = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(printed, listed)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in perfbench.WORKLOADS:
            for name, m in bench(workload, 0)["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_each_workload_measures_its_layers(self):
        for workload, names in MEASURED.items():
            metrics = bench(workload, 1)["metrics"]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metrics[name]["value"], 0)


class CountsRepeat(unittest.TestCase):
    def test_lattice_and_replay_counts_repeat_exactly(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts = [n for n, u in units.items() if u in COUNT_UNITS]
        self.assertIn("core.modelled_overhead_ginsn", counts)
        for workload in ("lattice", "replay"):
            first = bench(workload, 1)["metrics"]
            second = bench(workload, 1, 5, "--seconds", "1")["metrics"]
            for name in counts:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"])


class CorrectnessGate(unittest.TestCase):
    def test_gate_trips_on_forged_stats(self):
        for workload in ("lattice", "replay"):
            with self.subTest(workload=workload):
                forged = forge(reference(workload, 5))
                result = bench(workload, 0, 5, "--expected", str(forged))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["failed"], result["attempted"])

    def test_gate_trips_on_failed_job(self):
        result = bench("replay", 0, 5, "--forge", "failed-job")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class Percentiles(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(perfbench.p90(list(range(1, 101))), 90)
        with self.assertRaises(ValueError):
            perfbench.p90(list(range(1, 100)))

    def test_windows_are_whole_passes_of_at_least_100_requests(self):
        for per_pass, passes in ((20, 5), (20, 17), (60, 2), (60, 451)):
            with self.subTest(per_pass=per_pass, passes=passes):
                requests = list(range(per_pass * passes))
                spans = perfbench.windows(
                    {"pass_s": [1.0] * passes, "request_ms": requests})
                self.assertEqual(sum(spans, []), requests)
                for span in spans:
                    self.assertGreaterEqual(len(span), 100)
                    self.assertEqual(len(span) % per_pass, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
