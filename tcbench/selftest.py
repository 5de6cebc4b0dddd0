#!/usr/bin/env python3
"""Self-test of the tcsim benchmark.

    python3 tcbench/selftest.py          # statistics helpers, name coverage
    python3 tcbench/selftest.py --runs   # also run every workload, both modes

The fast tests pin the statistics helpers (median, the nearest-rank
percentile, the ten-samples-beyond tail rule and sample counts) and check
that run.py computes every metric BENCHMARK.json names for every workload it
lists. With --runs each workload is run briefly with tracing off and on, and
the result line must carry exactly BENCHMARK.json's metric names and units.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_keeps_ten_samples_beyond(self):
        cases = {19: None, 99: None, 100: 90.0, 999: 90.0, 1000: 99.0, 9999: 99.0,
                 10000: 99.9}
        for n, expected in cases.items():
            p, value = stats.tail(list(range(1, n + 1)))
            self.assertEqual(p, expected, n)
            if p is not None:
                self.assertGreaterEqual(stats.beyond(p, n), stats.MIN_BEYOND)
                self.assertEqual(value, stats.rank(p, n))

    def test_summary_states_sample_count(self):
        self.assertEqual(stats.summarize([]), {"n": 0})
        s = stats.summarize([float(v) for v in range(1, 101)])
        self.assertEqual(s, {"n": 100, "p50": 50.5, "tail_p": 90.0, "tail": 90.0})

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5]), (4.5 - 1.5) / 3)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class CoverageTest(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_every_metric_is_computed(self):
        self.assertEqual(sorted(m["name"] for m in SPEC["end_to_end"]), sorted(run.END_TO_END))
        self.assertEqual(sorted(m["name"] for m in SPEC["per_layer"]), sorted(run.PER_LAYER))

    def test_setup_time_is_a_median_of_calibrated_blocks(self):
        reps = [{"setup_block_s": s, "setup_block_cal_s": cal}
                for s, cal in ((1.0, [0.025, 0.025]), (4.0, [0.05, 0.05]), (9.0, [0.025, 0.025]))]
        fake = type("FakeRun", (), {"untraced": reps})()
        self.assertEqual(run.setup_times(fake, calibrated=False), [1.0, 4.0, 9.0])
        self.assertEqual(run.setup_times(fake), [1.0, 2.0, 9.0])
        self.assertEqual(run.END_TO_END["setup_s"](fake), 2.0)


def run_all(seconds=1):
    """Runs every workload in both modes; returns the problems found."""
    problems = []
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            where = f"{workload} --trace {trace}"
            known = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: incorrect")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{where}: non-finite value")
            print(f"{where}: {'ok' if len(problems) == known else 'FAILED'}", flush=True)
    return problems


if __name__ == "__main__":
    runs = "--runs" in sys.argv
    if runs:
        sys.argv.remove("--runs")
    result = unittest.main(exit=False).result
    failed = not result.wasSuccessful()
    if runs and not failed:
        problems = run_all()
        for p in problems:
            print(p)
        failed = bool(problems)
    sys.exit(1 if failed else 0)
