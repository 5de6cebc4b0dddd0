#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

    python3 tcbench/steady.py --workload NAME [--seeds 1-10] [--seconds S]

Runs tcbench/run.py once per seed with tracing off, then prints, for every
end-to-end metric, its median over the runs and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread at or above a third of the metric's bound in
BENCHMARK.json is flagged. For the calibrated host times (setup_s,
wall_s_per_sim_s) it also prints the spread of the uncalibrated times.
Exits 1 if any run fails or is incorrect.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    # The same host times before calibration, from the detail record.
    raw = {"setup_s": ("setup_s_raw", []), "wall_s_per_sim_s": ("wall_s_per_sim_s_raw", [])}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        timings = json.loads(lines[-2])["timings"]
        for key, samples in raw.values():
            samples.append(timings[key]["p50"])

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        s = stats.spread(v)
        flag = "  <-- above bound/3" if s >= m["bound"] / 3 else ""
        uncalibrated = ""
        if m["name"] in raw:
            uncalibrated = f", uncalibrated {stats.spread(raw[m['name']][1]):.4f}"
        print(f"{m['name']:24s} median {stats.median(v):.6g} {m['unit']:6s} "
              f"spread {s:.4f} (bound {m['bound']}{uncalibrated}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
