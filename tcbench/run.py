#!/usr/bin/env python3
"""Runs one workload of the tcsim benchmark and prints its metrics.

    python3 tcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (tcbench/CMakeLists.txt) from the source tree
into $CARGO_TARGET_DIR/tcbench (default .bench_build/tcbench), runs it, checks
every correctness record it printed, and prints as the last line of stdout
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, measured with
tracing off; with --trace 1 they are its per_layer list, taken from the
traced repetitions of the same run. A "detail" line printed just before
records the build stamps, the thread plan, sample counts, the ledger's
coverage and the timings only some workloads have; the same record is saved
under <build dir>/results/.

Operations counted in attempted/failed: checkpoints, epochs, recoveries,
materialisations and correctness checks. A failed operation or check makes
correct false. Wall-clock ledger coverage is reported, never checked.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

IPERF = "iperf_paper"
HA = "ha_failover_1k"
SPILL = "epoch_spill_1k"
WORKLOADS = (IPERF, HA, SPILL)
RUN_LIMIT_S = 175  # the whole run, build check included, must end by 180 s
# Seconds tcbench's calibration loop took on the machine this benchmark was
# written on (4 vCPUs, gcc 12.2, RelWithDebInfo). Host times are multiplied
# by CAL_REFERENCE_S / (the loop's time around the measurement), so they read
# as seconds on that machine and the host's own speed drift cancels out.
CAL_REFERENCE_S = 0.025


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and run the program.

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")) / "tcbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "tcbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "tcbench"


def run_program(binary, args, work, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("benchmark program timed out")
    if proc.returncode != 0:
        raise BenchError(f"benchmark program exited with {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if not records or records[-1].get("kind") != "end":
        raise BenchError("benchmark program output ends without an end record")
    return records


def source_digest():
    """sha256 over the files the program is built from; identifies the code
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# From repetition records to metrics.

def speed(cal_s):
    """Factor that rescales a host time measured between two calibration
    loops of `cal_s` seconds to seconds on the reference machine."""
    return CAL_REFERENCE_S / (sum(cal_s) / len(cal_s))


class Run:
    """The records of one program run, split the way the metrics use them."""

    def __init__(self, workload, records):
        self.workload = workload
        self.env = next(r for r in records if r["kind"] == "env")
        self.reference = next(r for r in records if r["kind"] == "reference")
        reps = [r for r in records if r["kind"] == "rep"]
        self.untraced = [r for r in reps if not r["traced"]]
        self.traced = [r for r in reps if r["traced"]]
        self.reps = reps


def pooled(reps, key):
    """Samples `key` of every repetition; ledger phases a run never stamped
    count as no samples, any other missing key is a program error."""
    out = []
    for r in reps:
        if key in ("frozen_ms", "image_bytes"):
            out.extend(r[key])
        elif key.startswith("ledger."):
            out.extend(r["samples"].get(key, []))
        else:
            out.extend(r["samples"][key])
    return out


def layer(reps, name):
    return stats.median([r["layer"][name] for r in reps])


def traced(run):
    if not run.traced:
        raise BenchError("per-layer metrics need --trace 1")
    return run.traced


def only(workload, fn):
    """A metric of a layer only `workload` runs; 0 on the others."""
    return lambda run: fn(run) if run.workload == workload else 0.0


def iperf_or(iperf_fn, epoch_fn):
    """A metric the paper stack measures one way and the two partitioned,
    epoch-driven workloads another."""
    return lambda run: (iperf_fn if run.workload == IPERF else epoch_fn)(run)


def counted(name):
    """A per-repetition scalar, median over the traced repetitions."""
    return lambda run: layer(traced(run), name)


def untraced_p50(key):
    return lambda run: stats.median(pooled(run.untraced, key))


def ledger_p50(phase):
    return lambda run: stats.median(pooled(traced(run), "ledger." + phase))


def commit_growth(commit_ms):
    """Mean commit of the last tenth of epochs over that of the first tenth."""
    k = max(1, len(commit_ms) // 10)
    first = sum(commit_ms[:k]) / k
    return sum(commit_ms[-k:]) / k / first if first > 0 else 0.0


def publish_ms(rep):
    """Per-epoch commit time not covered by the repository's own ledger
    stamps: in-memory publication, RebuildRetention included."""
    s = rep["samples"]
    children = [s.get("ledger.repo." + p, []) for p in ("hash_wait", "append", "fsync", "journal")]
    return [c - sum(parts) for c, *parts in zip(s["repo.commit_ms"], *children)]


def share(run, phases):
    """Median over traced repetitions of the summed duration of `phases`
    (ledger phases or benchmark samples) as a share of measured wall."""
    values = []
    for r in traced(run):
        busy = sum(sum(r["samples"].get(p, [])) for p in phases)
        values.append(busy / (r["wall_s"] * 1000.0))
    return stats.median(values)


def iperf_capture_ms(rep):
    """Capture work of one iperf repetition: frozen and serialize time."""
    return sum(rep["frozen_ms"]) + sum(rep["samples"]["ckpt.serialize_ms"])


def iperf_ckpt_share(run):
    """Capture work inside (frozen) and after (serialize) each checkpoint."""
    return stats.median([iperf_capture_ms(r) / (r["wall_s"] * 1000.0) for r in traced(run)])


def iperf_sim_share(run):
    """RunUntil slice time minus the capture work inside it. The event loop
    runs TCP, dummynet and the guests too; from outside they cannot be split
    from the kernel, so this share includes them."""
    return stats.median([(sum(r["samples"]["sched.window_ms"]) - iperf_capture_ms(r)) /
                         (r["wall_s"] * 1000.0) for r in traced(run)])


def frozen_tail(run):
    values = pooled(run.reps, "frozen_ms")
    p, value = stats.tail(values)
    return value if p is not None else max(values)


def setup_times(run, calibrated=True):
    """One value per untraced repetition: the median set-up time of the
    block of set-ups timed just before it."""
    return [r["setup_block_s"] * (speed(r["setup_block_cal_s"]) if calibrated else 1.0)
            for r in run.untraced]


def wall_per_sim(reps):
    """Calibrated host seconds per simulated second, one value per rep."""
    return [r["wall_s"] * speed(r["cal_s"]) / r["sim_s"] for r in reps]


END_TO_END = {
    "setup_s": lambda run: stats.median(setup_times(run)),
    "wall_s_per_sim_s": lambda run: stats.median(wall_per_sim(run.untraced)),
    "peak_rss_MB": lambda run: stats.median([r["peak_rss_mb"] for r in run.untraced]),
    "image_bytes_per_ckpt": lambda run: stats.median(
        [sum(r["image_bytes"]) / len(r["image_bytes"]) for r in run.untraced]),
}

EPOCH_CKPT_PHASES = ("ledger.freeze", "ledger.capture", "ledger.commit_launch",
                     "ledger.serialize.partition")

PER_LAYER = {
    "sim.events": counted("sim.events"),
    "sim.events_per_s": lambda run: layer(run.untraced, "sim.events_per_s"),
    "sim.pending_high_water": counted("sim.pending_high_water"),
    "sim.slot_capacity": counted("sim.slot_capacity"),
    "sched.windows": counted("sched.windows"),
    "sched.cross_events": counted("sched.cross_events"),
    "sched.window_ms_p50": iperf_or(untraced_p50("sched.window_ms"), ledger_p50("window")),
    "net.packets_delivered": counted("net.packets_delivered"),
    "tcp.retransmits": only(IPERF, counted("tcp.retransmits")),
    "tcp.dup_acks": only(IPERF, counted("tcp.dup_acks")),
    "dummynet.forwarded": only(IPERF, counted("dummynet.forwarded")),
    "dummynet.ckpt_bytes": only(IPERF, counted("dummynet.ckpt_bytes")),
    "guest.activities": only(IPERF, counted("guest.activities")),
    "guest.firewall_deferred": only(IPERF, counted("guest.firewall_deferred")),
    "ckpt.count": counted("ckpt.count"),
    # The benchmark times the SnapshotFn it passes to the spill coordinator;
    # MicroCheckpointer passes its own, so HA reads the ledger's stamp. The
    # paper stack has neither a SnapshotFn nor ledger stamps: its frozen
    # window is one undivided engine span, reported only as ckpt.frozen_ms_p50,
    # and the snapshot and freeze phases read 0 there.
    "ckpt.snapshot_ms_p50": lambda run: {
        IPERF: lambda run: 0.0,
        HA: ledger_p50("freeze.partition"),
        SPILL: untraced_p50("ckpt.snapshot_ms")}[run.workload](run),
    "ckpt.freeze_ms_p50": iperf_or(lambda run: 0.0, ledger_p50("freeze")),
    "ckpt.serialize_ms_p50": iperf_or(untraced_p50("ckpt.serialize_ms"),
                                      ledger_p50("serialize.partition")),
    "ckpt.frozen_ms_p50": untraced_p50("frozen_ms"),
    "ckpt.frozen_ms_tail": frozen_tail,
    "ckpt.delta_chunks": only(IPERF, counted("ckpt.delta_chunks")),
    "ckpt.crc_fallbacks": only(IPERF, counted("ckpt.crc_fallbacks")),
    "repo.commit_growth": only(SPILL, lambda run: stats.median(
        [commit_growth(r["samples"]["repo.commit_ms"]) for r in traced(run)])),
    "repo.physical_bytes": only(SPILL, counted("repo.physical_bytes")),
    "repo.dedup_ratio": only(SPILL, counted("repo.dedup_ratio")),
    "repo.restore_MBps": only(SPILL, lambda run: stats.median(
        [r["layer"]["repo.restore_bytes"] / r["layer"]["repo.restore_s"] / 1e6
         for r in run.untraced])),
    "ha.released": only(HA, counted("ha.released")),
    "ha.replayed": only(HA, counted("ha.replayed")),
    "ha.discarded": only(HA, counted("ha.discarded")),
    "ha.suppressed": only(HA, counted("ha.suppressed")),
    "ha.kills": only(HA, counted("ha.kills")),
    "share.sim": iperf_or(iperf_sim_share, lambda run: share(run, ("ledger.window",))),
    "share.ckpt": iperf_or(iperf_ckpt_share, lambda run: share(run, EPOCH_CKPT_PHASES)),
    "share.commit_wait": lambda run: share(run, ("ledger.commit_wait",)),
    "share.repo": only(SPILL, lambda run: share(run, ("repo.commit_ms",))),
    "share.repo_publish": only(SPILL, lambda run: stats.median(
        [sum(publish_ms(r)) / (r["wall_s"] * 1000.0) for r in traced(run)])),
    "share.ha_release": lambda run: share(run, ("ledger.output_release",)),
    "share.ha_failover": lambda run: share(run, ("ledger.failover",)),
    "share.ha_commit": lambda run: share(run, ("ledger.epoch_commit",)),
    "trace_overhead_frac": lambda run: stats.median(wall_per_sim(traced(run))) /
    stats.median(wall_per_sim(run.untraced)) - 1.0,
}


def detail(run):
    """Timings with their sample counts, including those only some workloads
    have; each is taken from untraced repetitions unless it comes from the
    ledger."""
    u, t = run.untraced, run.traced
    out = {"frozen_ms": stats.summarize(pooled(u, "frozen_ms")),
           "setup_s_calibrated": stats.summarize(setup_times(run)),
           "setup_s_raw": stats.summarize(setup_times(run, calibrated=False)),
           "setup_s_first_build": stats.summarize([r["setup_s"] for r in u]),
           "setups_per_block": stats.summarize([r["setup_block_n"] for r in u]),
           "wall_s_per_sim_s_raw": stats.summarize([r["wall_s"] / r["sim_s"] for r in u]),
           "calibration_s": stats.summarize(
               [c for r in run.reps for c in r["cal_s"] + r["setup_block_cal_s"]]),
           "peak_rss_per_repetition": all(r["peak_rss_reset"] for r in u)}
    timings = {
        "ckpt.commit_wait_ms": (u, "ckpt.commit_wait_ms"),
        "ckpt.snapshot_ms": (u, "ckpt.snapshot_ms"),
        "ha.recovery_ms": (u, "ha.recovery_ms"),
        "ha.failover_ms": (t, "ledger.failover"),
        "ha.release_ms": (t, "ledger.output_release"),
        "ha.epoch_commit_ms": (t, "ledger.epoch_commit"),
        "repo.commit_ms": (u, "repo.commit_ms"),
        "repo.hash_wait_ms": (t, "ledger.repo.hash_wait"),
        "repo.append_ms": (t, "ledger.repo.append"),
        "repo.fsync_ms": (t, "ledger.repo.fsync"),
        "repo.journal_ms": (t, "ledger.repo.journal"),
        "repo.materialize_ms": (u, "repo.materialize_ms"),
        "sched.window_ms": (t, "ledger.window"),
        "sched.step_epoch_ms": (u, "sched.step_epoch_ms"),
        "sched.straggler_slack_ms": (t, "ledger.straggler_slack_ms"),
        "setup.build_ms": (u, "setup.build_ms"),
        "setup.micro_checkpointer_ms": (u, "setup.micro_checkpointer_ms"),
        "setup.repo_create_ms": (u, "setup.repo_create_ms"),
    }
    for name, (reps, key) in timings.items():
        values = [v for r in reps for v in r["samples"].get(key, [])]
        if values:
            out[name] = stats.summarize(values)
    if t and run.workload == SPILL:
        out["repo.publish_ms"] = stats.summarize([v for r in t for v in publish_ms(r)])
    if u and run.workload == SPILL:
        out["repo.open_ms"] = stats.summarize([r["layer"]["repo.open_ms"] for r in u])
    if t and run.workload == HA:
        # Output hold is simulated time and identical in every run. The
        # ledger's nearest-rank p99 over per-release maximum holds is the
        # reported definition; the registry's power-of-two histogram can only
        # name the upper edge of the bucket holding its p99.
        out["ha.hold_ms_p99"] = {
            "value": layer(t, "ledger.hold_p99_us") / 1000.0,
            "definition": "epoch ledger output_release records: nearest-rank p99 "
                          "of each release's maximum simulated hold",
            "histogram_bucket_edge_ms": layer(t, "ha.hold_bucket_edge_p99_us") / 1000.0,
        }
    if t and any(r["samples"].get("ledger.epoch") for r in t):
        out["ledger.min_coverage"] = min(r["layer"]["ledger.min_coverage"] for r in t)
    return out


def compute(run, names, table):
    metrics = {}
    for name, unit in names:
        if name not in table:
            raise BenchError(f"BENCHMARK.json names {name}, which run.py does not compute")
        value = float(table[name](run))
        if not math.isfinite(value):
            raise BenchError(f"{name} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def correctness(run):
    """(attempted, failed, problems) over operations, checks and digests."""
    attempted = sum(int(r["ops"]) for r in run.reps)
    failed = sum(int(r["ops_failed"]) for r in run.reps)
    problems = []
    if failed:
        problems.append(f"{failed} failed operations")
    for r in run.reps:
        for name, ok in r["checks"].items():
            attempted += 1
            if not ok:
                failed += 1
                problems.append(f"rep {r['index']}: {name}")
    # Determinism: every repetition, traced or not, reproduces the digests.
    first = run.reps[0]["digests"]
    for r in run.reps[1:]:
        for name, value in first.items():
            attempted += 1
            if r["digests"].get(name) != value:
                failed += 1
                problems.append(f"rep {r['index']}: digest {name} differs")
    attempted += 1
    if run.env["threads"]["total"] > run.env["nproc"]:
        failed += 1
        problems.append("more runnable threads than CPUs")
    return attempted, failed, problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"BENCHMARK.json does not list workload {args.workload}")
    out = build_dir()
    binary = build(out)
    work = out / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, run_program(binary, args, work, deadline))

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = compute(run, names, PER_LAYER)
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        metrics = compute(run, names, END_TO_END)
    attempted, failed, problems = correctness(run)
    for p in problems:
        print(f"tcbench: {p}", file=sys.stderr)

    record = {
        "kind": "detail",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "env": {k: v for k, v in run.env.items() if k != "kind"},
        "reference": {k: v for k, v in run.reference.items() if k != "kind"},
        "reps": {"untraced": len(run.untraced), "traced": len(run.traced)},
        "digests": run.reps[0]["digests"],
        "problems": problems,
        "timings": detail(run),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(
        json.dumps({"detail": record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"tcbench: {e}", file=sys.stderr)
        sys.exit(1)
