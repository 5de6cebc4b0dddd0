// Parallel event kernel: events/sec and checkpoint-epoch cost vs partition
// count, with the digest-oracle identity check inline.
//
// For each partition count p in the sweep, the same generated topology (100
// hosts by default, fat-tree or multi-LAN zones) is run twice: once on the
// sequential oracle (workers = 0) and once on the worker pool (workers =
// p - 1, i.e. p-way including the coordinator). Both runs checkpoint at every
// epoch barrier. The bench FAILS (non-zero exit) unless, for every p, the
// parallel run's merged event digest AND the fold over all captured
// checkpoint images are bit-identical to the oracle's — the acceptance
// criterion of the partitioned kernel.
//
//   $ ./build/bench/tab_parallel_kernel [--hosts=N] [--partitions=P]
//        [--shape=fattree|zones] [--epoch-ms=E] [--sim-ms=T] [--ledger[=FILE]]
//
// Speedup is reported against the p=1 sequential baseline. On a single
// hardware thread the honest number is <= 1; the digest identity is the
// machine-independent claim.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/checkpoint/epoch_coordinator.h"
#include "src/net/topology.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

using namespace tcsim;

namespace {

struct RunResult {
  uint64_t event_digest = 0;
  uint64_t behavior_digest = 0;
  uint64_t captures_digest = 0;
  uint64_t total_events = 0;
  uint64_t cross_events = 0;
  uint64_t windows = 0;
  uint64_t guard_violations = 0;
  uint64_t epoch_image_bytes = 0;  // per epoch (all partitions)
  double epoch_wall_ms = 0;        // mean capture cost per epoch
  size_t partitions = 0;
  size_t epochs = 0;
  double wall_s = 0;
  double events_per_sec = 0;
};

RunResult RunOnce(const GeneratedTopologyParams& params, uint32_t partitions,
                  uint32_t workers, SimTime horizon, SimTime epoch_period) {
  auto topo = GeneratedTopology::Build(params, partitions, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), epoch_period,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });

  RestartLedger();
  const auto start = std::chrono::steady_clock::now();
  epochs.RunUntil(horizon);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.event_digest = topo->EventDigest();
  r.behavior_digest = topo->BehaviorDigest();
  r.captures_digest = epochs.CapturesDigest();
  r.total_events = topo->TotalEvents();
  r.cross_events = topo->scheduler()->stats().cross_events;
  r.windows = topo->scheduler()->stats().windows;
  r.guard_violations = topo->scheduler()->GuardViolations();
  r.partitions = topo->partition_count();
  r.epochs = epochs.history().size();
  for (const auto& rec : epochs.history()) {
    r.epoch_image_bytes += rec.image_bytes;
    r.epoch_wall_ms += rec.frozen_wall_ms;
  }
  if (r.epochs > 0) {
    r.epoch_image_bytes /= r.epochs;
    r.epoch_wall_ms /= static_cast<double>(r.epochs);
  }
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.events_per_sec =
      r.wall_s > 0 ? static_cast<double>(r.total_events) / r.wall_s : 0;
  return r;
}

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_parallel_kernel");

  GeneratedTopologyParams params;
  params.hosts = static_cast<uint32_t>(FlagU64(argc, argv, "--hosts", 100));
  const char* shape = FlagValue(argc, argv, "--shape");
  if (shape != nullptr && std::string(shape) == "zones") {
    params.shape = TopologyShape::kMultiLanZones;
  }
  const uint32_t max_partitions =
      static_cast<uint32_t>(FlagU64(argc, argv, "--partitions", 4));
  const SimTime horizon =
      static_cast<SimTime>(FlagU64(argc, argv, "--sim-ms", 200)) * kMillisecond;
  const SimTime epoch_period =
      static_cast<SimTime>(FlagU64(argc, argv, "--epoch-ms", 50)) * kMillisecond;

  std::vector<uint32_t> sweep;
  for (uint32_t p = 1; p <= max_partitions; p *= 2) {
    sweep.push_back(p);
  }
  if (sweep.back() != max_partitions) {
    sweep.push_back(max_partitions);
  }

  PrintHeader("tab_parallel_kernel",
              "partitioned kernel: digest oracle, events/sec and "
              "checkpoint-epoch cost vs partition count");

  bool ok = true;
  double baseline_eps = 0;
  for (const uint32_t p : sweep) {
    const RunResult oracle = RunOnce(params, p, /*workers=*/0, horizon,
                                     epoch_period);
    const RunResult parallel = RunOnce(params, p, /*workers=*/p - 1, horizon,
                                       epoch_period);

    const bool digest_ok = oracle.event_digest == parallel.event_digest &&
                           oracle.captures_digest == parallel.captures_digest &&
                           oracle.behavior_digest == parallel.behavior_digest &&
                           oracle.total_events == parallel.total_events;
    const bool guards_ok =
        oracle.guard_violations == 0 && parallel.guard_violations == 0;
    ok = ok && digest_ok && guards_ok;
    if (p == 1) {
      baseline_eps = oracle.events_per_sec;
    }
    const double speedup =
        baseline_eps > 0 ? parallel.events_per_sec / baseline_eps : 0;

    char section[96];
    std::snprintf(section, sizeof section, "partitions = %u (%zu effective)",
                  p, oracle.partitions);
    PrintSection(section);
    PrintValue("events", static_cast<double>(oracle.total_events), "");
    PrintValue("cross-partition events",
               static_cast<double>(oracle.cross_events), "");
    PrintValue("conservative windows", static_cast<double>(oracle.windows), "");
    PrintValue("oracle events/sec", oracle.events_per_sec, "ev/s");
    PrintValue("parallel events/sec", parallel.events_per_sec, "ev/s");
    PrintValue("speedup vs p=1 sequential", speedup, "x");
    PrintValue("checkpoint epochs", static_cast<double>(parallel.epochs), "");
    PrintValue("epoch image bytes",
               static_cast<double>(parallel.epoch_image_bytes), "B");
    PrintValue("epoch capture cost (parallel)", parallel.epoch_wall_ms, "ms");
    PrintValue("epoch capture cost (oracle)", oracle.epoch_wall_ms, "ms");
    if (digest_ok) {
      PrintNote("digest merge bit-identical to sequential oracle");
    } else {
      char why[256];
      std::snprintf(why, sizeof why,
                    "DIGEST MISMATCH vs sequential oracle (events %016llx vs "
                    "%016llx, captures %016llx vs %016llx, behavior %016llx vs "
                    "%016llx, %llu vs %llu events)",
                    static_cast<unsigned long long>(parallel.event_digest),
                    static_cast<unsigned long long>(oracle.event_digest),
                    static_cast<unsigned long long>(parallel.captures_digest),
                    static_cast<unsigned long long>(oracle.captures_digest),
                    static_cast<unsigned long long>(parallel.behavior_digest),
                    static_cast<unsigned long long>(oracle.behavior_digest),
                    static_cast<unsigned long long>(parallel.total_events),
                    static_cast<unsigned long long>(oracle.total_events));
      PrintNote(why);
    }
    if (!guards_ok) {
      PrintNote("QUEUE GUARD VIOLATIONS detected: " +
                std::to_string(oracle.guard_violations) + " oracle, " +
                std::to_string(parallel.guard_violations) + " parallel");
    }
  }

  if (!ok) {
    std::printf("\nFAIL: parallel run diverged from the sequential oracle\n");
  }
  return bm.Finish(ok ? 0 : 1);
}
