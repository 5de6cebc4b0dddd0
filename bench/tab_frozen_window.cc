// Frozen-window cost of checkpoint epochs: synchronous vs two-phase capture.
//
// At every epoch barrier the whole system is quiesced. A synchronous epoch
// pays serialize + CRC + delta decision + the repository group commit inside
// that window; a two-phase (async) epoch only clones component state into
// pinned staging buffers and resumes the partitions while a background thread
// does the rest. This bench measures the wall-clock frozen window per epoch
// for both modes over the same generated fat tree, at 100 and 1000 hosts,
// with a durable repository attached.
//
//   frozen(sync)  = capture + fold + spill         (all inside the barrier)
//   frozen(async) = freeze phase + commit_wait     (barrier time only)
//
// Both are EpochRecord::frozen_wall_ms + commit_wait_ms.
//
// The bench FAILS (non-zero exit) unless the async run's captures digest and
// event digest are bit-identical to the synchronous run's at every scale —
// the two-phase path must be invisible except in timing — and every epoch
// spills. The frozen-window reduction is a wall-clock ratio, so it only
// warns when it falls below 3x at the largest scale.
//
//   $ ./build/bench/tab_frozen_window [--sim-ms=T] [--epoch-ms=E]
//        [--partitions=P] [--workers=W] [--ledger[=FILE]]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/checkpoint/epoch_coordinator.h"
#include "src/net/topology.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/scheduler.h"
#include "src/sim/staging.h"
#include "src/sim/time.h"

using namespace tcsim;

namespace {

struct ModeResult {
  size_t epochs = 0;
  uint64_t captures_digest = 0;
  uint64_t event_digest = 0;
  uint64_t epoch_image_bytes = 0;  // mean per epoch (all partitions)
  double frozen_ms = 0;            // mean barrier occupancy per epoch
  double background_ms = 0;        // mean overlapped work per epoch (async)
  double commit_wait_ms = 0;       // mean stall on the previous commit (async)
  bool spill_ok = true;
  bool open_ok = true;
};

ModeResult RunMode(GeneratedTopologyParams params, uint32_t partitions,
                   uint32_t workers, bool async, SimTime horizon,
                   SimTime epoch_period) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tcsim_bench_frozen_" + std::to_string(params.hosts) +
       (async ? "_async" : "_sync"));
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::string err;
  ModeResult r;
  std::unique_ptr<CheckpointRepo> repo =
      CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  if (repo == nullptr) {
    r.open_ok = false;
    r.spill_ok = false;
    return r;
  }

  auto topo = GeneratedTopology::Build(params, partitions, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), epoch_period,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  if (async) {
    epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
      topo->SnapshotPartition(p->id(), out);
    });
  }
  epochs.AttachRepository(repo.get());
  RestartLedger();
  epochs.RunUntil(horizon);

  r.epochs = epochs.history().size();
  for (const auto& rec : epochs.history()) {
    r.epoch_image_bytes += rec.image_bytes;
    // Barrier occupancy: everything the workload waits on while quiesced
    // (commit_wait_ms is zero on synchronous epochs).
    r.frozen_ms += rec.frozen_wall_ms + rec.commit_wait_ms;
    r.background_ms += rec.background_wall_ms;
    r.commit_wait_ms += rec.commit_wait_ms;
    r.spill_ok = r.spill_ok && rec.spill_ok;
  }
  if (r.epochs > 0) {
    r.epoch_image_bytes /= r.epochs;
    r.frozen_ms /= static_cast<double>(r.epochs);
    r.background_ms /= static_cast<double>(r.epochs);
    r.commit_wait_ms /= static_cast<double>(r.epochs);
  }
  r.captures_digest = epochs.CapturesDigest();
  r.event_digest = topo->EventDigest();

  repo.reset();
  fs::remove_all(dir, ec);
  return r;
}

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_frozen_window");

  const uint32_t partitions =
      static_cast<uint32_t>(FlagU64(argc, argv, "--partitions", 4));
  const uint32_t workers =
      static_cast<uint32_t>(FlagU64(argc, argv, "--workers", 3));
  const SimTime horizon =
      static_cast<SimTime>(FlagU64(argc, argv, "--sim-ms", 200)) * kMillisecond;
  const SimTime epoch_period =
      static_cast<SimTime>(FlagU64(argc, argv, "--epoch-ms", 50)) * kMillisecond;

  PrintHeader("tab_frozen_window",
              "frozen window per checkpoint epoch: synchronous vs two-phase "
              "capture, repository attached");

  const uint32_t host_sweep[] = {100, 1000};
  bool digests_ok = true;
  bool spills_ok = true;
  double final_reduction = 0;
  for (size_t i = 0; i < 2; ++i) {
    GeneratedTopologyParams params;
    params.hosts = host_sweep[i];
    const ModeResult sync =
        RunMode(params, partitions, workers, /*async=*/false, horizon,
                epoch_period);
    const ModeResult async =
        RunMode(params, partitions, workers, /*async=*/true, horizon,
                epoch_period);

    const bool digest_ok = sync.captures_digest == async.captures_digest &&
                           sync.event_digest == async.event_digest &&
                           sync.epochs == async.epochs &&
                           sync.epoch_image_bytes == async.epoch_image_bytes;
    const bool spill_ok = sync.open_ok && async.open_ok && sync.spill_ok &&
                          async.spill_ok;
    digests_ok = digests_ok && digest_ok;
    spills_ok = spills_ok && spill_ok;
    const double reduction =
        async.frozen_ms > 0 ? sync.frozen_ms / async.frozen_ms : 0;
    final_reduction = reduction;  // last sweep entry is the largest scale

    char section[64];
    std::snprintf(section, sizeof section, "%u hosts, %u partitions",
                  host_sweep[i], partitions);
    PrintSection(section);
    PrintValue("checkpoint epochs", static_cast<double>(sync.epochs), "");
    PrintValue("epoch image bytes",
               static_cast<double>(sync.epoch_image_bytes), "B");
    PrintValue("frozen window, sync (capture+spill)", sync.frozen_ms, "ms");
    PrintValue("frozen window, async (freeze+wait)", async.frozen_ms, "ms");
    PrintValue("async background (overlapped)", async.background_ms, "ms");
    PrintValue("async commit wait", async.commit_wait_ms, "ms");
    PrintValue("frozen-window reduction", reduction, "x");
    if (digest_ok) {
      PrintNote("async captures digest bit-identical to synchronous");
    } else {
      char why[256];
      std::snprintf(why, sizeof why,
                    "DIGEST MISMATCH: async diverged from synchronous "
                    "(captures %016llx vs %016llx, events %016llx vs %016llx, "
                    "%zu vs %zu epochs, %llu vs %llu B per epoch)",
                    static_cast<unsigned long long>(async.captures_digest),
                    static_cast<unsigned long long>(sync.captures_digest),
                    static_cast<unsigned long long>(async.event_digest),
                    static_cast<unsigned long long>(sync.event_digest),
                    async.epochs, sync.epochs,
                    static_cast<unsigned long long>(async.epoch_image_bytes),
                    static_cast<unsigned long long>(sync.epoch_image_bytes));
      PrintNote(why);
    }
    if (!spill_ok) {
      PrintNote("EPOCH SPILL FAILED");
    }
  }

  // The sync window holds full serialization, hashing and the group commit
  // while async stages raw clones, so 3x should hold with wide margin; being
  // a wall-clock ratio, a shortfall warns and never fails the run.
  if (final_reduction < 3.0) {
    std::printf("\nWARN: frozen-window reduction %.3fx below 3x at %u hosts\n",
                final_reduction, host_sweep[1]);
  }
  const bool ok = digests_ok && spills_ok;
  if (!ok) {
    std::printf("\nFAIL: %s\n",
                !digests_ok ? "two-phase capture diverged from synchronous"
                            : "repository spill failed");
  }
  return bm.Finish(ok ? 0 : 1);
}
