// Section 7.2 (text results): stateful swapping performance.
//
// Paper setup: a single-node experiment swapped in and out four times
// consecutively; each swapped-in session generates 275 MB of disk data;
// node state travels over the 100 Mbps control network to the file server.
// Paper results:
//   - initial swap-in: 8 s with the golden image cached, +60 s without;
//   - subsequent swap-ins grow past 150 s by the fourth iteration without
//     the lazy optimisation, but stay flat at ~35 s with it;
//   - swap-outs stay constant at ~60 s (same new data per session);
//   - a disk-intensive workload during eager swap-out adds ~20% (pre-copied
//     blocks get overwritten and re-sent, and the pre-copy is rate-limited).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/diskbench.h"
#include "src/emulab/experiment.h"
#include "src/emulab/experiment_spec.h"
#include "src/emulab/testbed.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

constexpr uint64_t kSessionDataBytes = 275ull * 1024 * 1024;

struct CycleTimes {
  std::vector<double> swap_in_s;
  std::vector<double> swap_out_s;
  bool repo_verified = true;
};

// Runs four swap cycles; returns per-cycle durations. When `repo` is
// non-null, node state is persisted through the durable checkpoint
// repository on every swap-out and verified against it on every swap-in.
CycleTimes RunCycles(bool lazy, bool disk_intensive_during_swapout,
                     MultiRunAudit* audit, CheckpointRepo* repo = nullptr) {
  Simulator sim;
  Testbed testbed(&sim, 7);
  if (repo != nullptr) {
    testbed.AttachRepository(repo);
  }
  ExperimentSpec spec("swap");
  spec.AddNode("pc1");
  Experiment* experiment = testbed.CreateExperiment(spec);
  experiment->SwapIn(true, nullptr);
  sim.RunUntil(sim.Now() + 30 * kSecond);
  ExperimentNode* node = experiment->node("pc1");

  std::unique_ptr<InvariantRegistry> reg;
  if (audit->enabled) {
    reg = std::make_unique<InvariantRegistry>(&sim);
    experiment->RegisterInvariants(reg.get());
    reg->StartPeriodic(kSecond);
  }

  CycleTimes times;
  uint64_t next_area = 100'000;
  for (int cycle = 0; cycle < 4; ++cycle) {
    // The session's workload: write 275 MB of new data.
    FileCopyApp::Params wp;
    wp.total_bytes = kSessionDataBytes;
    wp.start_block = next_area;
    next_area += kSessionDataBytes / kBlockSize + 1024;
    auto writer = std::make_shared<FileCopyApp>(node, wp);
    bool wrote = false;
    writer->Start([&] { wrote = true; });
    const SimTime write_deadline = sim.Now() + 3600 * kSecond;
    while (!wrote && sim.Now() < write_deadline) {
      sim.RunUntil(sim.Now() + kSecond);
    }

    // Optionally keep the disk busy during the swap-out itself. The load
    // continuously rewrites the session's own data, so pre-copied blocks are
    // dirtied again and must be sent twice (the paper's stated mechanism).
    bool out = false;
    auto stop_rewriting = std::make_shared<bool>(false);
    if (disk_intensive_during_swapout) {
      // Self-owning rewrite loop (heap state: it may outlive this scope by a
      // callback or two after the stop flag is set).
      auto loop = std::make_shared<std::function<void()>>();
      *loop = [node, wp, stop_rewriting, loop] {
        if (*stop_rewriting) {
          return;
        }
        FileCopyApp::Params bp;
        bp.total_bytes = 64ull * 1024 * 1024;
        bp.start_block = wp.start_block;  // overwrite, don't grow the delta
        auto app = std::make_shared<FileCopyApp>(node, bp);
        app->Start([app, loop] { (*loop)(); });
      };
      (*loop)();
    }

    SwapRecord out_rec;
    experiment->StatefulSwapOut(/*eager_precopy=*/true, [&](const SwapRecord& rec) {
      out_rec = rec;
      out = true;
    });
    const SimTime out_deadline = sim.Now() + 3600 * kSecond;
    while (!out && sim.Now() < out_deadline) {
      sim.RunUntil(sim.Now() + kSecond);
    }
    *stop_rewriting = true;
    times.swap_out_s.push_back(ToSeconds(out_rec.duration()));
    times.repo_verified = times.repo_verified && out_rec.repo_verified;

    bool in = false;
    SwapRecord in_rec;
    experiment->StatefulSwapIn(lazy, [&](const SwapRecord& rec) {
      in_rec = rec;
      in = true;
    });
    const SimTime in_deadline = sim.Now() + 3600 * kSecond;
    while (!in && sim.Now() < in_deadline) {
      sim.RunUntil(sim.Now() + kSecond);
    }
    times.swap_in_s.push_back(ToSeconds(in_rec.duration()));
    times.repo_verified = times.repo_verified && in_rec.repo_verified;
    // Sessions are long enough that the lazy background copy-in finishes
    // before the next swap-out (as in the paper's runs).
    const SimTime drain_deadline = sim.Now() + 3600 * kSecond;
    while (node->mirror().pending_blocks() > 0 && sim.Now() < drain_deadline) {
      sim.RunUntil(sim.Now() + kSecond);
    }
    sim.RunUntil(sim.Now() + 5 * kSecond);
  }
  audit->Collect(sim, reg.get());
  return times;
}

// Repeats the lazy swap cycles with a durable checkpoint repository attached
// to the testbed: every swap-out persists node state through the repository
// and every swap-in verifies the persisted image against the in-memory path.
// Reports the repository's I/O and dedup accounting.
int RunRepoBacked(MultiRunAudit* audit) {
  namespace fs = std::filesystem;
  PrintSection("repository-backed stateful swap (lazy)");
  const fs::path dir = fs::temp_directory_path() / "tcsim_bench_swap_repo";
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::string err;
  std::unique_ptr<CheckpointRepo> repo =
      CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  if (repo == nullptr) {
    std::fprintf(stderr, "tab_stateful_swap: cannot open repository: %s\n",
                 err.c_str());
    return 1;
  }

  const CycleTimes cycles =
      RunCycles(/*lazy=*/true, /*disk_intensive_during_swapout=*/false, audit,
                repo.get());
  constexpr double kMiB = 1024.0 * 1024.0;
  const double written_mb = static_cast<double>(repo->bytes_written()) / kMiB;
  const double read_mb = static_cast<double>(repo->bytes_read()) / kMiB;
  const double dedup =
      repo->physical_put_bytes() > 0
          ? static_cast<double>(repo->logical_put_bytes()) /
                static_cast<double>(repo->physical_put_bytes())
          : 1.0;

  PrintValue("4th-cycle lazy swap-in (repo-backed)", cycles.swap_in_s.back(),
             "s");
  PrintValue("repo bytes written", written_mb, "MB");
  PrintValue("repo bytes read", read_mb, "MB");
  PrintValue("repo dedup ratio (logical/physical)", dedup, "x");
  PrintValue("repo live images", static_cast<double>(repo->live_image_count()),
             "images");
  PrintNote(cycles.repo_verified
                ? "every swap-in verified byte-identical against the repository"
                : "REPO VERIFICATION FAILED: persisted image diverged");

  const int rc = cycles.repo_verified ? 0 : 1;
  repo.reset();
  fs::remove_all(dir, ec);
  return rc;
}

int Run(bool audit_enabled, bool repo_enabled) {
  PrintHeader("Section 7.2", "stateful swapping performance (4 swap cycles)");
  MultiRunAudit audit(audit_enabled);

  PrintSection("initial swap-in");
  {
    Simulator sim;
    Testbed testbed(&sim, 7);
    ExperimentSpec spec("swap");
    spec.AddNode("pc1");
    Experiment* cached = testbed.CreateExperiment(spec);
    cached->SwapIn(true, nullptr);
    Experiment* uncached = testbed.CreateExperiment(spec);
    uncached->SwapIn(false, nullptr);
    sim.RunUntil(sim.Now() + 300 * kSecond);
    PrintRow("golden image cached", 8.0, ToSeconds(cached->swap_history().front().duration()),
             "s");
    PrintRow("golden image not cached", 68.0,
             ToSeconds(uncached->swap_history().front().duration()), "s");
  }

  const CycleTimes eager = RunCycles(/*lazy=*/false, false, &audit);
  const CycleTimes lazy = RunCycles(/*lazy=*/true, false, &audit);

  PrintSection("swap-in times per cycle (without lazy optimisation)");
  for (size_t i = 0; i < eager.swap_in_s.size(); ++i) {
    PrintValue("cycle " + std::to_string(i + 1) + " swap-in", eager.swap_in_s[i], "s");
  }
  PrintNote("paper: grows past 150 s by the 4th cycle (aggregated delta grows)");

  PrintSection("swap-in times per cycle (with lazy optimisation)");
  for (size_t i = 0; i < lazy.swap_in_s.size(); ++i) {
    PrintValue("cycle " + std::to_string(i + 1) + " swap-in", lazy.swap_in_s[i], "s");
  }
  PrintRow("4th-cycle lazy swap-in", 35.0, lazy.swap_in_s.back(), "s");

  PrintSection("swap-out times per cycle (eager pre-copy)");
  for (size_t i = 0; i < lazy.swap_out_s.size(); ++i) {
    PrintValue("cycle " + std::to_string(i + 1) + " swap-out", lazy.swap_out_s[i], "s");
  }
  PrintRow("steady swap-out", 60.0, lazy.swap_out_s.back(), "s");

  PrintSection("disk-intensive workload during eager swap-out");
  const CycleTimes busy =
      RunCycles(/*lazy=*/true, /*disk_intensive_during_swapout=*/true, &audit);
  const double slowdown =
      (busy.swap_out_s.back() / lazy.swap_out_s.back() - 1.0) * 100.0;
  PrintRow("swap-out slowdown under disk load", 20.0, slowdown, "%");
  PrintNote("pre-copied blocks overwritten during the copy are sent twice, and the");
  PrintNote("pre-copy rate limiter trades swap time for workload fidelity.");

  int rc = 0;
  if (repo_enabled) {
    rc |= RunRepoBacked(&audit);
  }
  return rc | audit.Finish();
}

}  // namespace
}  // namespace tcsim

int main(int argc, char** argv) {
  tcsim::BenchMain bm(argc, argv, "tab_stateful_swap");
  return bm.Finish(tcsim::Run(tcsim::HasFlag(argc, argv, "--audit"),
                              tcsim::HasFlag(argc, argv, "--repo")));
}
