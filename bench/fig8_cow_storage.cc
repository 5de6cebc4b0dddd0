// Figure 8: copy-on-write storage versus native disk speed (Bonnie++).
//
// Paper setup: Bonnie++ on a 512 MB file (2x guest memory) against three
// configurations — a raw disk partition (Base), the original LVM snapshot
// branching storage (Branch-Orig), and the paper's modified branching
// storage (Branch) — across block/character reads, rewrites and writes.
// Paper results: on a freshly created disk, sequential block writes to
// Branch pay ~17% over Base (scattered metadata-region initialisation that
// disappears as the disk ages, converging to within 2%); Branch-Orig block
// writes are 74% slower than Branch because of read-before-write.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/diskbench.h"
#include "src/guest/node.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

struct Config {
  const char* name;
  NodeConfig::StorageMode storage;
  BranchStore::WriteMode write_mode;
};

BonnieApp::Results RunBonnie(const Config& config, bool aged, MultiRunAudit* audit) {
  Simulator sim;
  NodeConfig cfg;
  cfg.name = "pc1";
  cfg.id = 1;
  cfg.storage_mode = config.storage;
  cfg.write_mode = config.write_mode;
  ExperimentNode node(&sim, Rng(5), cfg);

  std::unique_ptr<InvariantRegistry> reg;
  if (audit->enabled) {
    reg = std::make_unique<InvariantRegistry>(&sim);
    node.RegisterInvariants(reg.get());
    reg->StartPeriodic(kSecond);
  }

  BonnieApp::Params params;
  params.file_bytes = 512ull * 1024 * 1024;
  BonnieApp::Results results;

  auto run_once = [&](std::function<void()> done) {
    auto app = std::make_shared<BonnieApp>(&node, params);
    app->Run([&results, app, done](const BonnieApp::Results& r) {
      results = r;
      if (done) {
        done();
      }
    });
  };

  bool finished = false;
  if (aged) {
    // Age the store with a first full pass, then measure the second pass:
    // metadata regions are initialised and first-writes have happened.
    run_once([&] { run_once([&] { finished = true; }); });
  } else {
    run_once([&] { finished = true; });
  }
  while (!finished && sim.Now() < 7200 * kSecond) {
    sim.RunUntil(sim.Now() + 10 * kSecond);
  }
  audit->Collect(sim, reg.get());
  return results;
}

void PrintResults(const char* label, const BonnieApp::Results& r) {
  std::printf("%-14s block-reads %7.2f  char-reads %7.2f  rewrites %7.2f  "
              "block-writes %7.2f  char-writes %7.2f  (MB/s)\n",
              label, r.block_read_mbs, r.char_read_mbs, r.rewrite_mbs, r.block_write_mbs,
              r.char_write_mbs);
}

int Run(bool audit_enabled) {
  PrintHeader("Figure 8", "copy-on-write storage vs native disk (Bonnie++)");
  MultiRunAudit audit(audit_enabled);

  const Config base{"Base", NodeConfig::StorageMode::kRaw, BranchStore::WriteMode::kRedoLog};
  const Config branch{"Branch", NodeConfig::StorageMode::kBranch,
                      BranchStore::WriteMode::kRedoLog};
  const Config branch_orig{"Branch-Orig", NodeConfig::StorageMode::kBranch,
                           BranchStore::WriteMode::kReadBeforeWrite};

  PrintSection("fresh disk");
  const BonnieApp::Results r_base = RunBonnie(base, false, &audit);
  const BonnieApp::Results r_branch = RunBonnie(branch, false, &audit);
  const BonnieApp::Results r_orig = RunBonnie(branch_orig, false, &audit);
  PrintResults("Base", r_base);
  PrintResults("Branch", r_branch);
  PrintResults("Branch-Orig", r_orig);

  PrintSection("headline comparisons (fresh disk)");
  PrintRow("Branch block-write overhead vs Base", 17.0,
           (1.0 - r_branch.block_write_mbs / r_base.block_write_mbs) * 100.0, "%");
  PrintRow("Branch-Orig block-write slowdown vs Branch", 74.0,
           (1.0 - r_orig.block_write_mbs / r_branch.block_write_mbs) * 100.0, "%");

  PrintSection("aged disk (second pass: metadata filled, first-writes done)");
  const BonnieApp::Results r_base_aged = RunBonnie(base, true, &audit);
  const BonnieApp::Results r_branch_aged = RunBonnie(branch, true, &audit);
  const BonnieApp::Results r_orig_aged = RunBonnie(branch_orig, true, &audit);
  PrintResults("Base", r_base_aged);
  PrintResults("Branch", r_branch_aged);
  PrintResults("Branch-Orig", r_orig_aged);
  PrintRow("Branch block-write overhead vs Base (aged)", 2.0,
           (1.0 - r_branch_aged.block_write_mbs / r_base_aged.block_write_mbs) * 100.0, "%");
  PrintRow("Branch-Orig slowdown vs Branch (aged)", 0.0,
           (1.0 - r_orig_aged.block_write_mbs / r_branch_aged.block_write_mbs) * 100.0, "%");
  PrintNote("paper: as the disk ages, metadata and read-before-write overheads vanish.");

  return audit.Finish();
}

}  // namespace
}  // namespace tcsim

int main(int argc, char** argv) {
  tcsim::BenchMain bm(argc, argv, "fig8_cow_storage");
  return bm.Finish(tcsim::Run(tcsim::HasFlag(argc, argv, "--audit")));
}
