// Tests for the epoch critical-path ledger (src/obs/epoch_ledger) and the
// attribution engine behind tools/tcsim_analyze (tools/analyze).
//
// The load-bearing assertions mirror the obs layer's charter: the ledger is
// perturbation-free (a run with the ledger enabled is digest-identical to the
// same run without — sync capture, async capture, and a faulty HA run), its
// merge and JSONL export are deterministic in *structure* across identical
// runs (only the measured times differ), every epoch's serial phases are
// the ones its capture mode runs, inside the epoch and free of overlap, and
// the analyzer names the straggler partition the freeze barrier actually
// waited on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/checkpoint/epoch_coordinator.h"
#include "src/ha/fault_injector.h"
#include "src/ha/micro_checkpointer.h"
#include "src/net/topology.h"
#include "src/obs/epoch_ledger.h"
#include "src/sim/time.h"
#include "tools/analyze.h"

namespace tcsim {
namespace {

using obs::EpochLedger;
using obs::LedgerRecord;
using tools::AnalyzerRecord;
using tools::EpochAnalysis;
using tools::LedgerAnalysis;

// The ledger is a process-wide singleton shared with the instrumented
// layers; every test starts from (and leaves behind) a disabled, empty one.
class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override { EpochLedger::Global().Clear(); }
  void TearDown() override {
    EpochLedger::UnbindThread();
    EpochLedger::Global().Clear();
  }
};

LedgerRecord MakeRecord(uint64_t epoch, int32_t partition, const char* phase,
                        double begin, double end, const char* cause) {
  LedgerRecord rec;
  rec.epoch = epoch;
  rec.partition = partition;
  rec.phase = phase;
  rec.begin_ms = begin;
  rec.end_ms = end;
  rec.cause = cause;
  return rec;
}

// --- Stamp / merge mechanics --------------------------------------------------

TEST_F(LedgerTest, MergeOrdersByEpochPhaseRankPartition) {
  EpochLedger& ledger = EpochLedger::Global();
  ledger.Enable();
  // Stamp out of order across shards: epoch 2 before epoch 1, partition
  // detail before the serial chain, commit shard before worker shards.
  ledger.Stamp(EpochLedger::kCommitShard,
               MakeRecord(2, -1, "commit", 5.0, 9.0, "background"));
  ledger.Stamp(3, MakeRecord(1, 3, "freeze.partition", 1.0, 2.0, "snapshot"));
  ledger.Stamp(EpochLedger::kCoordinatorShard,
               MakeRecord(1, -1, "window", 0.0, 1.0, "barrier"));
  ledger.Stamp(0, MakeRecord(1, 0, "freeze.partition", 1.0, 1.5, "snapshot"));
  ledger.Stamp(EpochLedger::kCoordinatorShard,
               MakeRecord(2, -1, "window", 3.0, 4.0, "barrier"));
  ledger.Disable();

  const std::vector<LedgerRecord> merged = ledger.Merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_STREQ(merged[0].phase, "window");
  EXPECT_EQ(merged[0].epoch, 1u);
  EXPECT_STREQ(merged[1].phase, "freeze.partition");
  EXPECT_EQ(merged[1].partition, 0);
  EXPECT_STREQ(merged[2].phase, "freeze.partition");
  EXPECT_EQ(merged[2].partition, 3);
  EXPECT_EQ(merged[3].epoch, 2u);
  EXPECT_STREQ(merged[3].phase, "window");
  EXPECT_STREQ(merged[4].phase, "commit");

  // The serial chain ranks before partition detail, which ranks before the
  // background commit's internals; unknown phases rank last.
  EXPECT_LT(EpochLedger::PhaseRank("window"), EpochLedger::PhaseRank("freeze"));
  EXPECT_LT(EpochLedger::PhaseRank("capture"),
            EpochLedger::PhaseRank("freeze.partition"));
  EXPECT_LT(EpochLedger::PhaseRank("commit_launch"),
            EpochLedger::PhaseRank("commit"));
  EXPECT_LT(EpochLedger::PhaseRank("repo.append"),
            EpochLedger::PhaseRank("no.such.phase"));
}

TEST_F(LedgerTest, DisabledAndUnboundStampsNeverLand) {
  EpochLedger& ledger = EpochLedger::Global();
  // Disabled: both entry points are no-ops and nothing counts as dropped.
  ledger.Stamp(0, MakeRecord(1, 0, "window", 0.0, 1.0, "barrier"));
  ledger.StampHere(0, "window", 0.0, 1.0, "barrier");
  EXPECT_EQ(ledger.recorded(), 0u);
  EXPECT_EQ(ledger.dropped(), 0u);

  ledger.Enable();
  // StampHere on an unbound thread has no shard it may write without racing
  // the owner: the record is dropped, and the drop is counted.
  EpochLedger::UnbindThread();
  ledger.StampHere(0, "window", 0.0, 1.0, "barrier");
  EXPECT_EQ(ledger.recorded(), 0u);
  EXPECT_EQ(ledger.dropped(), 1u);
  EXPECT_EQ(EpochLedger::BoundEpoch(), 0u);

  // An out-of-range shard drops rather than writing past the array.
  ledger.Stamp(EpochLedger::kShards,
               MakeRecord(1, 0, "window", 0.0, 1.0, "barrier"));
  EXPECT_EQ(ledger.dropped(), 2u);

  // Bound, the same stamp lands in the bound shard with the bound epoch.
  EpochLedger::BindThread(EpochLedger::kCoordinatorShard, 7);
  EXPECT_EQ(EpochLedger::BoundEpoch(), 7u);
  ledger.StampHere(-1, "output_release", 1.0, 2.0, "epoch_commit",
                   {{"released", 3.0}});
  ledger.Disable();
  const std::vector<LedgerRecord> merged = ledger.Merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].epoch, 7u);
  EXPECT_STREQ(merged[0].phase, "output_release");
  ASSERT_EQ(merged[0].nargs, 1u);
  EXPECT_DOUBLE_EQ(merged[0].args[0].value, 3.0);
}

TEST_F(LedgerTest, JsonlExportRoundTripsThroughAnalyzerParser) {
  EpochLedger& ledger = EpochLedger::Global();
  ledger.Enable();
  ledger.Stamp(EpochLedger::kCoordinatorShard,
               MakeRecord(1, -1, "window", 0.25, 1.75, "barrier"));
  LedgerRecord rel = MakeRecord(1, -1, "output_release", 1.75, 1.8,
                                "epoch_commit");
  rel.args[0] = {"released", 12.0};
  rel.args[1] = {"hold_max_us", 431.5};
  rel.nargs = 2;
  ledger.Stamp(EpochLedger::kCoordinatorShard, rel);
  ledger.Disable();

  const std::string jsonl = ledger.ExportJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<AnalyzerRecord> parsed;
  while (std::getline(lines, line)) {
    AnalyzerRecord rec;
    std::string err;
    ASSERT_TRUE(tools::ParseJsonlLine(line, &rec, &err)) << err << ": " << line;
    parsed.push_back(rec);
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].phase, "window");
  EXPECT_EQ(parsed[0].cause, "barrier");
  EXPECT_DOUBLE_EQ(parsed[0].begin_ms, 0.25);
  EXPECT_DOUBLE_EQ(parsed[0].end_ms, 1.75);
  EXPECT_EQ(parsed[1].phase, "output_release");
  EXPECT_DOUBLE_EQ(parsed[1].ArgOr("released", -1.0), 12.0);
  EXPECT_DOUBLE_EQ(parsed[1].ArgOr("hold_max_us", -1.0), 431.5);
  EXPECT_DOUBLE_EQ(parsed[1].ArgOr("absent", -1.0), -1.0);

  // A malformed line is rejected with a reason; a blank line is skipped
  // silently (false with an empty reason) — the file format tolerates
  // trailing newlines, not damaged records.
  AnalyzerRecord rec;
  std::string err;
  EXPECT_FALSE(tools::ParseJsonlLine("{\"partition\": 1}", &rec, &err));
  EXPECT_FALSE(err.empty());
  err = "sentinel";
  EXPECT_FALSE(tools::ParseJsonlLine("", &rec, &err));
  EXPECT_TRUE(err.empty());

  // Numbers the record's integer fields cannot hold, and non-finite times,
  // are rejected with an error naming the key; the range ends are accepted.
  struct NumberCase {
    std::string epoch, partition, begin_ms, end_ms;
    std::string bad_key;  // empty: the line parses
  };
  const std::vector<NumberCase> cases = {
      {"-1", "0", "0.5", "1.5", "epoch"},
      {"1e30", "0", "0.5", "1.5", "epoch"},
      {"nan", "0", "0.5", "1.5", "epoch"},
      {"2.5", "0", "0.5", "1.5", "epoch"},
      {"3", "1e12", "0.5", "1.5", "partition"},
      {"3", "-7", "0.5", "1.5", "partition"},
      {"3", "0", "inf", "1.5", "begin_ms"},
      {"3", "0", "0.5", "-inf", "end_ms"},
      {"9007199254740992", "-1", "0.5", "1.5", ""},
      {"0", "2147483647", "0.5", "1.5", ""},
  };
  for (const NumberCase& c : cases) {
    const std::string line = "{\"epoch\": " + c.epoch + ", \"partition\": " +
                             c.partition + ", \"phase\": \"window\", " +
                             "\"begin_ms\": " + c.begin_ms + ", \"end_ms\": " +
                             c.end_ms + ", \"cause\": \"barrier\"}";
    SCOPED_TRACE(line);
    AnalyzerRecord parsed_rec;
    const bool ok = tools::ParseJsonlLine(line, &parsed_rec, &err);
    if (c.bad_key.empty()) {
      ASSERT_TRUE(ok) << err;
      EXPECT_EQ(parsed_rec.epoch, std::stoull(c.epoch));
      EXPECT_EQ(parsed_rec.partition, std::stoi(c.partition));
    } else {
      EXPECT_FALSE(ok);
      EXPECT_EQ(err.rfind(c.bad_key, 0), 0u) << err;
    }
  }
}

// --- The instrumented coordinator --------------------------------------------

// The checkpointed fat tree the parallel suite uses as its oracle workload:
// 4 partitions, 10 ms epochs, 50 ms horizon -> 5 epochs.
struct LedgerRunResult {
  uint64_t captures_digest = 0;
  uint64_t event_digest = 0;
  std::vector<PartitionEpochCoordinator::EpochRecord> history;
  std::vector<AnalyzerRecord> records;
};

LedgerRunResult RunCheckpointedFatTree(bool ledger_on, bool two_phase,
                                       uint32_t workers) {
  if (ledger_on) {
    EpochLedger::Global().Enable();
  } else {
    EpochLedger::Global().Clear();
  }
  GeneratedTopologyParams params;
  auto topo = GeneratedTopology::Build(params, 4, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), 10 * kMillisecond,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  if (two_phase) {
    epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
      topo->SnapshotPartition(p->id(), out);
    });
  }
  epochs.RunUntil(50 * kMillisecond);
  LedgerRunResult r;
  r.captures_digest = epochs.CapturesDigest();
  r.event_digest = topo->EventDigest();
  r.history = epochs.history();
  if (ledger_on) {
    r.records = tools::FromLedger(EpochLedger::Global().Merged());
    EpochLedger::Global().Clear();
  }
  return r;
}

TEST_F(LedgerTest, LedgerIsPerturbationFreeOnSyncAndAsyncCapture) {
  for (const bool two_phase : {false, true}) {
    SCOPED_TRACE(two_phase ? "async" : "sync");
    const LedgerRunResult off =
        RunCheckpointedFatTree(false, two_phase, /*workers=*/2);
    const LedgerRunResult on =
        RunCheckpointedFatTree(true, two_phase, /*workers=*/2);
    EXPECT_FALSE(on.records.empty());
    EXPECT_EQ(off.captures_digest, on.captures_digest);
    EXPECT_EQ(off.event_digest, on.event_digest);
  }
}

TEST_F(LedgerTest, CoordinatorAttributionCoversEpochWallTime) {
  // Structural checks only: in every epoch the coordinator's serial records
  // are exactly the phases its mode runs, in order, each inside the epoch's
  // span and none overlapping another. How much of the span they fill is a
  // wall-clock ratio, so coverage is printed, never asserted.
  const std::set<std::string> kSerial = {"window",  "commit_wait",
                                         "freeze",  "capture",
                                         "spill",   "commit_launch"};
  for (const bool two_phase : {false, true}) {
    const char* mode = two_phase ? "async" : "sync";
    SCOPED_TRACE(mode);
    const LedgerRunResult run =
        RunCheckpointedFatTree(true, two_phase, /*workers=*/2);
    const LedgerAnalysis analysis = tools::Analyze(run.records);
    EXPECT_TRUE(analysis.ok()) << analysis.errors.front();
    ASSERT_EQ(analysis.epochs.size(), 5u);
    std::printf("%s capture: min epoch coverage %.3f\n", mode,
                analysis.min_coverage);

    std::vector<const AnalyzerRecord*> spans;
    std::vector<const AnalyzerRecord*> serial;
    for (const AnalyzerRecord& rec : run.records) {
      if (rec.phase == "epoch") {
        spans.push_back(&rec);
      } else if (rec.partition < 0 && kSerial.count(rec.phase) != 0) {
        serial.push_back(&rec);
      }
    }
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i]->begin_ms, spans[i - 1]->end_ms)
          << "epoch " << spans[i]->epoch << " does not open where "
          << spans[i - 1]->epoch << " closed";
    }
    std::sort(serial.begin(), serial.end(),
              [](const AnalyzerRecord* a, const AnalyzerRecord* b) {
                return std::tie(a->begin_ms, a->end_ms) <
                       std::tie(b->begin_ms, b->end_ms);
              });
    std::vector<std::vector<std::string>> epoch_phases(spans.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      const AnalyzerRecord& rec = *serial[i];
      if (i > 0) {
        EXPECT_LE(serial[i - 1]->end_ms, rec.begin_ms)
            << serial[i - 1]->phase << " overlaps " << rec.phase;
      }
      const auto span = std::find_if(
          spans.begin(), spans.end(),
          [&](const AnalyzerRecord* s) { return rec.begin_ms < s->end_ms; });
      if (span == spans.end()) {
        continue;  // the trailing horizon run after the last epoch closed
      }
      EXPECT_GE(rec.begin_ms, (*span)->begin_ms)
          << rec.phase << " begins before epoch " << (*span)->epoch;
      EXPECT_LE(rec.end_ms, (*span)->end_ms)
          << rec.phase << " ends after epoch " << (*span)->epoch;
      epoch_phases[span - spans.begin()].push_back(rec.phase);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      // An async epoch opens with the previous epoch's commit launch, which
      // runs after that epoch closed; the first epoch has none.
      std::vector<std::string> expected =
          two_phase ? std::vector<std::string>{"commit_launch", "window",
                                                   "commit_wait", "freeze"}
                        : std::vector<std::string>{"window", "capture"};
      if (two_phase && i == 0) {
        expected.erase(expected.begin());
      }
      EXPECT_EQ(epoch_phases[i], expected) << "epoch " << spans[i]->epoch;
    }

    // The epoch records read the stamps' clock readings. A two-phase
    // epoch's frozen and commit-wait times are its freeze and commit_wait
    // stamps' durations; a synchronous epoch's frozen time runs from its
    // capture stamp's begin to its last barrier stamp's end, and with no
    // repository attached that stamp is the capture itself.
    ASSERT_EQ(run.history.size(), spans.size());
    size_t matched = 0;
    for (const AnalyzerRecord* rec : serial) {
      if (rec->epoch == 0 || rec->epoch > run.history.size()) {
        continue;  // the horizon's final join belongs to no epoch record
      }
      const PartitionEpochCoordinator::EpochRecord& er =
          run.history[rec->epoch - 1];
      const double ms = rec->end_ms - rec->begin_ms;
      if (rec->phase == (two_phase ? "freeze" : "capture")) {
        EXPECT_EQ(er.frozen_wall_ms, ms) << "epoch " << rec->epoch;
        ++matched;
      } else if (rec->phase == "commit_wait") {
        EXPECT_EQ(er.commit_wait_ms, ms) << "epoch " << rec->epoch;
        ++matched;
      }
    }
    EXPECT_EQ(matched, (two_phase ? 2 : 1) * spans.size());

    std::set<std::string> phases;
    for (const AnalyzerRecord& rec : run.records) {
      phases.insert(rec.phase);
    }
    if (two_phase) {
      // Two-phase path: per-partition freeze detail, the background commit
      // and its serialization.
      EXPECT_TRUE(phases.count("freeze.partition"));
      EXPECT_TRUE(phases.count("commit"));
      EXPECT_TRUE(phases.count("serialize.partition"));
    } else {
      EXPECT_TRUE(phases.count("capture.partition"));
    }
    for (const EpochAnalysis& epoch : analysis.epochs) {
      EXPECT_EQ(epoch.mode, two_phase ? "async" : "sync");
      EXPECT_GE(epoch.straggler_partition, 0)
          << "epoch " << epoch.epoch << " must name its straggler";
      EXPECT_LT(epoch.straggler_partition, 4);
      EXPECT_GE(epoch.straggler_ms, 0.0);
      ASSERT_FALSE(epoch.critical_path.empty());
      // The critical path is sorted longest-first and its shares sum to the
      // coverage (both are attributed_ms / wall_ms).
      for (size_t i = 1; i < epoch.critical_path.size(); ++i) {
        EXPECT_GE(epoch.critical_path[i - 1].ms, epoch.critical_path[i].ms);
      }
    }
  }
}

TEST_F(LedgerTest, LedgerStructureIsDeterministicAcrossIdenticalRuns) {
  // Two identical runs differ only in the measured times: the merged
  // (epoch, partition, phase, cause) sequence — what tcsim_analyze --diff
  // consumes — must match element for element.
  const LedgerRunResult a =
      RunCheckpointedFatTree(true, /*two_phase=*/true, /*workers=*/2);
  const LedgerRunResult b =
      RunCheckpointedFatTree(true, /*two_phase=*/true, /*workers=*/2);
  EXPECT_EQ(a.captures_digest, b.captures_digest);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].epoch, b.records[i].epoch) << "record " << i;
    EXPECT_EQ(a.records[i].partition, b.records[i].partition) << "record " << i;
    EXPECT_EQ(a.records[i].phase, b.records[i].phase) << "record " << i;
    EXPECT_EQ(a.records[i].cause, b.records[i].cause) << "record " << i;
  }
}

TEST_F(LedgerTest, LedgerIsPerturbationFreeOnFaultyHaRun) {
  // The HA path stamps from the micro-checkpointer's fault branch, failover,
  // and output release; a faulty run with the ledger on must match the
  // same-seed faulty run with it off (same-seed reruns are digest-comparable
  // even across a restore — ha_test's reproducibility contract).
  auto run = [](bool ledger_on) {
    if (ledger_on) {
      EpochLedger::Global().Enable();
    } else {
      EpochLedger::Global().Clear();
    }
    GeneratedTopologyParams params;
    params.hosts = 40;
    params.hosts_per_lan = 5;
    params.lans_per_zone = 2;
    auto topo = GeneratedTopology::Build(params, 4, 2);
    ha::MicroCheckpointPolicy policy;
    policy.period = 1 * kMillisecond;
    policy.max_in_flight_epochs = 2;
    policy.buffer_output = true;
    ha::FaultInjector faults(7);
    faults.GenerateKillSchedule(4, 1, 8 * kMillisecond);
    ha::MicroCheckpointer mc(topo.get(), policy);
    mc.SetFaultInjector(&faults);
    mc.RunUntil(8 * kMillisecond);
    struct {
      uint64_t behavior, captures;
      size_t records;
    } r{topo->BehaviorDigest(), mc.coordinator()->CapturesDigest(),
        EpochLedger::Global().recorded()};
    EpochLedger::Global().Clear();
    return std::make_tuple(r.behavior, r.captures, r.records);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_GT(std::get<2>(on), 0u) << "the HA run must have stamped records";
  EXPECT_EQ(std::get<0>(off), std::get<0>(on));
  EXPECT_EQ(std::get<1>(off), std::get<1>(on));
}

// --- Analyzer unit tests ------------------------------------------------------

AnalyzerRecord MakeAnalyzerRecord(uint64_t epoch, int32_t partition,
                                  const std::string& phase, double begin,
                                  double end, const std::string& cause) {
  AnalyzerRecord rec;
  rec.epoch = epoch;
  rec.partition = partition;
  rec.phase = phase;
  rec.begin_ms = begin;
  rec.end_ms = end;
  rec.cause = cause;
  return rec;
}

TEST_F(LedgerTest, AnalyzerAttributesStragglerAndCommitWait) {
  // Hand-built two-epoch ledger. Epoch 1: window 0-8, freeze 8-10 with
  // partition 2 the straggler (1.6 ms vs 0.4 ms runner-up), background
  // commit dominated by repo.fsync. Epoch 2: window 10-16, commit_wait 16-20
  // — which the analyzer must attribute to epoch 1's fsync.
  std::vector<AnalyzerRecord> records;
  records.push_back(MakeAnalyzerRecord(1, -1, "epoch", 0.0, 10.0, "async"));
  records.push_back(MakeAnalyzerRecord(1, -1, "window", 0.0, 8.0, "barrier"));
  records.push_back(MakeAnalyzerRecord(1, -1, "freeze", 8.0, 10.0, "barrier"));
  records.push_back(
      MakeAnalyzerRecord(1, 0, "freeze.partition", 8.0, 8.4, "snapshot"));
  records.push_back(
      MakeAnalyzerRecord(1, 2, "freeze.partition", 8.0, 9.6, "snapshot"));
  records.push_back(
      MakeAnalyzerRecord(1, -1, "commit", 10.0, 15.0, "background"));
  records.push_back(
      MakeAnalyzerRecord(1, -1, "repo.append", 10.0, 11.0, "segment"));
  records.push_back(
      MakeAnalyzerRecord(1, -1, "repo.fsync", 11.0, 15.0, "segment_flush"));
  records.push_back(MakeAnalyzerRecord(2, -1, "epoch", 10.0, 20.0, "async"));
  records.push_back(MakeAnalyzerRecord(2, -1, "window", 10.0, 16.0, "barrier"));
  records.push_back(
      MakeAnalyzerRecord(2, -1, "commit_wait", 16.0, 20.0, "final_join"));

  const LedgerAnalysis analysis = tools::Analyze(records);
  EXPECT_TRUE(analysis.ok());
  ASSERT_EQ(analysis.epochs.size(), 2u);

  const EpochAnalysis& e1 = analysis.epochs[0];
  EXPECT_DOUBLE_EQ(e1.wall_ms, 10.0);
  EXPECT_DOUBLE_EQ(e1.attributed_ms, 10.0);
  EXPECT_DOUBLE_EQ(e1.coverage, 1.0);
  EXPECT_EQ(e1.straggler_partition, 2);
  EXPECT_DOUBLE_EQ(e1.straggler_ms, 1.6);
  EXPECT_NEAR(e1.straggler_slack_ms, 1.2, 1e-9);
  EXPECT_DOUBLE_EQ(e1.frozen_ms, 2.0);
  EXPECT_DOUBLE_EQ(e1.overlapped_ms, 5.0);
  ASSERT_GE(e1.critical_path.size(), 2u);
  EXPECT_EQ(e1.critical_path[0].phase, "window");
  EXPECT_DOUBLE_EQ(e1.critical_path[0].share, 0.8);

  const EpochAnalysis& e2 = analysis.epochs[1];
  EXPECT_DOUBLE_EQ(e2.commit_wait_ms, 4.0);
  EXPECT_EQ(e2.commit_wait_dominant, "repo.fsync")
      << "the join waited on epoch 1's segment fsync";
  EXPECT_DOUBLE_EQ(analysis.min_coverage, 1.0);
}

TEST_F(LedgerTest, AnalyzerSelfCheckFlagsStructuralProblems) {
  // A negative-span record and a duplicate epoch record are the two damages
  // --self-check exists to catch.
  std::vector<AnalyzerRecord> records;
  records.push_back(MakeAnalyzerRecord(1, -1, "epoch", 0.0, 10.0, "sync"));
  records.push_back(MakeAnalyzerRecord(1, -1, "epoch", 0.0, 10.0, "sync"));
  records.push_back(MakeAnalyzerRecord(1, -1, "window", 5.0, 3.0, "barrier"));
  const LedgerAnalysis analysis = tools::Analyze(records);
  EXPECT_FALSE(analysis.ok());
  ASSERT_GE(analysis.errors.size(), 2u);
  bool saw_negative = false, saw_duplicate = false;
  for (const std::string& err : analysis.errors) {
    if (err.find("negative") != std::string::npos) saw_negative = true;
    if (err.find("duplicate") != std::string::npos) saw_duplicate = true;
  }
  EXPECT_TRUE(saw_negative) << "negative span must be reported";
  EXPECT_TRUE(saw_duplicate) << "duplicate epoch record must be reported";

  // A ledger with no epoch records has nothing to attribute against — that
  // is itself a self-check failure (the coordinator always closes epochs).
  const LedgerAnalysis empty = tools::Analyze({});
  EXPECT_FALSE(empty.ok());
  ASSERT_EQ(empty.errors.size(), 1u);
  EXPECT_NE(empty.errors[0].find("no epoch records"), std::string::npos);
  EXPECT_TRUE(empty.epochs.empty());
  EXPECT_DOUBLE_EQ(empty.min_coverage, 1.0);
}

TEST_F(LedgerTest, ReportAndDiffCarryTheAttribution) {
  const LedgerRunResult run =
      RunCheckpointedFatTree(true, /*two_phase=*/true, /*workers=*/2);
  const LedgerAnalysis analysis = tools::Analyze(run.records);
  const std::string text = tools::ReportText(analysis);
  EXPECT_NE(text.find("window"), std::string::npos);
  EXPECT_NE(text.find("coverage"), std::string::npos);
  const std::string json = tools::ReportJson(analysis);
  EXPECT_NE(json.find("\"min_coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs\""), std::string::npos);
  const std::string diff = tools::DiffText(analysis, analysis);
  EXPECT_NE(diff.find("window"), std::string::npos);
}

}  // namespace
}  // namespace tcsim
