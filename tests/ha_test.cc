// High-availability subsystem tests: continuous micro-checkpointing, output
// commit, deterministic fault injection, and transparent failover.
//
// The load-bearing assertions are transparency diffs: a run that suffers a
// seeded kill and recovers by restoring the victim from its last committed
// micro-checkpoint must be indistinguishable — to the external observer's
// packet trace, to the workload's behaviour digest, and to the checkpoint
// images themselves — from a run with no fault at all. Event digests are
// deliberately NOT compared across faulty/fault-free pairs (a restore
// re-dispatches the replayed window's events), only across same-seed reruns.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/checkpoint/epoch_coordinator.h"
#include "src/emulab/external_observer.h"
#include "src/ha/failover.h"
#include "src/ha/fault_injector.h"
#include "src/ha/micro_checkpointer.h"
#include "src/ha/output_buffer.h"
#include "src/net/topology.h"
#include "src/obs/epoch_ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_session.h"
#include "src/repo/checkpoint_repo.h"
#include "src/repo/io_fault.h"
#include "src/sim/digest.h"
#include "src/sim/image.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"
#include "tests/image_reference.h"

namespace tcsim {
namespace {

namespace fs = std::filesystem;

// 40 hosts in 8 LANs across 4 zones -> 4 partitions; remote_fraction keeps a
// steady stream of cross-partition (externally visible) traffic.
GeneratedTopologyParams SmallParams() {
  GeneratedTopologyParams params;
  params.hosts = 40;
  params.hosts_per_lan = 5;
  params.lans_per_zone = 2;
  return params;
}

// Micro-checkpoint cadence for the tests: 1 kHz of simulated time, far above
// the >= 20 Hz floor the acceptance criterion names (period <= 50 ms).
constexpr SimTime kPeriod = 1 * kMillisecond;
constexpr SimTime kHorizon = 8 * kPeriod;
constexpr uint32_t kPartitions = 4;
constexpr uint32_t kWorkers = 2;

struct HaRunResult {
  uint64_t behavior = 0;
  uint64_t captures = 0;
  uint64_t events = 0;
  uint64_t epochs = 0;
  TraceLog trace;
  std::vector<ha::RecoveryRecord> recoveries;
  uint64_t released = 0;
  size_t held = 0;
};

ha::MicroCheckpointPolicy HaPolicy(uint32_t max_in_flight) {
  ha::MicroCheckpointPolicy policy;
  policy.period = kPeriod;
  policy.max_in_flight_epochs = max_in_flight;
  policy.buffer_output = true;
  return policy;
}

HaRunResult RunHa(const ha::MicroCheckpointPolicy& policy,
                  ha::FaultInjector* faults, CheckpointRepo* repo = nullptr,
                  SimTime horizon = kHorizon,
                  const GeneratedTopologyParams& params = SmallParams(),
                  uint32_t workers = kWorkers) {
  auto topo = GeneratedTopology::Build(params, kPartitions, workers);
  EXPECT_EQ(topo->partition_count(), kPartitions);
  emulab::ExternalObserver observer;
  ha::MicroCheckpointer mc(topo.get(), policy);
  mc.SetObserver(&observer);
  if (faults != nullptr) {
    mc.SetFaultInjector(faults);
  }
  if (repo != nullptr) {
    mc.AttachRepository(repo);
  }
  mc.RunUntil(horizon);
  HaRunResult r;
  r.behavior = topo->BehaviorDigest();
  r.captures = mc.coordinator()->CapturesDigest();
  r.events = topo->EventDigest();
  r.epochs = mc.epochs_committed();
  r.trace = observer.trace();
  r.recoveries = mc.failover()->recoveries();
  if (mc.output_buffer() != nullptr) {
    r.released = mc.output_buffer()->released_total();
    r.held = mc.output_buffer()->held_count();
  }
  return r;
}

// The fat trees HA is stated at, four zones each, one per partition.
constexpr GeneratedTopologyParams kFatTree100{
    .hosts = 100, .hosts_per_lan = 5, .lans_per_zone = 5};
constexpr GeneratedTopologyParams kFatTree1000{
    .hosts = 1000, .hosts_per_lan = 10, .lans_per_zone = 25};

// HA at scale: 50 Hz micro-checkpoints with one epoch of commit lag and
// buffered output, on 3 workers.
HaRunResult RunHaFatTree(const GeneratedTopologyParams& params,
                         ha::FaultInjector* faults, SimTime horizon) {
  ha::MicroCheckpointPolicy policy;
  policy.period = 20 * kMillisecond;
  policy.max_in_flight_epochs = 1;
  policy.buffer_output = true;
  return RunHa(policy, faults, nullptr, horizon, params, /*workers=*/3);
}

// FNV-1a over an observer trace: each record's time, tag name and value bits.
uint64_t TraceDigest(const TraceLog& trace) {
  Fnv1aDigest d;
  for (const TraceRecord& rec : trace.records()) {
    d.Mix(static_cast<uint64_t>(rec.virtual_time));
    const std::string& tag = trace.tag(rec);
    d.MixBytes(tag.data(), tag.size());
    d.Mix(std::bit_cast<uint64_t>(rec.value));
  }
  return d.value();
}

void ExpectTraceIdentical(const TraceLog& a, const TraceLog& b) {
  const TraceDiff diff = a.Compare(b);
  EXPECT_TRUE(diff.comparable) << diff.Describe();
  EXPECT_EQ(diff.max_time_delta, 0) << diff.Describe();
  EXPECT_EQ(diff.max_value_delta, 0.0) << diff.Describe();
}

// The full transparency statement for one faulty run against its fault-free
// twin: every recovery succeeded, the external observer saw a bit-identical
// packet trace, the workload's behaviour digest matches, and the epoch
// captures themselves (the per-partition images, hashed in epoch order)
// match — the restored partition reconverged exactly.
void ExpectTransparent(const HaRunResult& faulty, const HaRunResult& clean,
                       size_t expected_recoveries) {
  ASSERT_EQ(faulty.recoveries.size(), expected_recoveries);
  for (const ha::RecoveryRecord& rec : faulty.recoveries) {
    EXPECT_TRUE(rec.ok) << "partition " << rec.partition << " at "
                        << rec.killed_at;
    EXPECT_LE(rec.restored_to, rec.killed_at);
  }
  EXPECT_EQ(faulty.behavior, clean.behavior);
  EXPECT_EQ(faulty.captures, clean.captures);
  ASSERT_GT(clean.trace.size(), 0u);
  ExpectTraceIdentical(faulty.trace, clean.trace);
}

// Re-frames `image` through the tests' reference writer: every chunk's id
// and payload, read back in file order.
std::vector<uint8_t> ReframeThroughReference(
    const std::vector<uint8_t>& image) {
  const CheckpointImageView view(image);
  EXPECT_TRUE(view.ok()) << view.error();
  ReferenceChunks chunks;
  for (const CheckpointImageView::Chunk& c : view.chunks()) {
    chunks.emplace_back(std::string(c.id),
                        std::vector<uint8_t>(c.payload.data,
                                             c.payload.data + c.payload.size));
  }
  return FrameReferenceImage(chunks);
}

// --- Sync bypass: the HA driver is a no-op wrapper when its features are off

TEST(HaMicroCheckpointTest, SyncBypassMatchesPlainCoordinatorDigests) {
  ha::MicroCheckpointPolicy policy;
  policy.period = kPeriod;
  policy.max_in_flight_epochs = 0;  // synchronous capture
  policy.buffer_output = false;     // no output interposition
  const HaRunResult ha_run = RunHa(policy, nullptr);

  auto topo = GeneratedTopology::Build(SmallParams(), kPartitions, kWorkers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), kPeriod,
      [&topo](Partition* p) { return topo->CaptureHaPartitionImage(p->id()); });
  epochs.RunUntil(kHorizon);

  EXPECT_EQ(ha_run.events, topo->EventDigest());
  EXPECT_EQ(ha_run.behavior, topo->BehaviorDigest());
  EXPECT_EQ(ha_run.captures, epochs.CapturesDigest());

  // The frozen walk's contract, on the state the run ends in: each image
  // keeps its bytes when its chunks are re-framed through the tests'
  // reference writer (tests/image_reference.h), and the host/NIC image is
  // exactly the partition's hosts and NICs in node-id order — the HA image's
  // leading chunks.
  for (uint32_t p = 0; p < topo->partition_count(); ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    const std::vector<uint8_t> ha_image = topo->CaptureHaPartitionImage(p);
    EXPECT_EQ(ReframeThroughReference(ha_image), ha_image);
    const std::vector<uint8_t> host_image = topo->CapturePartitionImage(p);
    EXPECT_EQ(ReframeThroughReference(host_image), host_image);

    std::vector<std::string> host_ids;
    for (size_t i = 0; i < topo->node_count(); ++i) {
      if (topo->node_partition(i) == p) {
        const std::string id = std::to_string(topo->node(i)->id());
        host_ids.push_back("traffic.node." + id);
        host_ids.push_back("net.nic." + id);
      }
    }
    const CheckpointImageView host(host_image);
    const CheckpointImageView ha(ha_image);
    ASSERT_TRUE(host.ok()) << host.error();
    ASSERT_TRUE(ha.ok()) << ha.error();
    ASSERT_EQ(host.chunks().size(), host_ids.size());
    ASSERT_GT(ha.chunks().size(), host.chunks().size());
    for (size_t c = 0; c < host.chunks().size(); ++c) {
      const CheckpointImageView::Chunk& h = host.chunks()[c];
      const CheckpointImageView::Chunk& a = ha.chunks()[c];
      EXPECT_EQ(h.id, host_ids[c]);
      EXPECT_EQ(a.id, h.id);
      EXPECT_TRUE(a.payload.size == h.payload.size &&
                  std::equal(a.payload.data, a.payload.data + a.payload.size,
                             h.payload.data))
          << h.id;
    }
  }
}

// --- Determinism: same seed, same run, bit for bit

TEST(HaMicroCheckpointTest, FaultFreeRunsAreBitIdentical) {
  const HaRunResult a = RunHa(HaPolicy(1), nullptr);
  const HaRunResult b = RunHa(HaPolicy(1), nullptr);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.behavior, b.behavior);
  EXPECT_EQ(a.captures, b.captures);
  ASSERT_GT(a.trace.size(), 0u);
  ExpectTraceIdentical(a.trace, b.trace);
}

TEST(HaFaultInjectorTest, SameSeedSameSchedule) {
  ha::FaultInjector a(42), b(42), c(43);
  a.GenerateKillSchedule(kPartitions, 5, kHorizon);
  b.GenerateKillSchedule(kPartitions, 5, kHorizon);
  c.GenerateKillSchedule(kPartitions, 5, kHorizon);
  ASSERT_EQ(a.schedule().size(), 5u);
  EXPECT_EQ(a.ScheduleDigest(), b.ScheduleDigest());
  EXPECT_NE(a.ScheduleDigest(), c.ScheduleDigest());
  for (size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].at, b.schedule()[i].at);
    EXPECT_EQ(a.schedule()[i].target, b.schedule()[i].target);
    EXPECT_GT(a.schedule()[i].at, kHorizon / 4);
    EXPECT_LT(a.schedule()[i].at, kHorizon);
  }
}

TEST(HaFaultInjectorTest, ExplicitScheduleOrdersAndDrains) {
  ha::FaultInjector fi(1);
  fi.Schedule({3 * kPeriod, ha::FaultKind::kKillPartition, 1});
  fi.Schedule({kPeriod, ha::FaultKind::kLinkFlap, 0, 0, kPeriod, 1.0});
  fi.Schedule({kPeriod, ha::FaultKind::kKillNode, 7});
  EXPECT_EQ(fi.NextFaultAt(), kPeriod);
  const auto due = fi.TakeDue(kPeriod);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].kind, ha::FaultKind::kLinkFlap);  // insertion order on tie
  EXPECT_EQ(due[1].kind, ha::FaultKind::kKillNode);
  EXPECT_EQ(fi.NextFaultAt(), 3 * kPeriod);
  EXPECT_EQ(fi.TakeDue(kHorizon).size(), 1u);
  EXPECT_EQ(fi.NextFaultAt(), kNoPendingEvent);
}

TEST(HaFaultInjectorTest, SeededKillRunsAreReproducible) {
  auto run = [] {
    ha::FaultInjector fi(7);
    fi.GenerateKillSchedule(kPartitions, 2, kHorizon);
    return RunHa(HaPolicy(1), &fi);
  };
  const HaRunResult a = run();
  const HaRunResult b = run();
  ASSERT_EQ(a.recoveries.size(), 2u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.behavior, b.behavior);
  EXPECT_EQ(a.captures, b.captures);
  ExpectTraceIdentical(a.trace, b.trace);
}

// --- Output commit: nothing escapes before its covering epoch commits

TEST(HaOutputBufferTest, ReleasesLagCommitAndStayInOrder) {
  for (const uint32_t lag : {0u, 1u}) {
    const HaRunResult r = RunHa(HaPolicy(lag), nullptr);
    ASSERT_GT(r.trace.size(), 0u) << "lag " << lag;
    if (lag > 0) {
      // The horizon barrier's commit still lags one epoch, so the last
      // window's output is still held; synchronous capture drains fully.
      EXPECT_GT(r.held, 0u);
    } else {
      EXPECT_EQ(r.held, 0u);
    }
    EXPECT_EQ(r.released, r.trace.size());
    // Epoch k's output becomes visible no earlier than barrier k + lag.
    const SimTime first_visible = static_cast<SimTime>(1 + lag) * kPeriod;
    SimTime prev = 0;
    for (const TraceRecord& rec : r.trace.records()) {
      EXPECT_GE(rec.virtual_time, first_visible);
      EXPECT_GE(rec.virtual_time, prev);  // deterministic release order
      prev = rec.virtual_time;
    }
  }
}

// --- Failover transparency: the acceptance sweep

// Kill one partition at every phase of an epoch window — at the barrier
// itself, early, mid-window (for async epochs: while the previous epoch's
// commit may still be in flight on the background thread), and late — under
// both synchronous and two-phase capture. Every variant must recover from
// the committed image and replay back to a run the external observer cannot
// tell from fault-free.
TEST(HaFailoverTest, KillAtEveryEpochPhaseIsTransparent) {
  for (const uint32_t lag : {0u, 1u}) {
    const HaRunResult clean = RunHa(HaPolicy(lag), nullptr);
    const SimTime offsets[] = {0, kPeriod / 4, kPeriod / 2, (3 * kPeriod) / 4};
    for (const SimTime offset : offsets) {
      ha::FaultInjector fi(1);
      fi.Schedule({3 * kPeriod + offset, ha::FaultKind::kKillPartition, 1});
      const HaRunResult faulty = RunHa(HaPolicy(lag), &fi);
      SCOPED_TRACE("lag " + std::to_string(lag) + " offset " +
                   std::to_string(offset));
      ExpectTransparent(faulty, clean, 1);
      // The restore target is pure epoch arithmetic, never wall-clock commit
      // timing: every kill at or after barrier 3P and before barrier 4P
      // restores epoch 3 - lag.
      EXPECT_EQ(faulty.recoveries[0].epoch, 3u - lag);
    }
  }
}

// A node kill resolves to its partition (the restore unit is the partition
// image; DESIGN.md §14 documents the blast radius) — seeded node-kill
// mid-epoch at 1 kHz micro-checkpointing, recovered transparently.
TEST(HaFailoverTest, NodeKillMidEpochIsTransparent) {
  const HaRunResult clean = RunHa(HaPolicy(1), nullptr);
  ha::FaultInjector fi(9);
  fi.Schedule({2 * kPeriod + kPeriod / 2, ha::FaultKind::kKillNode, 17});
  const HaRunResult faulty = RunHa(HaPolicy(1), &fi);
  ExpectTransparent(faulty, clean, 1);
  auto topo = GeneratedTopology::Build(SmallParams(), kPartitions, 0);
  EXPECT_EQ(faulty.recoveries[0].partition, topo->node_partition(17));
}

TEST(HaFailoverTest, KillInFirstWindowRestoresFromBootstrap) {
  const HaRunResult clean = RunHa(HaPolicy(1), nullptr);
  ha::FaultInjector fi(2);
  fi.Schedule({kPeriod / 2, ha::FaultKind::kKillPartition, 2});
  const HaRunResult faulty = RunHa(HaPolicy(1), &fi);
  ExpectTransparent(faulty, clean, 1);
  EXPECT_EQ(faulty.recoveries[0].epoch, 0u);
  EXPECT_EQ(faulty.recoveries[0].restored_to, 0);
}

TEST(HaFailoverTest, DoubleFaultDuringFailoverIsTransparent) {
  const HaRunResult clean = RunHa(HaPolicy(1), nullptr);
  ha::FaultInjector fi(3);
  // Two victims at the same instant, then the first victim again while it is
  // still replaying its lost window — the second restore re-runs the same
  // protocol against the same committed epoch.
  fi.Schedule({3 * kPeriod + kPeriod / 4, ha::FaultKind::kKillPartition, 1});
  fi.Schedule({3 * kPeriod + kPeriod / 4, ha::FaultKind::kKillPartition, 2});
  fi.Schedule({3 * kPeriod + kPeriod / 2, ha::FaultKind::kKillPartition, 1});
  const HaRunResult faulty = RunHa(HaPolicy(1), &fi);
  ExpectTransparent(faulty, clean, 3);
  EXPECT_EQ(faulty.recoveries[0].epoch, faulty.recoveries[2].epoch);
}

TEST(HaFailoverTest, RepeatedSeededKillsStayTransparent) {
  {
    const HaRunResult clean = RunHa(HaPolicy(1), nullptr);
    ha::FaultInjector fi(11);
    fi.GenerateKillSchedule(kPartitions, 3, kHorizon);
    const HaRunResult faulty = RunHa(HaPolicy(1), &fi);
    ExpectTransparent(faulty, clean, 3);
  }
  // The same statement at 100 and 1000 hosts: three seeded partition kills
  // over 200 ms of 50 Hz micro-checkpoints.
  constexpr SimTime kScaleHorizon = 200 * kMillisecond;
  for (const GeneratedTopologyParams& params : {kFatTree100, kFatTree1000}) {
    SCOPED_TRACE(std::to_string(params.hosts) + " hosts");
    const HaRunResult clean = RunHaFatTree(params, nullptr, kScaleHorizon);
    if (params.hosts == 100) {
      // Release order pinned to recorded values: every other check here
      // compares two runs of one build, which a consistently reordered
      // release would pass.
      EXPECT_EQ(clean.events, 0xad34e8c64716da85ull);
      EXPECT_EQ(TraceDigest(clean.trace), 0x0a37213f8dacd5edull);
      EXPECT_EQ(clean.trace.size(), 37957u);
    }
    ha::FaultInjector fi(9);
    fi.GenerateKillSchedule(kPartitions, 3, kScaleHorizon);
    const HaRunResult faulty = RunHaFatTree(params, &fi, kScaleHorizon);
    ExpectTransparent(faulty, clean, 3);
  }
}

// --- Link faults: deterministic, contained to the flapped wire

TEST(HaFaultInjectorTest, LinkFlapIsDeterministic) {
  auto run = [] {
    ha::FaultInjector fi(5);
    fi.Schedule({2 * kPeriod + kPeriod / 4, ha::FaultKind::kLinkFlap,
                 /*target=*/0, /*budget=*/0, /*duration=*/kPeriod,
                 /*loss=*/1.0});
    return RunHa(HaPolicy(1), &fi);
  };
  const HaRunResult a = run();
  const HaRunResult b = run();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.behavior, b.behavior);
  EXPECT_EQ(a.captures, b.captures);
  ExpectTraceIdentical(a.trace, b.trace);
}

// --- Torn repository writes: durability gating holds output, failover holds

TEST(HaDurabilityTest, TornRepoWriteFreezesReleaseButNotFailover) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "tcsim_ha_torn_repo").string();
  fs::remove_all(dir);
  std::string error;
  auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
  ASSERT_NE(repo, nullptr) << error;

  // Synchronous capture keeps the spill on the barrier thread, so the torn
  // write lands in a deterministic epoch (the first commit after the fault).
  ha::MicroCheckpointPolicy policy = HaPolicy(0);
  policy.require_durable_commit = true;

  ha::FaultInjector fi(4);
  // Zero-byte budget on the journal: the next group commit's record is torn
  // at its first byte, the writer goes sticky, and every later spill fails.
  fi.Schedule({2 * kPeriod + kPeriod / 2, ha::FaultKind::kTornRepoWrite,
               /*target=*/1, /*budget=*/0});
  // A kill after the durable chain broke: restore must still work from the
  // in-memory tier even though nothing durable exists past epoch 2.
  fi.Schedule({5 * kPeriod + kPeriod / 2, ha::FaultKind::kKillPartition, 3});

  const HaRunResult faulty = RunHa(policy, &fi, repo.get());
  RepoIoFaultInjector::DisarmAll();

  ASSERT_EQ(faulty.recoveries.size(), 1u);
  EXPECT_TRUE(faulty.recoveries[0].ok);
  EXPECT_EQ(faulty.recoveries[0].epoch, 5u);  // in-memory tier, not durable
  EXPECT_EQ(faulty.epochs, 8u);               // commits kept running
  EXPECT_GT(faulty.held, 0u);                 // ...but releases froze

  // Output commit safety: what escaped is exactly a prefix of what a run
  // with a healthy repository would have released — epochs 1 and 2 — and
  // nothing covered by a non-durable epoch leaked.
  auto repo2_dir = dir + "_clean";
  fs::remove_all(repo2_dir);
  auto repo2 = CheckpointRepo::Open(repo2_dir, RepoOptions{}, &error);
  ASSERT_NE(repo2, nullptr) << error;
  ha::FaultInjector kill_only(4);
  kill_only.Schedule(
      {5 * kPeriod + kPeriod / 2, ha::FaultKind::kKillPartition, 3});
  const HaRunResult clean = RunHa(policy, &kill_only, repo2.get());
  ASSERT_LT(faulty.trace.size(), clean.trace.size());
  for (size_t i = 0; i < faulty.trace.size(); ++i) {
    EXPECT_EQ(faulty.trace.records()[i].virtual_time,
              clean.trace.records()[i].virtual_time);
    EXPECT_EQ(faulty.trace.tag(faulty.trace.records()[i]),
              clean.trace.tag(clean.trace.records()[i]));
    EXPECT_EQ(faulty.trace.records()[i].value, clean.trace.records()[i].value);
  }
  // Releases in the torn run stopped at the epoch-2 cutoff.
  for (const TraceRecord& rec : faulty.trace.records()) {
    EXPECT_LE(rec.virtual_time, kHorizon);
  }
  repo.reset();
  repo2.reset();
  fs::remove_all(dir);
  fs::remove_all(repo2_dir);
}

// --- Telemetry: HA records and counters never perturb the run

TEST(HaObservabilityTest, TelemetryIsPerturbationFree) {
  // Two inputs: the faulty HA run, and the same run spilling every epoch to
  // a repository. With the repository attached, the group commit runs on
  // the background commit thread while the coordinator thread publishes
  // epochs, so under TSan this input also catches a layer that records
  // telemetry from both threads.
  auto run = [](bool tracing, bool with_repo) {
    const std::string dir =
        (fs::path(::testing::TempDir()) /
         (tracing ? "tcsim_ha_obs_repo_on" : "tcsim_ha_obs_repo_off"))
            .string();
    std::unique_ptr<CheckpointRepo> repo;
    if (with_repo) {
      fs::remove_all(dir);
      std::string error;
      repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
      EXPECT_NE(repo, nullptr) << error;
    }
    if (tracing) {
      obs::TraceSession::Global().StartFull();
    } else {
      obs::TraceSession::Global().Stop();
    }
    ha::FaultInjector fi(6);
    fi.GenerateKillSchedule(kPartitions, 2, kHorizon);
    const HaRunResult r = RunHa(HaPolicy(1), &fi, repo.get());
    obs::TraceSession::Global().Stop();
    if (with_repo) {
      repo.reset();
      fs::remove_all(dir);
    }
    return r;
  };
  for (const bool with_repo : {false, true}) {
    SCOPED_TRACE(with_repo ? "repository attached" : "no repository");
    const HaRunResult off = run(false, with_repo);
    const HaRunResult on = run(true, with_repo);
    EXPECT_EQ(on.events, off.events);
    EXPECT_EQ(on.behavior, off.behavior);
    EXPECT_EQ(on.captures, off.captures);
    ExpectTraceIdentical(on.trace, off.trace);
  }
  obs::TraceSession::Global().Clear();
}

TEST(HaObservabilityTest, FailoverEmitsLedgerStampsAndMetrics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.ResetAll();
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  ledger.Enable();
  ha::FaultInjector fi(8);
  fi.Schedule({3 * kPeriod + kPeriod / 2, ha::FaultKind::kKillPartition, 0});
  const HaRunResult r = RunHa(HaPolicy(1), &fi);
  ledger.Disable();
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_EQ(reg.FindCounter("ha.failover.count")->value(), 1u);
  EXPECT_GT(reg.FindCounter("ha.epochs_committed")->value(), 0u);
  EXPECT_GT(reg.FindCounter("ha.buffer.released_packets")->value(), 0u);
  EXPECT_GT(reg.FindCounter("ha.buffer.held_packets")->value(), 0u);
  EXPECT_GT(reg.FindHistogram("ha.failover.recovery_ms")->count(), 0u);
  EXPECT_GT(reg.FindHistogram("ha.buffer.hold_time_us")->count(), 0u);

  // The failover and the epoch commits are recorded once each, as ledger
  // stamps; the failover stamp carries what the RecoveryRecord says.
  const ha::RecoveryRecord& rec = r.recoveries[0];
  auto arg = [](const obs::LedgerRecord& lr, const char* key) {
    for (uint8_t a = 0; a < lr.nargs; ++a) {
      if (std::string(lr.args[a].key) == key) {
        return lr.args[a].value;
      }
    }
    ADD_FAILURE() << lr.phase << " has no arg " << key;
    return -1.0;
  };
  size_t failovers = 0;
  size_t epoch_commits = 0;
  for (const obs::LedgerRecord& lr : ledger.Merged()) {
    const std::string phase = lr.phase;
    if (phase == "epoch_commit") {
      ++epoch_commits;
    } else if (phase == "failover") {
      ++failovers;
      EXPECT_EQ(lr.partition, static_cast<int32_t>(rec.partition));
      EXPECT_EQ(arg(lr, "epoch"), static_cast<double>(rec.epoch));
      EXPECT_EQ(arg(lr, "replayed"), static_cast<double>(rec.replayed));
      EXPECT_EQ(arg(lr, "discarded"), static_cast<double>(rec.discarded));
      EXPECT_EQ(rec.wall_ms, lr.end_ms - lr.begin_ms);
    }
  }
  EXPECT_EQ(failovers, 1u);
  EXPECT_GE(epoch_commits, 1u);
  ledger.Clear();
  reg.ResetAll();
}

}  // namespace
}  // namespace tcsim
