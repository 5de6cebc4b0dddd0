// Emulab control-plane tests: experiment lifecycle, stateful swapping
// (Section 5), the event system's two placements (Section 5.2), and NFS
// timestamp transduction.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "src/apps/diskbench.h"
#include "src/repo/checkpoint_repo.h"
#include "src/emulab/event_system.h"
#include "src/emulab/idle_monitor.h"
#include "src/emulab/experiment.h"
#include "src/emulab/experiment_spec.h"
#include "src/emulab/external_observer.h"
#include "src/emulab/services.h"
#include "src/emulab/testbed.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

struct SingleNodeFixture {
  SingleNodeFixture() : testbed(&sim, 77) {
    ExperimentSpec spec("one-node");
    spec.AddNode("pc1");
    experiment = testbed.CreateExperiment(spec);
    bool in = false;
    experiment->SwapIn(/*golden_cached=*/true, [&] { in = true; });
    sim.RunUntil(sim.Now() + 30 * kSecond);
    EXPECT_TRUE(in);
  }

  ExperimentNode* node() { return experiment->node("pc1"); }

  Simulator sim;
  Testbed testbed;
  Experiment* experiment = nullptr;
};

TEST(ExperimentTest, SwapInTimingDependsOnGoldenCache) {
  Simulator sim;
  Testbed testbed(&sim, 1);
  ExperimentSpec spec("exp");
  spec.AddNode("pc1");

  Experiment* cached = testbed.CreateExperiment(spec);
  bool in = false;
  cached->SwapIn(true, [&] { in = true; });
  sim.RunUntil(sim.Now() + 300 * kSecond);
  ASSERT_TRUE(in);
  // Paper: eight seconds when the base image is cached.
  EXPECT_NEAR(ToSeconds(cached->swap_history().front().duration()), 8.0, 0.01);

  Experiment* uncached = testbed.CreateExperiment(spec);
  in = false;
  uncached->SwapIn(false, [&] { in = true; });
  sim.RunUntil(sim.Now() + 300 * kSecond);
  ASSERT_TRUE(in);
  // Plus ~60 s to download the golden image.
  EXPECT_NEAR(ToSeconds(uncached->swap_history().front().duration()), 68.0, 0.01);
}

TEST(ExperimentTest, StatefulSwapRoundTripPreservesGuestState) {
  SingleNodeFixture f;
  ExperimentNode* node = f.node();

  // Build up some run-time state.
  uint64_t counter = 0;
  std::function<void()> tick = [&] {
    ++counter;
    node->kernel().Usleep(10 * kMillisecond, tick);
  };
  tick();
  node->kernel().block().Write(5000, {1, 2, 3, 4}, nullptr);
  f.sim.RunUntil(f.sim.Now() + 2 * kSecond);
  const uint64_t counter_before = counter;
  const SimTime vtime_before = node->kernel().GetTimeOfDay();
  ASSERT_GT(counter_before, 150u);

  // Swap out; the experiment stays frozen for 10 minutes of wall time.
  bool out = false;
  f.experiment->StatefulSwapOut(/*eager_precopy=*/true,
                                [&](const SwapRecord&) { out = true; });
  f.sim.RunUntil(f.sim.Now() + 120 * kSecond);
  ASSERT_TRUE(out);
  EXPECT_EQ(f.experiment->state(), Experiment::State::kSwappedOut);
  const uint64_t counter_at_swap = counter;
  f.sim.RunUntil(f.sim.Now() + 600 * kSecond);
  // Nothing runs while swapped out.
  EXPECT_EQ(counter, counter_at_swap);

  // Swap back in: the workload continues where it stopped, and guest time is
  // continuous (the swapped-out period is concealed).
  bool in = false;
  f.experiment->StatefulSwapIn(/*lazy=*/true, [&](const SwapRecord&) { in = true; });
  f.sim.RunUntil(f.sim.Now() + 120 * kSecond);
  ASSERT_TRUE(in);
  EXPECT_EQ(f.experiment->state(), Experiment::State::kSwappedIn);
  f.sim.RunUntil(f.sim.Now() + kSecond);
  EXPECT_GT(counter, counter_at_swap);
  const SimTime vtime_after = node->kernel().GetTimeOfDay();
  // ~14 minutes of wall time passed, but guest time advanced only by the
  // running intervals (the pre-suspend window plus the post-resume tail of
  // the two RunUntil windows) — the ~10-minute swapped-out span is concealed.
  EXPECT_LT(vtime_after - vtime_before, 250 * kSecond);
  EXPECT_GT(vtime_after - vtime_before, 10 * kSecond);
}

TEST(ExperimentTest, StatefulSwapShipsOnlyTheDelta) {
  SingleNodeFixture f;
  ExperimentNode* node = f.node();
  // Dirty 64 MB of disk.
  for (uint64_t i = 0; i < 16384; i += 64) {
    node->kernel().block().Write(10000 + i, std::vector<uint64_t>(64, i), nullptr);
  }
  f.sim.RunUntil(f.sim.Now() + 30 * kSecond);
  const uint64_t delta = f.experiment->PendingDeltaBytes();
  EXPECT_GE(delta, 64ull * 1024 * 1024);

  bool out = false;
  SwapRecord record;
  f.experiment->StatefulSwapOut(true, [&](const SwapRecord& rec) {
    record = rec;
    out = true;
  });
  f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
  ASSERT_TRUE(out);
  // Transferred bytes cover the delta plus the memory image, far below the
  // full 6 GB disk.
  EXPECT_GE(record.bytes_transferred, delta / 2);
  EXPECT_LT(record.bytes_transferred, 1ull * 1024 * 1024 * 1024);
  // After swap-out the delta has been merged into the aggregated level.
  EXPECT_EQ(node->store().current_delta_blocks(), 0u);
  EXPECT_GE(node->store().aggregated_delta_blocks(), 16384u);
}

TEST(ExperimentTest, LazySwapInResumesBeforeFullDeltaTransfer) {
  SingleNodeFixture f;
  ExperimentNode* node = f.node();
  for (uint64_t i = 0; i < 32768; i += 64) {
    node->kernel().block().Write(20000 + i, std::vector<uint64_t>(64, i), nullptr);
  }
  f.sim.RunUntil(f.sim.Now() + 60 * kSecond);
  bool out = false;
  f.experiment->StatefulSwapOut(false, [&](const SwapRecord&) { out = true; });
  f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
  ASSERT_TRUE(out);

  bool lazy_in = false;
  SwapRecord lazy_record;
  f.experiment->StatefulSwapIn(true, [&](const SwapRecord& rec) {
    lazy_record = rec;
    lazy_in = true;
  });
  f.sim.RunUntil(f.sim.Now() + 600 * kSecond);
  ASSERT_TRUE(lazy_in);

  // Second cycle, non-lazy, for comparison.
  bool out2 = false;
  f.experiment->StatefulSwapOut(false, [&](const SwapRecord&) { out2 = true; });
  f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
  ASSERT_TRUE(out2);
  bool eager_in = false;
  SwapRecord eager_record;
  f.experiment->StatefulSwapIn(false, [&](const SwapRecord& rec) {
    eager_record = rec;
    eager_in = true;
  });
  f.sim.RunUntil(f.sim.Now() + 600 * kSecond);
  ASSERT_TRUE(eager_in);

  // Lazy swap-in returns control much sooner than a full-delta transfer.
  EXPECT_LT(lazy_record.duration(), eager_record.duration());
}

TEST(EventSystemTest, InsideSchedulerStaysAlignedAcrossSwap) {
  SingleNodeFixture f;
  EventScheduler events(f.experiment, &f.testbed, EventScheduler::Placement::kInsideExperiment);
  bool fired = false;
  events.Schedule(30 * kSecond, "pc1", [&](ExperimentNode&) { fired = true; });
  const SimTime v0 = f.node()->kernel().GetTimeOfDay();
  events.Start();

  // Swap out at +5 s for ~10 minutes, then back in.
  f.sim.Schedule(5 * kSecond, [&] {
    f.experiment->StatefulSwapOut(false, nullptr);
  });
  f.sim.Schedule(700 * kSecond, [&] { f.experiment->StatefulSwapIn(true, nullptr); });
  f.sim.RunUntil(f.sim.Now() + 1000 * kSecond);

  ASSERT_TRUE(fired);
  ASSERT_EQ(events.deliveries().size(), 1u);
  const EventScheduler::Delivery& d = events.deliveries().front();
  // Delivered at the scheduled *experiment* time despite the long swap-out.
  EXPECT_NEAR(ToSeconds(d.delivered_virtual), ToSeconds(v0 + d.scheduled), 1.0);
}

TEST(EventSystemTest, BossSchedulerDistortsAcrossSwap) {
  SingleNodeFixture f;
  EventScheduler events(f.experiment, &f.testbed, EventScheduler::Placement::kBossServer);
  bool fired = false;
  events.Schedule(30 * kSecond, "pc1", [&](ExperimentNode&) { fired = true; });
  const SimTime v0 = f.node()->kernel().GetTimeOfDay();
  events.Start();

  f.sim.Schedule(5 * kSecond, [&] { f.experiment->StatefulSwapOut(false, nullptr); });
  f.sim.Schedule(700 * kSecond, [&] { f.experiment->StatefulSwapIn(true, nullptr); });
  f.sim.RunUntil(f.sim.Now() + 1000 * kSecond);

  ASSERT_TRUE(fired);
  ASSERT_EQ(events.deliveries().size(), 1u);
  const EventScheduler::Delivery& d = events.deliveries().front();
  // The boss fired at wall-clock +30 s — mid-swap — so the guest received it
  // at the wrong virtual time (the Section 5.2 distortion).
  const double error_sec =
      std::abs(ToSeconds(d.delivered_virtual) - ToSeconds(v0 + d.scheduled));
  EXPECT_GT(error_sec, 5.0);
}

TEST(NfsTest, TimestampsTransducedAtBoundary) {
  SingleNodeFixture f;
  NfsServer server(&f.testbed.fs_stack());
  NfsClient client(f.node(), kFsAddr);

  // Guest writes a file; the mtime it observes is in its own virtual time.
  SimTime mtime1 = -1;
  client.WriteFile("/proj/results.txt", 4096, [&](SimTime m) { mtime1 = m; });
  f.sim.RunUntil(f.sim.Now() + kSecond);
  ASSERT_GE(mtime1, 0);
  EXPECT_LE(mtime1, f.node()->kernel().GetTimeOfDay());

  // Conceal 20 s (as a stateful swap would).
  f.node()->domain().FreezeTime();
  f.sim.RunUntil(f.sim.Now() + 20 * kSecond);
  // Meanwhile the outside world touches a file on the server.
  server.WriteLocal("/proj/outside.txt", 128);
  f.sim.RunUntil(f.sim.Now() + kSecond);
  f.node()->domain().UnfreezeTime(/*compensate=*/true);

  // Without transduction the outside file's mtime (server real time) would
  // lie in the guest's future; the transducer maps it into guest time.
  SimTime mtime2 = -1;
  client.GetAttr("/proj/outside.txt", [&](SimTime m) { mtime2 = m; });
  f.sim.RunUntil(f.sim.Now() + kSecond);
  ASSERT_GE(mtime2, 0);
  const SimTime vnow = f.node()->kernel().GetTimeOfDay();
  EXPECT_LE(mtime2, vnow);
  // Raw server time would have been ~20 s ahead of guest time.
  const NfsServer::FileAttr* raw = server.Lookup("/proj/outside.txt");
  ASSERT_NE(raw, nullptr);
  EXPECT_GT(raw->mtime, vnow);
}


TEST(EventSystemTest, CompletionNotificationsReachScheduler) {
  SingleNodeFixture f;
  EventScheduler events(f.experiment, &f.testbed,
                        EventScheduler::Placement::kBossServer);
  int ran = 0;
  int completed = 0;
  events.Schedule(kSecond, "pc1", [&](ExperimentNode&) { ++ran; },
                  [&] { ++completed; });
  events.Schedule(2 * kSecond, "pc1", [&](ExperimentNode&) { ++ran; },
                  [&] { ++completed; });
  events.Start();
  f.sim.RunUntil(f.sim.Now() + 10 * kSecond);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(events.completions(), 2u);
}

TEST(EventSystemTest, InsideSchedulerCompletionsWorkToo) {
  SingleNodeFixture f;
  EventScheduler events(f.experiment, &f.testbed,
                        EventScheduler::Placement::kInsideExperiment);
  bool completed = false;
  events.Schedule(kSecond, "pc1", [](ExperimentNode&) {}, [&] { completed = true; });
  events.Start();
  f.sim.RunUntil(f.sim.Now() + 10 * kSecond);
  EXPECT_TRUE(completed);
}

TEST(IdleMonitorTest, SwapsOutQuietExperimentAndSparesBusyOne) {
  // Busy experiment: a periodic ticker defeats the idle detector.
  {
    SingleNodeFixture f;
    ExperimentNode* node = f.node();
    std::function<void()> tick = [&] { node->kernel().Usleep(kSecond, tick); };
    tick();
    IdleSwapMonitor::Params params;
    params.poll_interval = 5 * kSecond;
    params.idle_threshold = 20 * kSecond;
    IdleSwapMonitor monitor(&f.sim, f.experiment, params);
    monitor.Start();
    f.sim.RunUntil(f.sim.Now() + 120 * kSecond);
    EXPECT_FALSE(monitor.swapped_out_by_monitor());
    EXPECT_EQ(f.experiment->state(), Experiment::State::kSwappedIn);
  }
  // Quiet experiment: reclaimed automatically, state preserved.
  {
    SingleNodeFixture f;
    IdleSwapMonitor::Params params;
    params.poll_interval = 5 * kSecond;
    params.idle_threshold = 20 * kSecond;
    IdleSwapMonitor monitor(&f.sim, f.experiment, params);
    bool swapped = false;
    monitor.SetSwapOutCallback([&](const SwapRecord&) { swapped = true; });
    monitor.Start();
    f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
    EXPECT_TRUE(swapped);
    EXPECT_EQ(f.experiment->state(), Experiment::State::kSwappedOut);
    // And a manual swap-in restores it.
    bool in = false;
    f.experiment->StatefulSwapIn(true, [&](const SwapRecord&) { in = true; });
    f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
    EXPECT_TRUE(in);
  }
}

// With a durable repository attached to the testbed, swap-out persists every
// node's checkpoint image, swap-in reads it back byte-identically, and
// retired swap generations become garbage a GC pass reclaims.
TEST(ExperimentTest, StatefulSwapPersistsThroughRepository) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "tcsim_swap_repo").string();
  std::filesystem::remove_all(dir);
  std::string error;
  auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
  ASSERT_NE(repo, nullptr) << error;

  SingleNodeFixture f;
  f.testbed.AttachRepository(repo.get());
  ExperimentNode* node = f.node();

  // Two full swap cycles with workload progress in between, so the second
  // swap-out writes a different image and retires the first generation.
  for (int cycle = 0; cycle < 2; ++cycle) {
    node->kernel().block().Write(5000 + cycle * 64, {1, 2, 3, 4}, nullptr);
    f.sim.RunUntil(f.sim.Now() + 2 * kSecond);

    bool out = false;
    SwapRecord out_record;
    f.experiment->StatefulSwapOut(/*eager_precopy=*/false,
                                  [&](const SwapRecord& rec) {
                                    out = true;
                                    out_record = rec;
                                  });
    f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
    ASSERT_TRUE(out);
    EXPECT_GT(out_record.repo_bytes_written, 0u) << "cycle " << cycle;
    EXPECT_TRUE(out_record.repo_verified);
    EXPECT_EQ(repo->live_image_count(), 1u);  // previous generation retired

    bool in = false;
    SwapRecord in_record;
    f.experiment->StatefulSwapIn(/*lazy=*/false, [&](const SwapRecord& rec) {
      in = true;
      in_record = rec;
    });
    f.sim.RunUntil(f.sim.Now() + 300 * kSecond);
    ASSERT_TRUE(in);
    // The image read back from disk matched the engine's own store, byte
    // for byte.
    EXPECT_TRUE(in_record.repo_verified) << "cycle " << cycle;
    EXPECT_GT(in_record.repo_bytes_read, 0u) << "cycle " << cycle;
  }

  // The first generation's unshared payloads are reclaimable garbage.
  EXPECT_GT(repo->garbage_payload_bytes(), 0u);
  const auto gc = repo->CollectGarbage();
  ASSERT_TRUE(gc.ok) << repo->error();
  EXPECT_EQ(repo->garbage_payload_bytes(), 0u);
  EXPECT_EQ(repo->live_image_count(), 1u);

  std::filesystem::remove_all(dir);
}

TEST(ExternalObserverTest, ClearDropsTraceTagsAndIdCache) {
  emulab::ExternalObserver observer;
  Packet pkt;
  pkt.id = 7;
  pkt.size_bytes = 64;
  observer.Observe(pkt, kMillisecond, 0, 1);
  observer.Observe(pkt, 2 * kMillisecond, 2, 3);
  observer.Observe(pkt, 3 * kMillisecond, 0, 1);
  const TraceLog& trace = observer.trace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.records()[0].tag_id, trace.records()[2].tag_id);
  EXPECT_EQ(trace.tag(trace.records()[1]), "2>3");
  observer.Clear();
  EXPECT_EQ(observer.observed(), 0u);
  EXPECT_EQ(trace.size(), 0u);
  // The tag table is empty again, so a stale cached id would name nothing.
  observer.Observe(pkt, 4 * kMillisecond, 2, 3);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.tag(trace.records()[0]), "2>3");
}

}  // namespace
}  // namespace tcsim
