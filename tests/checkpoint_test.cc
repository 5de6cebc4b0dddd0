// Tests of the paper's core contribution: the local transparent checkpoint
// (atomicity via the temporal firewall + time virtualization) and the
// distributed coordinated checkpoint (clock-scheduled suspends, barrier,
// synchronized resume, delay-node capture).

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/iperf.h"
#include "src/checkpoint/coordinator.h"
#include "src/checkpoint/local_checkpoint.h"
#include "src/emulab/experiment.h"
#include "src/emulab/experiment_spec.h"
#include "src/emulab/testbed.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

NodeConfig LocalNodeConfig() {
  NodeConfig cfg;
  cfg.name = "pc1";
  cfg.id = 1;
  cfg.domain.memory_bytes = 128ull * 1024 * 1024;
  return cfg;
}

CheckpointPolicy ExactPolicy() {
  CheckpointPolicy policy;
  policy.resume_timer_latency = 0;  // exactness tests want zero jitter
  return policy;
}

// --- Local checkpoint ----------------------------------------------------------

TEST(LocalCheckpointTest, CompletesWithPlausibleDowntime) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(1), LocalNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, ExactPolicy());
  node.domain().TouchMemory(32 * 1024 * 1024);
  bool done = false;
  LocalCheckpointRecord record;
  sim.Schedule(kSecond, [&] {
    engine.CheckpointNow([&](const LocalCheckpointRecord& rec) {
      record = rec;
      done = true;
    });
  });
  sim.RunUntil(20 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(record.downtime(), 0);
  EXPECT_LT(record.downtime(), 500 * kMillisecond);
  EXPECT_LE(record.request_time, record.suspended_at);
  EXPECT_LE(record.suspended_at, record.saved_at);
  EXPECT_LE(record.saved_at, record.resumed_at);
  EXPECT_GT(record.image_bytes, 0u);
}

TEST(LocalCheckpointTest, GuestTimerUnaffectedByTransparentCheckpoint) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(1), LocalNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, ExactPolicy());
  node.domain().TouchMemory(32 * 1024 * 1024);

  SimTime measured = -1;
  const SimTime start_virtual = node.kernel().GetTimeOfDay();
  node.kernel().Usleep(500 * kMillisecond, [&] {
    measured = node.kernel().GetTimeOfDay() - start_virtual;
  });
  sim.Schedule(100 * kMillisecond, [&] { engine.CheckpointNow(nullptr); });
  sim.RunUntil(30 * kSecond);
  ASSERT_GE(measured, 0);
  // The guest observes its requested sleep despite being suspended mid-sleep
  // for the checkpoint downtime. The residual error is bounded by NTP slew
  // on the host clock (well under the paper's 28 us intra-checkpoint bound
  // scaled to this 500 ms interval).
  EXPECT_NEAR(static_cast<double>(measured), 500.0 * kMillisecond, 30'000.0);
}

TEST(LocalCheckpointTest, BaselineCheckpointLeaksDowntimeIntoGuestTimer) {
  // Non-transparent baseline with no pre-copy: the whole dirty set (64 MB)
  // is stop-copied during the downtime (~160 ms), and a 10 ms sleeper whose
  // deadline falls inside the suspension wakes late by roughly the downtime.
  auto run = [](bool transparent) {
    Simulator sim;
    ExperimentNode node(&sim, Rng(1), LocalNodeConfig());
    CheckpointPolicy policy;
    policy.resume_timer_latency = 0;
    policy.live_precopy = false;
    policy.transparent_time = transparent;
    LocalCheckpointEngine engine(&sim, &node, policy);
    node.domain().TouchMemory(64 * 1024 * 1024);

    SimTime measured = -1;
    sim.Schedule(995 * kMillisecond, [&] {
      const SimTime start_virtual = node.kernel().GetTimeOfDay();
      node.kernel().Usleep(10 * kMillisecond, [&node, &measured, start_virtual] {
        measured = node.kernel().GetTimeOfDay() - start_virtual;
      });
    });
    SimTime downtime = 0;
    sim.Schedule(kSecond, [&] {
      engine.CheckpointNow(
          [&](const LocalCheckpointRecord& rec) { downtime = rec.downtime(); });
    });
    sim.RunUntil(30 * kSecond);
    EXPECT_GE(measured, 0);
    EXPECT_GT(downtime, 50 * kMillisecond);
    return std::pair<SimTime, SimTime>(measured, downtime);
  };

  const auto [transparent_measured, transparent_downtime] = run(true);
  const auto [baseline_measured, baseline_downtime] = run(false);
  // Transparent: the sleeper observes ~10 ms. Baseline: the downtime leaks.
  EXPECT_NEAR(static_cast<double>(transparent_measured), 10.0 * kMillisecond, 30'000.0);
  EXPECT_GT(baseline_measured, 10 * kMillisecond + baseline_downtime / 2);
  (void)transparent_downtime;
}

TEST(LocalCheckpointTest, NoInsideActivityRunsWhileSuspended) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(1), LocalNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, ExactPolicy());

  // Busy guest: timers, CPU work and disk I/O all active across the
  // checkpoint.
  std::function<void()> tick = [&] {
    node.kernel().Usleep(5 * kMillisecond, tick);
  };
  tick();
  std::function<void()> spin = [&] { node.kernel().RunCpu(10 * kMillisecond, spin); };
  spin();
  std::function<void(uint64_t)> io = [&](uint64_t block) {
    node.kernel().block().Write(block, {block}, [&io, block] { io(block + 1); });
  };
  io(1000);

  sim.Schedule(200 * kMillisecond, [&] { engine.CheckpointNow(nullptr); });
  sim.RunUntil(30 * kSecond);
  ASSERT_EQ(engine.history().size(), 1u);
  // The temporal firewall kept all inside classes out during the checkpoint.
  EXPECT_EQ(node.kernel().activities_run_while_engaged(ActivityClass::kUserThread), 0u);
  EXPECT_EQ(node.kernel().activities_run_while_engaged(ActivityClass::kTimer), 0u);
  EXPECT_EQ(node.kernel().activities_run_while_engaged(ActivityClass::kSoftIrq), 0u);
  EXPECT_EQ(node.kernel().activities_run_while_engaged(ActivityClass::kKernelThread), 0u);
}

TEST(LocalCheckpointTest, RunstateDoesNotAdvanceDuringCheckpoint) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(1), LocalNodeConfig());
  CheckpointPolicy policy = ExactPolicy();
  policy.live_precopy = false;  // deterministic, large downtime
  LocalCheckpointEngine engine(&sim, &node, policy);
  node.domain().TouchMemory(64 * 1024 * 1024);
  bool done = false;
  sim.Schedule(kSecond, [&] {
    engine.CheckpointNow([&](const LocalCheckpointRecord&) { done = true; });
  });
  sim.RunUntil(10 * kSecond);
  ASSERT_TRUE(done);
  const LocalCheckpointRecord& rec = engine.history().front();
  ASSERT_GT(rec.downtime(), 50 * kMillisecond);
  // The guest-visible running time excludes the concealed downtime.
  const RunstateCounters rs = node.domain().GuestVisibleRunstate();
  EXPECT_LE(rs.running, sim.Now() - rec.downtime() + kMillisecond);
  // Lower slack covers time stolen by Dom0 writeback (charged to runnable).
  EXPECT_GE(rs.running + rs.runnable, sim.Now() - rec.downtime() - kMillisecond);
}

TEST(LocalCheckpointTest, RepeatedCheckpointsAccumulateHistory) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(1), LocalNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, ExactPolicy());
  for (int i = 1; i <= 5; ++i) {
    sim.Schedule(i * 2 * kSecond, [&] {
      if (!engine.in_progress()) {
        engine.CheckpointNow(nullptr);
      }
    });
  }
  sim.RunUntil(30 * kSecond);
  EXPECT_EQ(engine.history().size(), 5u);
  for (const LocalCheckpointRecord& rec : engine.history()) {
    EXPECT_GT(rec.downtime(), 0);
  }
}

// --- Distributed checkpoint -------------------------------------------------------

struct TwoNodeFixture {
  TwoNodeFixture() : testbed(&sim, /*seed=*/42) {
    ExperimentSpec spec("iperf-pair");
    spec.AddNode("client");
    spec.AddNode("server");
    spec.AddLink("client", "server", 1'000'000'000, 50 * kMicrosecond);
    experiment = testbed.CreateExperiment(spec);
    bool in = false;
    experiment->SwapIn(/*golden_cached=*/true, [&] { in = true; });
    sim.RunUntil(sim.Now() + 30 * kSecond);
    EXPECT_TRUE(in);
  }

  Simulator sim;
  Testbed testbed;
  Experiment* experiment = nullptr;
};

TEST(DistributedCheckpointTest, ScheduledCheckpointBoundsSkewByClockError) {
  TwoNodeFixture f;
  bool done = false;
  DistributedCheckpointRecord record;
  f.experiment->coordinator().CheckpointScheduled(
      500 * kMillisecond, [&](const DistributedCheckpointRecord& rec) {
        record = rec;
        done = true;
      });
  f.sim.RunUntil(f.sim.Now() + 60 * kSecond);
  ASSERT_TRUE(done);
  // Two nodes + one delay node all checkpointed.
  EXPECT_EQ(record.locals.size(), 3u);
  // Suspension skew is bounded by residual NTP error (paper: ~200 us LAN).
  EXPECT_LT(record.SuspendSkew(), kMillisecond);
  EXPECT_GT(record.TotalImageBytes(), 0u);
}

TEST(DistributedCheckpointTest, ImmediateCheckpointCompletesWithJitterSkew) {
  TwoNodeFixture f;
  bool done = false;
  DistributedCheckpointRecord record;
  f.experiment->coordinator().CheckpointImmediate(
      [&](const DistributedCheckpointRecord& rec) {
        record = rec;
        done = true;
      });
  f.sim.RunUntil(f.sim.Now() + 60 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(record.locals.size(), 3u);
  EXPECT_GE(record.SuspendSkew(), 0);
}

TEST(DistributedCheckpointTest, IperfStreamSurvivesCheckpointWithoutRetransmissions) {
  TwoNodeFixture f;
  ExperimentNode* client = f.experiment->node("client");
  ExperimentNode* server = f.experiment->node("server");

  IperfApp::Params params;
  params.total_bytes = 40 * 1024 * 1024;
  IperfApp iperf(client, server, params);
  bool transfer_done = false;
  iperf.Start([&] { transfer_done = true; });

  // Checkpoint in the middle of the stream.
  bool ckpt_done = false;
  f.sim.Schedule(60 * kMillisecond, [&] {
    f.experiment->coordinator().CheckpointScheduled(
        100 * kMillisecond,
        [&](const DistributedCheckpointRecord&) { ckpt_done = true; });
  });
  f.sim.RunUntil(f.sim.Now() + 120 * kSecond);
  ASSERT_TRUE(ckpt_done);
  ASSERT_TRUE(transfer_done);
  EXPECT_EQ(iperf.bytes_delivered(), params.total_bytes);
  // The paper's key observation: no retransmissions, no duplicate ACKs, no
  // window changes across the checkpoint.
  EXPECT_EQ(iperf.sender_stats().retransmits, 0u);
  EXPECT_EQ(iperf.sender_stats().timeouts, 0u);
  EXPECT_EQ(iperf.sender_stats().dup_acks_received, 0u);
  // Pins the paper stack's event order through the delay node: every
  // delivery and transmission the pipes schedule, and each one's place among
  // same-instant events, across a suspend, an in-place image re-apply and a
  // resume.
  EXPECT_EQ(f.sim.Digest(), 0xa08e3c8373e865a9u);
}

TEST(DistributedCheckpointTest, DelayNodePipesFreezeAndResume) {
  TwoNodeFixture f;
  DelayNode* delay = f.experiment->delay_node(0);
  ASSERT_NE(delay, nullptr);
  bool done = false;
  f.experiment->coordinator().CheckpointScheduled(
      200 * kMillisecond, [&](const DistributedCheckpointRecord&) { done = true; });
  f.sim.RunUntil(f.sim.Now() + 30 * kSecond);
  ASSERT_TRUE(done);
  // Pipes resumed (not suspended) after the round.
  EXPECT_FALSE(delay->pipe_ab()->suspended());
  EXPECT_FALSE(delay->pipe_ba()->suspended());
}

TEST(DistributedCheckpointTest, ConsecutiveRoundsWork) {
  TwoNodeFixture f;
  int rounds_done = 0;
  std::function<void()> next_round = [&] {
    f.experiment->coordinator().CheckpointScheduled(
        200 * kMillisecond, [&](const DistributedCheckpointRecord&) {
          ++rounds_done;
          if (rounds_done < 3) {
            next_round();
          }
        });
  };
  next_round();
  f.sim.RunUntil(f.sim.Now() + 120 * kSecond);
  EXPECT_EQ(rounds_done, 3);
  EXPECT_EQ(f.experiment->coordinator().history().size(), 3u);
}

}  // namespace
}  // namespace tcsim
