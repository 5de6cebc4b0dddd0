// The validation subsystem itself: the event-dispatch digest (deterministic
// replay), the invariant registry and the standard audit shapes, plus
// regression tests for the coordinator barrier, NTP slew retirement and the
// checkpoint-engine callback lifecycle. Every audit shape is proven to FIRE
// on a deliberately broken setup — an audit that cannot fail verifies
// nothing.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/coordinator.h"
#include "src/checkpoint/local_checkpoint.h"
#include "src/checkpoint/notification_bus.h"
#include "src/clock/hardware_clock.h"
#include "src/emulab/experiment.h"
#include "src/emulab/experiment_spec.h"
#include "src/emulab/testbed.h"
#include "src/guest/node.h"
#include "src/net/lan.h"
#include "src/net/stack.h"
#include "src/net/timer_host.h"
#include "src/sim/digest.h"
#include "src/sim/invariants.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

// --- Digest primitives ---------------------------------------------------------

TEST(DigestTest, MatchesKnownFnv1aVectors) {
  Fnv1aDigest d;
  EXPECT_EQ(d.value(), 14695981039346656037ull);  // offset basis = empty input
  d.MixBytes("a", 1);
  EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cull);
  d.Reset();
  EXPECT_EQ(d.value(), 14695981039346656037ull);
}

TEST(DigestTest, OrderSensitive) {
  Fnv1aDigest ab;
  ab.Mix(1);
  ab.Mix(2);
  Fnv1aDigest ba;
  ba.Mix(2);
  ba.Mix(1);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(DigestTest, SimulatorDigestAdvancesWithDispatches) {
  Simulator sim;
  const uint64_t before = sim.Digest();
  sim.Schedule(kMillisecond, [] {});
  sim.Run();
  EXPECT_NE(sim.Digest(), before);
}

// Two-node distributed checkpoint scenario; returns the final event digest.
uint64_t RunCheckpointScenario(uint64_t seed) {
  Simulator sim;
  Testbed testbed(&sim, seed);
  ExperimentSpec spec("pair");
  spec.AddNode("a");
  spec.AddNode("b");
  spec.AddLink("a", "b", 100'000'000, kMillisecond);
  Experiment* experiment = testbed.CreateExperiment(spec);
  experiment->SwapIn(true, nullptr);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  bool done = false;
  experiment->coordinator().CheckpointScheduled(
      200 * kMillisecond, [&](const DistributedCheckpointRecord&) { done = true; });
  sim.RunUntil(sim.Now() + 30 * kSecond);
  EXPECT_TRUE(done);
  return sim.Digest();
}

TEST(DigestTest, CheckpointScenarioIsDeterministic) {
  const uint64_t first = RunCheckpointScenario(11);
  const uint64_t second = RunCheckpointScenario(11);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 14695981039346656037ull);  // something actually ran
}

TEST(DigestTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunCheckpointScenario(11), RunCheckpointScenario(12));
}

// --- Registry mechanics --------------------------------------------------------

TEST(InvariantRegistryTest, CollectsFailuresWithSimTime) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  reg.Register("always-bad", [](AuditReport& r) { r.Fail("broken"); });
  sim.Schedule(3 * kMillisecond, [&] { reg.AuditNow(); });
  sim.Run();
  ASSERT_EQ(reg.violations().size(), 1u);
  EXPECT_EQ(reg.violations()[0].invariant, "always-bad");
  EXPECT_EQ(reg.violations()[0].time, 3 * kMillisecond);
  EXPECT_EQ(reg.violations()[0].detail, "broken");
  EXPECT_FALSE(reg.ok());
}

TEST(InvariantRegistryTest, PeriodicAuditDoesNotKeepSimulationAlive) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  reg.Register("noop", [](AuditReport&) {});
  reg.StartPeriodic(10 * kMillisecond);
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<SimTime>(i) * 20 * kMillisecond, [] {});
  }
  sim.Run();  // must terminate: the periodic event re-arms only while other
              // events are pending
  EXPECT_LE(sim.Now(), 220 * kMillisecond);
  EXPECT_GT(reg.passes_run(), 5u);
  const uint64_t passes = reg.passes_run();
  reg.FinishRun();  // end-of-run pass still works after the periodic stopped
  EXPECT_EQ(reg.passes_run(), passes + 1);
}

TEST(InvariantRegistryTest, ReportViolationRecordsEventDriven) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  reg.ReportViolation("checkpoint.barrier", "duplicate kDone");
  ASSERT_EQ(reg.violations().size(), 1u);
  EXPECT_FALSE(reg.ok());
}

// --- Each standard audit shape fires on a broken setup -------------------------

TEST(AuditShapesTest, ConservationAuditFiresOnLeak) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  auto counts = std::make_shared<ConservationCounts>();
  RegisterConservationAudit(&reg, "net.conservation.test",
                            [counts] { return *counts; });
  counts->sent = 10;
  counts->delivered = 9;  // one packet vanished
  reg.AuditNow();
  ASSERT_EQ(reg.violations().size(), 1u);
  EXPECT_EQ(reg.violations()[0].invariant, "net.conservation.test");
}

TEST(AuditShapesTest, ConservationAuditPassesWhenBalanced) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  RegisterConservationAudit(&reg, "net.conservation.test", [] {
    return ConservationCounts{10, 6, 1, 3};
  });
  reg.AuditNow();
  EXPECT_TRUE(reg.ok());
}

TEST(AuditShapesTest, MonotonicAuditFiresOnBackwardsRead) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  auto value = std::make_shared<SimTime>(100);
  RegisterMonotonicAudit(&reg, "clock.monotonic.test", [value] { return *value; });
  reg.AuditNow();
  *value = 50;  // the clock stepped backwards
  reg.AuditNow();
  ASSERT_EQ(reg.violations().size(), 1u);
  EXPECT_EQ(reg.violations()[0].invariant, "clock.monotonic.test");
  *value = 60;  // forward again: no new violation
  reg.AuditNow();
  EXPECT_EQ(reg.violations().size(), 1u);
}

TEST(AuditShapesTest, FrozenAuditFiresWhenCounterMovesWhileFrozen) {
  Simulator sim;
  InvariantRegistry reg(&sim);
  auto frozen = std::make_shared<bool>(false);
  auto counter = std::make_shared<uint64_t>(0);
  RegisterFrozenAudit(&reg, "guest.quiescent.test", [frozen] { return *frozen; },
                      [counter] { return *counter; });
  // Running: counter may move freely.
  reg.AuditNow();
  *counter = 5;
  reg.AuditNow();
  EXPECT_TRUE(reg.ok());
  // Frozen across two consecutive passes with a moving counter: violation.
  *frozen = true;
  reg.AuditNow();
  *counter = 9;
  reg.AuditNow();
  ASSERT_EQ(reg.violations().size(), 1u);
  EXPECT_EQ(reg.violations()[0].invariant, "guest.quiescent.test");
  // Thawed again: movement is fine.
  *frozen = false;
  reg.AuditNow();
  *counter = 12;
  reg.AuditNow();
  EXPECT_EQ(reg.violations().size(), 1u);
}

// End-to-end: a pathological NTP gain makes a real HardwareClock slew so hard
// its local time runs backwards, and the registered monotonicity audit
// catches it.
TEST(AuditShapesTest, MonotonicAuditCatchesAbsurdNtpGain) {
  Simulator sim;
  ClockParams params;
  params.drift_ppm = 0.0;
  params.initial_offset = 10 * kMillisecond;
  params.ntp_jitter = 0;
  params.ntp_poll_interval = kSecond;
  params.ntp_gain = 1000.0;  // slew rate ~ -10: local time slope goes negative
  HardwareClock clock(&sim, Rng(1), params);
  clock.StartNtp();
  InvariantRegistry reg(&sim);
  clock.RegisterInvariants(&reg, "clock.monotonic.broken");
  reg.StartPeriodic(100 * kMillisecond);
  sim.RunUntil(5 * kSecond);
  reg.FinishRun();
  EXPECT_FALSE(reg.ok());
  EXPECT_EQ(reg.violations()[0].invariant, "clock.monotonic.broken");
}

// --- Barrier record audits -----------------------------------------------------

LocalCheckpointRecord MakeLocal(const std::string& name, SimTime suspended_at) {
  LocalCheckpointRecord rec;
  rec.participant = name;
  rec.suspended_at = suspended_at;
  rec.saved_at = suspended_at + kMillisecond;
  rec.resumed_at = suspended_at + 2 * kMillisecond;
  return rec;
}

TEST(BarrierAuditTest, FlagsMissingParticipants) {
  DistributedCheckpointRecord rec;
  rec.expected_participants = 3;
  rec.locals.push_back(MakeLocal("a", kSecond));
  rec.locals.push_back(MakeLocal("b", kSecond));
  const auto violations = AuditCheckpointRecord(rec, 0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("expected 3"), std::string::npos);
}

TEST(BarrierAuditTest, FlagsDuplicateParticipant) {
  DistributedCheckpointRecord rec;
  rec.expected_participants = 2;
  rec.locals.push_back(MakeLocal("a", kSecond));
  rec.locals.push_back(MakeLocal("a", kSecond + kMicrosecond));
  const auto violations = AuditCheckpointRecord(rec, 0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("counted twice"), std::string::npos);
}

TEST(BarrierAuditTest, FlagsExcessiveScheduledSkew) {
  DistributedCheckpointRecord rec;
  rec.expected_participants = 2;
  rec.scheduled_local_time = kSecond;
  rec.locals.push_back(MakeLocal("a", kSecond));
  rec.locals.push_back(MakeLocal("b", kSecond + 10 * kMillisecond));
  EXPECT_EQ(AuditCheckpointRecord(rec, 0).size(), 0u);  // bound disabled
  const auto violations = AuditCheckpointRecord(rec, 2 * kMillisecond);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("skew"), std::string::npos);
}

TEST(BarrierAuditTest, CleanRecordPasses) {
  DistributedCheckpointRecord rec;
  rec.expected_participants = 2;
  rec.scheduled_local_time = kSecond;
  rec.locals.push_back(MakeLocal("a", kSecond));
  rec.locals.push_back(MakeLocal("b", kSecond + 100 * kMicrosecond));
  EXPECT_EQ(AuditCheckpointRecord(rec, 2 * kMillisecond).size(), 0u);
}

// --- Coordinator regressions ---------------------------------------------------

// A minimal scriptable participant: saves after the scheduled instant and
// reports done `done_count` times (a confused daemon retransmits with 2).
class FakeParticipant : public CheckpointParticipant {
 public:
  FakeParticipant(Simulator* sim, std::string name, Rng rng, int done_count = 1)
      : sim_(sim), name_(std::move(name)), clock_(sim, rng, ClockParams{}),
        done_count_(done_count) {}

  const std::string& name() const override { return name_; }
  HardwareClock& clock() override { return clock_; }

  void CheckpointAtLocal(SimTime local_time,
                         std::function<void(const LocalCheckpointRecord&)> saved) override {
    clock_.ScheduleAtLocal(local_time, [this, saved = std::move(saved)] {
      LocalCheckpointRecord rec;
      rec.participant = name_;
      rec.suspended_at = sim_->Now();
      rec.saved_at = sim_->Now();
      rec.resumed_at = sim_->Now();
      for (int i = 0; i < done_count_; ++i) {
        saved(rec);
      }
    });
  }

  void ResumeAtLocal(SimTime) override {}

 private:
  Simulator* sim_;
  std::string name_;
  HardwareClock clock_;
  int done_count_;
};

// Boss stack + bus + coordinator on a control LAN, with scriptable daemons.
struct CoordinatorFixture {
  CoordinatorFixture()
      : timers(&sim),
        rng(4),
        lan(&sim, rng.Fork(), 100'000'000, 100 * kMicrosecond),
        boss(&sim, &timers, 1000),
        boss_clock(&sim, Rng(5), ClockParams{}) {
    lan.Attach(boss.AddNic());
    bus = std::make_unique<NotificationBus>(&boss);
    coordinator = std::make_unique<DistributedCoordinator>(&sim, bus.get(), &boss_clock);
  }

  FakeParticipant* AddParticipant(const std::string& name, int done_count = 1) {
    auto stack = std::make_unique<NetworkStack>(
        &sim, &timers, static_cast<NodeId>(2000 + stacks.size()));
    lan.Attach(stack->AddNic());
    auto participant =
        std::make_unique<FakeParticipant>(&sim, name, rng.Fork(), done_count);
    daemons.push_back(std::make_unique<CheckpointDaemon>(stack.get(), boss.addr(),
                                                         participant.get()));
    bus->Subscribe(stack->addr());
    stacks.push_back(std::move(stack));
    participants.push_back(std::move(participant));
    return participants.back().get();
  }

  DistributedCheckpointRecord RunRound() {
    DistributedCheckpointRecord out;
    bool done = false;
    coordinator->CheckpointScheduled(200 * kMillisecond,
                                     [&](const DistributedCheckpointRecord& rec) {
                                       out = rec;
                                       done = true;
                                     });
    sim.RunUntil(sim.Now() + 10 * kSecond);
    EXPECT_TRUE(done);
    return out;
  }

  Simulator sim;
  PhysicalTimerHost timers;
  Rng rng;
  Lan lan;
  NetworkStack boss;
  HardwareClock boss_clock;
  std::unique_ptr<NotificationBus> bus;
  std::unique_ptr<DistributedCoordinator> coordinator;
  std::vector<std::unique_ptr<NetworkStack>> stacks;
  std::vector<std::unique_ptr<FakeParticipant>> participants;
  std::vector<std::unique_ptr<CheckpointDaemon>> daemons;
};

// Regression: the barrier must size itself from the subscriber set at round
// start, not at coordinator construction. A participant subscribing between
// rounds previously let the barrier complete with the old, smaller count
// while the newcomer was still saving.
TEST(CoordinatorTest, BarrierCountsSubscribersJoinedAfterConstruction) {
  CoordinatorFixture f;
  f.AddParticipant("a");
  f.AddParticipant("b");
  const DistributedCheckpointRecord first = f.RunRound();
  EXPECT_EQ(first.expected_participants, 2u);
  EXPECT_EQ(first.locals.size(), 2u);

  f.AddParticipant("c");  // joins between rounds
  const DistributedCheckpointRecord second = f.RunRound();
  EXPECT_EQ(second.expected_participants, 3u);
  EXPECT_EQ(second.locals.size(), 3u);
}

// Regression: a duplicate kDone (retransmission, confused daemon) must not
// count toward the barrier — previously it completed the round while a
// participant was still saving. It is deduped, counted, and audited.
TEST(CoordinatorTest, DuplicateDoneIsDedupedAndAudited) {
  CoordinatorFixture f;
  InvariantRegistry reg(&f.sim);
  f.coordinator->RegisterInvariants(&reg, /*scheduled_skew_bound=*/0);
  f.AddParticipant("a", /*done_count=*/2);  // reports done twice
  f.AddParticipant("b");
  const DistributedCheckpointRecord rec = f.RunRound();
  ASSERT_EQ(rec.locals.size(), 2u);  // a counted once, b counted once
  EXPECT_NE(rec.locals[0].participant, rec.locals[1].participant);
  EXPECT_EQ(f.coordinator->duplicate_done_count(), 1u);
  ASSERT_FALSE(reg.ok());
  EXPECT_EQ(reg.violations()[0].invariant, "checkpoint.barrier");
  EXPECT_NE(reg.violations()[0].detail.find("duplicate kDone"), std::string::npos);
  EXPECT_NE(reg.violations()[0].detail.find("a"), std::string::npos);
}

// --- HardwareClock::StopNtp regression -----------------------------------------

// Stopping the discipline loop must retire the in-flight slew. Previously the
// temporary rate correction kept being applied forever, so a drift-free clock
// kept slewing away after StopNtp (e.g. across a stateful swap-out).
TEST(ClockTest, StopNtpRetiresTheSlew) {
  Simulator sim;
  ClockParams params;
  params.drift_ppm = 0.0;  // perfect oscillator: only the slew can move error
  params.initial_offset = 5 * kMillisecond;
  params.ntp_jitter = 0;
  params.ntp_poll_interval = kSecond;
  params.ntp_gain = 0.5;
  HardwareClock clock(&sim, Rng(1), params);
  clock.StartNtp();
  sim.RunUntil(1500 * kMillisecond);  // one poll in: a slew is in flight
  const SimTime error_before_stop = clock.CurrentError();
  EXPECT_NE(error_before_stop, params.initial_offset);  // slew was acting
  clock.StopNtp();
  const SimTime error_at_stop = clock.CurrentError();
  sim.Schedule(60 * kSecond, [] {});
  sim.Run();
  // Drift-free and slew retired: the error must be exactly frozen.
  EXPECT_EQ(clock.CurrentError(), error_at_stop);
}

// --- LocalCheckpointEngine callback lifecycle -----------------------------------

// Regression: the engine must release its saved-state callback once invoked.
// A stale callback kept alive everything it captured and could be re-fired
// into a dead frame by a later misuse of the engine.
TEST(EngineTest, CheckpointNowReleasesCallbackAfterInvocation) {
  Simulator sim;
  NodeConfig cfg;
  cfg.name = "pc1";
  cfg.id = 1;
  ExperimentNode node(&sim, Rng(3), cfg);
  LocalCheckpointEngine engine(&sim, &node, CheckpointPolicy{});
  sim.RunUntil(kSecond);

  auto sentinel = std::make_shared<int>(42);
  bool done = false;
  engine.CheckpointNow([sentinel, &done](const LocalCheckpointRecord&) { done = true; });
  EXPECT_GT(sentinel.use_count(), 1);
  sim.RunUntil(sim.Now() + 30 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(sentinel.use_count(), 1);  // engine dropped its copy
}

TEST(EngineTest, HeldCheckpointReleasesCallbackWhenSaved) {
  Simulator sim;
  NodeConfig cfg;
  cfg.name = "pc1";
  cfg.id = 1;
  ExperimentNode node(&sim, Rng(3), cfg);
  LocalCheckpointEngine engine(&sim, &node, CheckpointPolicy{});
  sim.RunUntil(kSecond);

  auto sentinel = std::make_shared<int>(42);
  bool saved = false;
  engine.CheckpointAtLocal(node.clock().LocalNow() + 100 * kMillisecond,
                           [sentinel, &saved](const LocalCheckpointRecord&) {
                             saved = true;
                           });
  sim.RunUntil(sim.Now() + 30 * kSecond);
  ASSERT_TRUE(saved);
  EXPECT_EQ(sentinel.use_count(), 1);  // released at save, before the hold ends
  engine.ResumeNow();
  sim.RunUntil(sim.Now() + kSecond);
  EXPECT_FALSE(engine.in_progress());
}

// --- Full-scenario audit pass ---------------------------------------------------

// The deployed configuration must satisfy every registered audit across a
// distributed checkpoint: conservation on every NIC and pipe, monotone
// clocks, quiescent suspended guests, sane barriers.
TEST(FullScenarioTest, AllAuditsPassAcrossDistributedCheckpoints) {
  Simulator sim;
  Testbed testbed(&sim, 9);
  ExperimentSpec spec("mesh");
  spec.AddNode("n0");
  spec.AddNode("n1");
  spec.AddNode("n2");
  spec.AddLink("n0", "n1", 100'000'000, kMillisecond);
  spec.AddLink("n1", "n2", 100'000'000, kMillisecond);
  Experiment* experiment = testbed.CreateExperiment(spec);
  experiment->SwapIn(true, nullptr);
  sim.RunUntil(sim.Now() + 30 * kSecond);

  InvariantRegistry reg(&sim);
  experiment->RegisterInvariants(&reg);
  EXPECT_GT(reg.audit_count(), 10u);  // 3 nodes + 2 delay nodes + coordinator
  reg.StartPeriodic(100 * kMillisecond);

  ExperimentNode* node = experiment->node("n0");
  uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    node->kernel().Usleep(20 * kMillisecond, tick);
  };
  tick();

  int rounds = 0;
  std::function<void()> periodic = [&] {
    if (rounds >= 3) {
      return;
    }
    experiment->coordinator().CheckpointScheduled(
        200 * kMillisecond, [&](const DistributedCheckpointRecord&) {
          ++rounds;
          sim.Schedule(500 * kMillisecond, periodic);
        });
  };
  sim.Schedule(kSecond, periodic);

  sim.RunUntil(sim.Now() + 60 * kSecond);
  EXPECT_EQ(rounds, 3);
  reg.FinishRun();
  EXPECT_TRUE(reg.ok()) << reg.Summary();
  EXPECT_GT(reg.passes_run(), 100u);
}

}  // namespace
}  // namespace tcsim
