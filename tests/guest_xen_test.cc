// Guest kernel + Xen model tests: virtual time, runstate accounting, dirty
// tracking, CPU scheduling under Dom0 interference, the temporal firewall's
// dispatch rules, and block-device quiesce.

#include <gtest/gtest.h>

#include <memory>

#include "src/guest/cpu_scheduler.h"
#include "src/guest/firewall.h"
#include "src/guest/node.h"
#include "src/sim/archive.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/xen/domain.h"
#include "src/xen/hypervisor.h"

namespace tcsim {
namespace {

NodeConfig SmallNodeConfig(const std::string& name, NodeId id) {
  NodeConfig cfg;
  cfg.name = name;
  cfg.id = id;
  cfg.domain.name = name;
  cfg.domain.memory_bytes = 64ull * 1024 * 1024;
  cfg.clock.initial_offset = 0;
  return cfg;
}

struct DomainFixture {
  DomainFixture() : clock(&sim, Rng(1), ClockParams{}), hv(&sim, &clock, "pc1") {
    domain = hv.CreateDomain(DomainConfig{});
  }
  Simulator sim;
  HardwareClock clock;
  Hypervisor hv;
  Domain* domain;
};

TEST(DomainTest, VirtualTimeStartsAtZeroAndTracksClock) {
  DomainFixture f;
  EXPECT_EQ(f.domain->VirtualNow(), 0);
  f.sim.RunUntil(10 * kSecond);
  EXPECT_NEAR(ToSeconds(f.domain->VirtualNow()), 10.0, 0.01);
}

TEST(DomainTest, FreezeStopsVirtualTime) {
  DomainFixture f;
  f.sim.RunUntil(kSecond);
  f.domain->FreezeTime();
  const SimTime frozen = f.domain->VirtualNow();
  f.sim.RunUntil(5 * kSecond);
  EXPECT_EQ(f.domain->VirtualNow(), frozen);
}

TEST(DomainTest, CompensatedUnfreezeIsContinuous) {
  DomainFixture f;
  f.sim.RunUntil(kSecond);
  f.domain->FreezeTime();
  const SimTime frozen = f.domain->VirtualNow();
  f.sim.RunUntil(4 * kSecond);  // 3 s of downtime
  f.domain->UnfreezeTime(/*compensate=*/true);
  EXPECT_NEAR(static_cast<double>(f.domain->VirtualNow() - frozen), 0.0, 1000.0);
  f.sim.RunUntil(5 * kSecond);
  EXPECT_NEAR(ToSeconds(f.domain->VirtualNow() - frozen), 1.0, 0.001);
}

TEST(DomainTest, UncompensatedUnfreezeLeaksDowntime) {
  DomainFixture f;
  f.sim.RunUntil(kSecond);
  f.domain->FreezeTime();
  const SimTime frozen = f.domain->VirtualNow();
  f.sim.RunUntil(4 * kSecond);
  f.domain->UnfreezeTime(/*compensate=*/false);
  // The guest sees the full 3 s downtime.
  EXPECT_NEAR(ToSeconds(f.domain->VirtualNow() - frozen), 3.0, 0.001);
}

TEST(DomainTest, RunstateFrozenDuringCheckpoint) {
  DomainFixture f;
  f.sim.RunUntil(kSecond);
  f.domain->SuspendRunstateAccounting();
  const RunstateCounters before = f.domain->GuestVisibleRunstate();
  f.sim.RunUntil(10 * kSecond);
  const RunstateCounters during = f.domain->GuestVisibleRunstate();
  EXPECT_EQ(before.running, during.running);
  f.domain->ResumeRunstateAccounting();
  f.sim.RunUntil(12 * kSecond);
  EXPECT_GT(f.domain->GuestVisibleRunstate().running, before.running);
}

TEST(DomainTest, StolenTimeConcealedWhileSuspended) {
  DomainFixture f;
  f.sim.RunUntil(kSecond);
  f.domain->SuspendRunstateAccounting();
  f.domain->ChargeStolenTime(500 * kMillisecond);
  const RunstateCounters rs = f.domain->GuestVisibleRunstate();
  EXPECT_EQ(rs.runnable, 0);
}

TEST(DomainTest, DirtyTrackingAccruesAndClears) {
  DomainFixture f;
  f.domain->TouchMemory(10 * 1024 * 1024);
  EXPECT_GE(f.domain->DirtyBytes(), 10u * 1024 * 1024);
  f.sim.RunUntil(5 * kSecond);
  // Background dirtying (2 MB/s default) adds ~10 MB.
  EXPECT_NEAR(static_cast<double>(f.domain->DirtyBytes()), 20.0 * 1024 * 1024,
              1.0 * 1024 * 1024);
  f.domain->ClearDirtyBytes(f.domain->DirtyBytes());
  EXPECT_EQ(f.domain->DirtyBytes(), 0u);
}

TEST(DomainTest, DirtyBytesCappedAtMemorySize) {
  DomainFixture f;
  f.domain->TouchMemory(100ull * 1024 * 1024 * 1024);
  EXPECT_EQ(f.domain->DirtyBytes(), f.domain->memory_bytes());
}

TEST(DomainTest, TimestampTransductionRoundTrips) {
  DomainFixture f;
  f.sim.RunUntil(kSecond);
  f.domain->FreezeTime();
  f.sim.RunUntil(3 * kSecond);
  f.domain->UnfreezeTime(true);
  const SimTime v = f.domain->VirtualNow();
  EXPECT_NEAR(static_cast<double>(f.domain->VirtualFromReal(f.domain->RealFromVirtual(v))),
              static_cast<double>(v), 1.0);
  // After a 2 s concealed suspension, real and virtual differ by ~2 s.
  EXPECT_NEAR(ToSeconds(f.domain->RealFromVirtual(v) - v), 2.0, 0.01);
}

TEST(CpuSchedulerTest, SingleJobRunsAtFullSpeed) {
  Simulator sim;
  CpuScheduler cpu(&sim);
  SimTime done_at = -1;
  cpu.Run(100 * kMillisecond, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(done_at), 100.0 * kMillisecond, 1000.0);
}

TEST(CpuSchedulerTest, TwoJobsShareTheCpu) {
  Simulator sim;
  CpuScheduler cpu(&sim);
  SimTime a_done = 0;
  SimTime b_done = 0;
  cpu.Run(100 * kMillisecond, [&] { a_done = sim.Now(); });
  cpu.Run(100 * kMillisecond, [&] { b_done = sim.Now(); });
  sim.Run();
  // Equal sharing: both finish around 200 ms.
  EXPECT_NEAR(ToSeconds(a_done), 0.2, 0.001);
  EXPECT_NEAR(ToSeconds(b_done), 0.2, 0.001);
}

TEST(CpuSchedulerTest, CapacityReductionStretchesJobs) {
  Simulator sim;
  CpuScheduler cpu(&sim);
  cpu.SetCapacity(0.5);
  SimTime done_at = 0;
  cpu.Run(100 * kMillisecond, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(ToSeconds(done_at), 0.2, 0.001);
}

TEST(CpuSchedulerTest, SuspendFreezesProgress) {
  Simulator sim;
  CpuScheduler cpu(&sim);
  SimTime done_at = 0;
  cpu.Run(100 * kMillisecond, [&] { done_at = sim.Now(); });
  sim.RunUntil(40 * kMillisecond);
  cpu.Suspend();
  sim.RunUntil(kSecond);
  EXPECT_EQ(done_at, 0);
  cpu.Resume();
  sim.Run();
  // 60 ms of work remained.
  EXPECT_NEAR(ToSeconds(done_at), 1.06, 0.001);
}

TEST(HypervisorTest, Dom0JobReducesGuestCapacity) {
  Simulator sim;
  HardwareClock clock(&sim, Rng(1), ClockParams{});
  Hypervisor hv(&sim, &clock, "pc1");
  hv.CreateDomain(DomainConfig{});
  std::vector<double> capacities;
  hv.SetCapacityListener([&](double c) { capacities.push_back(c); });
  EXPECT_DOUBLE_EQ(hv.GuestCpuCapacity(), 1.0);
  hv.RunDom0Job("ls", 0.4, 20 * kMillisecond);
  EXPECT_DOUBLE_EQ(hv.GuestCpuCapacity(), 0.6);
  sim.Run();
  EXPECT_DOUBLE_EQ(hv.GuestCpuCapacity(), 1.0);
  ASSERT_EQ(capacities.size(), 2u);
  EXPECT_DOUBLE_EQ(capacities[0], 0.6);
  EXPECT_DOUBLE_EQ(capacities[1], 1.0);
}

TEST(FirewallTest, ClassPartitionMatchesPaper) {
  EXPECT_FALSE(RunsOutsideFirewall(ActivityClass::kUserThread));
  EXPECT_FALSE(RunsOutsideFirewall(ActivityClass::kKernelThread));
  EXPECT_FALSE(RunsOutsideFirewall(ActivityClass::kIrq));
  EXPECT_FALSE(RunsOutsideFirewall(ActivityClass::kSoftIrq));
  EXPECT_FALSE(RunsOutsideFirewall(ActivityClass::kWorkqueue));
  EXPECT_FALSE(RunsOutsideFirewall(ActivityClass::kTimer));
  EXPECT_TRUE(RunsOutsideFirewall(ActivityClass::kSuspendThread));
  EXPECT_TRUE(RunsOutsideFirewall(ActivityClass::kXenBus));
  EXPECT_TRUE(RunsOutsideFirewall(ActivityClass::kBlockIrqDrain));
  EXPECT_TRUE(RunsOutsideFirewall(ActivityClass::kPageFault));
}

TEST(FirewallTest, EngagedFirewallDefersInsideAndAdmitsOutside) {
  TemporalFirewall fw;
  EXPECT_TRUE(fw.MayRun(ActivityClass::kUserThread));
  fw.Engage();
  EXPECT_FALSE(fw.MayRun(ActivityClass::kUserThread));
  EXPECT_FALSE(fw.MayRun(ActivityClass::kSoftIrq));
  EXPECT_TRUE(fw.MayRun(ActivityClass::kXenBus));
  EXPECT_TRUE(fw.MayRun(ActivityClass::kBlockIrqDrain));
  EXPECT_EQ(fw.deferred_count(), 2u);
  fw.Disengage();
  EXPECT_TRUE(fw.MayRun(ActivityClass::kUserThread));
}

TEST(GuestKernelTest, UsleepFiresAfterVirtualDelay) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(2), SmallNodeConfig("pc1", 1));
  SimTime woke_virtual = -1;
  node.kernel().Usleep(10 * kMillisecond,
                       [&] { woke_virtual = node.kernel().GetTimeOfDay(); });
  sim.RunUntil(kSecond);
  EXPECT_NEAR(static_cast<double>(woke_virtual), 10.0 * kMillisecond, 2000.0);
}

// Cancel reaches the kernel: the timer leaves at once with its simulator
// event, so neither the event queue nor the checkpoint accounting carries a
// dead timer to its deadline, and a later resume cannot re-arm it. Cancels
// of a timer the kernel no longer holds (fired, dropped by a restore, or
// outliving the kernel) only set the handle's flag.
TEST(GuestKernelTest, TimerHandleCancelWorks) {
  Simulator sim;
  auto node = std::make_unique<ExperimentNode>(&sim, Rng(2), SmallNodeConfig("pc1", 1));
  GuestKernel& kernel = node->kernel();
  const size_t idle_events = sim.pending_events();
  const uint64_t idle_bytes = kernel.StateSizeBytes();
  int fired = 0;

  TimerHandle handle = kernel.Usleep(10 * kMillisecond, [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  EXPECT_EQ(sim.pending_events(), idle_events + 1);
  EXPECT_GT(kernel.StateSizeBytes(), idle_bytes);
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(sim.pending_events(), idle_events);
  EXPECT_EQ(kernel.StateSizeBytes(), idle_bytes);
  handle.Cancel();  // twice: no-op
  EXPECT_EQ(sim.pending_events(), idle_events);

  // Cancelled while suspended: the resume pass has nothing to re-arm.
  TimerHandle frozen = kernel.Usleep(10 * kMillisecond, [&] { ++fired; });
  kernel.StopInsideActivities();
  frozen.Cancel();
  EXPECT_EQ(kernel.StateSizeBytes(), idle_bytes);
  kernel.ResumeInsideActivities();
  EXPECT_EQ(sim.pending_events(), idle_events);
  sim.RunUntil(kSecond);
  EXPECT_EQ(fired, 0);

  // After the timer fired: no-op.
  TimerHandle done = kernel.Usleep(10 * kMillisecond, [&] { ++fired; });
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, 1);
  const size_t events_after_fire = sim.pending_events();
  done.Cancel();
  EXPECT_EQ(sim.pending_events(), events_after_fire);

  // After RestoreState dropped the timer: no-op. The restore also rewinds
  // the timer ids, so the next timer reuses the dropped one's id; the stale
  // handle must not cancel it.
  ArchiveWriter saved;
  kernel.SaveState(&saved);
  TimerHandle dropped = kernel.Usleep(10 * kMillisecond, [&] { ++fired; });
  ArchiveReader reader(saved.data());
  kernel.RestoreState(reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(kernel.StateSizeBytes(), idle_bytes);
  TimerHandle successor = kernel.Usleep(10 * kMillisecond, [&] { fired += 10; });
  dropped.Cancel();
  EXPECT_TRUE(successor.pending());
  sim.RunUntil(3 * kSecond);
  EXPECT_EQ(fired, 11);

  // A handle that outlives its kernel: no-op (ASan catches a dangling host).
  TimerHandle orphan = kernel.Usleep(10 * kMillisecond, [&] { ++fired; });
  node.reset();
  orphan.Cancel();
  EXPECT_FALSE(orphan.pending());
}

TEST(GuestKernelTest, DeferredDispatchRunsAfterResume) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(2), SmallNodeConfig("pc1", 1));
  node.kernel().StopInsideActivities();
  bool ran = false;
  node.kernel().Dispatch(ActivityClass::kUserThread, [&] { ran = true; });
  EXPECT_FALSE(ran);
  node.kernel().ResumeInsideActivities();
  EXPECT_TRUE(ran);
}

TEST(GuestKernelTest, OutsideActivityRunsDuringSuspension) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(2), SmallNodeConfig("pc1", 1));
  node.kernel().StopInsideActivities();
  bool ran = false;
  node.kernel().Dispatch(ActivityClass::kXenBus, [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(node.kernel().activities_run_while_engaged(ActivityClass::kXenBus), 1u);
  node.kernel().ResumeInsideActivities();
}

TEST(BlockFrontendTest, QuiesceWaitsForInFlightRequests) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(2), SmallNodeConfig("pc1", 1));
  BlockFrontend& dev = node.kernel().block();
  bool io_done = false;
  dev.Write(1000, std::vector<uint64_t>(256, 1), [&] { io_done = true; });
  EXPECT_EQ(dev.in_flight(), 1u);
  bool drained = false;
  dev.Quiesce([&] { drained = true; });
  EXPECT_FALSE(drained);
  sim.RunUntil(10 * kSecond);
  EXPECT_TRUE(drained);
  EXPECT_TRUE(io_done);
  EXPECT_TRUE(dev.quiesced());
  dev.Unquiesce();
  EXPECT_FALSE(dev.quiesced());
}

TEST(BlockFrontendTest, CompletionDeferredUnderFirewall) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(2), SmallNodeConfig("pc1", 1));
  BlockFrontend& dev = node.kernel().block();
  bool app_saw_completion = false;
  dev.Write(1000, {1, 2, 3}, [&] { app_saw_completion = true; });
  node.kernel().StopInsideActivities();
  bool drained = false;
  dev.Quiesce([&] { drained = true; });
  sim.RunUntil(10 * kSecond);
  // The IRQ drained the request, but the app-level callback waited.
  EXPECT_TRUE(drained);
  EXPECT_FALSE(app_saw_completion);
  EXPECT_GT(node.kernel().activities_run_while_engaged(ActivityClass::kBlockIrqDrain), 0u);
  node.kernel().ResumeInsideActivities();
  dev.Unquiesce();
  EXPECT_TRUE(app_saw_completion);
}

}  // namespace
}  // namespace tcsim
