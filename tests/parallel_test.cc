// The partitioned kernel's digest-oracle contract: a parallel run (worker
// pool, conservative lookahead windows) must produce the same per-partition
// digest set — and therefore the same deterministic merge — as the sequential
// oracle, which is the workers == 0 execution of the identical partitioned
// configuration. Also covers the queue ownership guard, stale-handle
// confinement across partitions, and the epoch barrier's capture digests.
//
// This file carries the "parallel" ctest label and is the target of the TSan
// preset (cmake --preset tsan): every assertion here must hold under
// -fsanitize=thread as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/checkpoint/epoch_coordinator.h"
#include "src/net/boundary.h"
#include "src/net/packet.h"
#include "src/net/topology.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/digest.h"
#include "src/sim/event_queue.h"
#include "src/sim/partition.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/timetravel/basic_run.h"

namespace tcsim {
namespace {

// --- Scheduler window machinery ------------------------------------------------

// Two partitions exchanging a one-packet "ping-pong" through a partition
// boundary's streams at a fixed cross latency, with an unrelated local tick
// chain in each partition so windows carry both local and remote work.
struct PingPongFixture {
  struct Bouncer : PacketHandler {
    Simulator* sim = nullptr;
    PartitionBoundary* boundary = nullptr;
    uint32_t stream = 0;  // toward the peer
    SimTime latency = 0;
    SimTime stop = 0;
    uint64_t hops = 0;

    void HandlePacket(const Packet&) override { Arrive(); }

    void Arrive() {
      ++hops;
      if (sim->Now() + latency > stop) {
        return;
      }
      boundary->Emit(stream, Packet{}, sim->Now() + latency);
    }
  };

  struct Result {
    uint64_t merged_digest = 0;
    uint64_t hops0 = 0;
    uint64_t hops1 = 0;
    uint64_t ticks = 0;
    uint64_t windows = 0;
    uint64_t cross_events = 0;
    uint64_t guard_violations = 0;
  };

  static Result Run(uint32_t workers) {
    constexpr SimTime kLatency = kMillisecond;
    constexpr SimTime kStop = 20 * kMillisecond;
    Simulator s0, s1;
    PartitionScheduler sched(PartitionScheduler::Options{workers});
    sched.AddPartition(&s0);
    sched.AddPartition(&s1);
    sched.RegisterCrossLatency(kLatency);
    PartitionBoundary boundary({&s0, &s1});
    sched.SetBoundary([&boundary](SimTime bound) { return boundary.Step(bound); });

    Bouncer b0, b1;
    b0.sim = &s0;
    b1.sim = &s1;
    for (Bouncer* b : {&b0, &b1}) {
      b->boundary = &boundary;
      b->latency = kLatency;
      b->stop = kStop;
    }
    b0.stream = boundary.AddStream(0, 1, &b1);
    b1.stream = boundary.AddStream(1, 0, &b0);
    s0.ScheduleAt(0, [&b0] { b0.Arrive(); });

    // Local-only tick chains, denser than the cross latency, so most windows
    // mix purely local events with the bounce. One Ticker per partition — its
    // state is only ever touched by the thread running that partition.
    struct Ticker {
      Simulator* sim;
      SimTime stop;
      uint64_t count = 0;
      void Tick() {
        ++count;
        if (sim->Now() + 300 * kMicrosecond <= stop) {
          sim->Schedule(300 * kMicrosecond, [this] { Tick(); });
        }
      }
    };
    Ticker t0{&s0, kStop};
    Ticker t1{&s1, kStop};
    s0.Schedule(100 * kMicrosecond, [&t0] { t0.Tick(); });
    s1.Schedule(150 * kMicrosecond, [&t1] { t1.Tick(); });

    sched.RunUntil(kStop + kMillisecond);
    Result r;
    r.merged_digest = sched.MergedDigest();
    r.hops0 = b0.hops;
    r.hops1 = b1.hops;
    r.ticks = t0.count + t1.count;
    r.windows = sched.stats().windows;
    r.cross_events = sched.stats().cross_events;
    r.guard_violations = sched.GuardViolations();
    return r;
  }
};

TEST(PartitionSchedulerTest, ParallelPingPongMatchesSequentialOracle) {
  const auto oracle = PingPongFixture::Run(/*workers=*/0);
  const auto parallel = PingPongFixture::Run(/*workers=*/1);

  EXPECT_EQ(oracle.merged_digest, parallel.merged_digest);
  EXPECT_EQ(oracle.hops0, parallel.hops0);
  EXPECT_EQ(oracle.hops1, parallel.hops1);
  EXPECT_EQ(oracle.ticks, parallel.ticks);
  EXPECT_EQ(oracle.windows, parallel.windows);
  EXPECT_EQ(oracle.cross_events, parallel.cross_events);
  EXPECT_EQ(oracle.guard_violations, 0u);
  EXPECT_EQ(parallel.guard_violations, 0u);

  // The bounce actually crossed partitions, and lookahead actually bounded
  // the windows (a free-run would do it in one).
  EXPECT_GT(oracle.hops0 + oracle.hops1, 10u);
  EXPECT_GT(oracle.windows, 5u);
  EXPECT_EQ(oracle.cross_events + 1, oracle.hops0 + oracle.hops1);
}

TEST(PartitionSchedulerTest, RunUntilQuiescesEveryPartitionClock) {
  const auto run_to = [](SimTime t) {
    Simulator s0, s1;
    PartitionScheduler sched;
    sched.AddPartition(&s0);
    sched.AddPartition(&s1);
    sched.RegisterCrossLatency(kMillisecond);
    s0.Schedule(3 * kMillisecond, [] {});
    sched.RunUntil(t);
    EXPECT_EQ(s0.Now(), t);
    EXPECT_EQ(s1.Now(), t);
    EXPECT_GT(s0.NextEventTime(), t);
    EXPECT_GT(s1.NextEventTime(), t);
  };
  run_to(7 * kMillisecond);       // past the only event
  run_to(kMillisecond);           // before it
}

// Independent experiment runs as partitions: with no cross links the
// lookahead is unbounded and each partition free-runs, but the digest
// contract is the same — parallel merge == sequential oracle merge.
struct RunsResult {
  uint64_t merged = 0;
  uint64_t counter = 0;
  uint64_t iterations = 0;
};

RunsResult RunExperimentPartitions(uint32_t workers) {
  BasicExperimentRun basic{BasicExperimentRun::Params{}};
  CpuExperimentRun cpu{CpuExperimentRun::Params{}};
  PartitionScheduler sched(PartitionScheduler::Options{workers});
  sched.AddPartition(&basic.sim());
  sched.AddPartition(&cpu.sim());
  sched.RunUntil(kSecond);
  EXPECT_EQ(sched.GuardViolations(), 0u);
  return {sched.MergedDigest(), basic.counter(), cpu.iterations()};
}

TEST(PartitionSchedulerTest, ExperimentRunDigestsMatchOracle) {
  const RunsResult oracle = RunExperimentPartitions(0);
  const RunsResult parallel = RunExperimentPartitions(2);
  EXPECT_EQ(oracle.merged, parallel.merged);
  EXPECT_EQ(oracle.counter, parallel.counter);
  EXPECT_EQ(oracle.iterations, parallel.iterations);
  EXPECT_GT(oracle.counter, 0u);
  EXPECT_GT(oracle.iterations, 0u);
}

// --- Phase-pool turnover stress -------------------------------------------------

// Regression for the phase-pool straggler race: a worker woken late for a
// small phase could historically have its stale task claim land inside the
// setup of the next, larger phase — the claim was checked against the new
// task count and then handed out a second time by the index reset, so one
// partition's task ran on two threads and the pool's remaining-task counter
// underflowed (a permanent hang). The packed count|index claim word makes a
// claim self-validating; this test hammers the exact alternation (a 1-task
// window chased immediately by a full-width phase) that maximised the race
// window, and checks the task accounting stayed exact.
TEST(PartitionSchedulerTest, RapidPhaseTurnoverKeepsTaskAccountingExact) {
  constexpr int kRounds = 2000;
  constexpr int kPartitions = 4;
  std::vector<std::unique_ptr<Simulator>> sims;
  PartitionScheduler sched(PartitionScheduler::Options{3});
  for (int i = 0; i < kPartitions; ++i) {
    sims.push_back(std::make_unique<Simulator>());
    sched.AddPartition(sims.back().get());
  }
  std::array<std::atomic<uint64_t>, kPartitions> touched{};
  SimTime t = 0;
  for (int round = 0; round < kRounds; ++round) {
    t += kMicrosecond;
    // Only partition 0 has work: a 1-task window phase...
    sims[0]->ScheduleAt(t, [] {});
    sched.RunUntil(t);
    // ...chased immediately by a kPartitions-task custom phase.
    sched.ForEachPartition(
        [&touched](Partition* p) { touched[p->id()].fetch_add(1); });
  }
  for (int i = 0; i < kPartitions; ++i) {
    EXPECT_EQ(touched[i].load(), static_cast<uint64_t>(kRounds))
        << "partition " << i << " ran a wrong number of phase tasks";
  }
  EXPECT_EQ(sched.GuardViolations(), 0u);
}

// Uneven window widths under real event load: partition 0 ticks densely while
// the others tick sparsely and post cross-partition events back to it, so
// consecutive conservative windows flip between one active partition and all
// of them, hundreds of times per run — the shape under which a straggler from
// a narrow window could leak into a wide one. The parallel digest must still
// match the sequential oracle exactly (and the run must terminate; the
// historical race hung it).
struct UnevenWindowsResult {
  uint64_t merged = 0;
  uint64_t windows = 0;
  uint64_t cross_events = 0;
  uint64_t dense_ticks = 0;
  uint64_t sparse_ticks = 0;
  uint64_t remote_landed = 0;
};

UnevenWindowsResult RunUnevenWindows(uint32_t workers) {
  constexpr int kPartitions = 4;
  constexpr SimTime kLatency = 50 * kMicrosecond;
  constexpr SimTime kStop = 30 * kMillisecond;
  std::vector<std::unique_ptr<Simulator>> sims;
  std::vector<Simulator*> sim_ptrs;
  PartitionScheduler sched(PartitionScheduler::Options{workers});
  for (int i = 0; i < kPartitions; ++i) {
    sims.push_back(std::make_unique<Simulator>());
    sim_ptrs.push_back(sims[i].get());
    sched.AddPartition(sims[i].get());
  }
  sched.RegisterCrossLatency(kLatency);
  PartitionBoundary boundary(sim_ptrs);
  sched.SetBoundary([&boundary](SimTime bound) { return boundary.Step(bound); });

  // Counts arrivals in partition 0, so a single thread at a time; the
  // scheduler barrier publishes it back to this thread.
  struct Landing : PacketHandler {
    uint64_t landed = 0;
    void HandlePacket(const Packet&) override { ++landed; }
  };
  Landing landing;

  struct Ticker {
    Simulator* sim;
    SimTime interval;
    SimTime latency;
    SimTime stop;
    PartitionBoundary* boundary;  // non-null => post to partition 0 each tick
    uint32_t stream = 0;
    uint64_t count = 0;
    void Tick() {
      ++count;
      if (boundary != nullptr && sim->Now() + latency <= stop) {
        boundary->Emit(stream, Packet{}, sim->Now() + latency);
      }
      if (sim->Now() + interval <= stop) {
        sim->Schedule(interval, [this] { Tick(); });
      }
    }
  };
  std::vector<std::unique_ptr<Ticker>> tickers;
  tickers.push_back(std::make_unique<Ticker>(
      Ticker{sim_ptrs[0], 10 * kMicrosecond, kLatency, kStop, nullptr}));
  for (int i = 1; i < kPartitions; ++i) {
    tickers.push_back(std::make_unique<Ticker>(
        Ticker{sim_ptrs[i], kMillisecond, kLatency, kStop, &boundary,
               boundary.AddStream(static_cast<uint32_t>(i), 0, &landing)}));
  }
  for (auto& t : tickers) {
    t->sim->Schedule(t->interval, [tk = t.get()] { tk->Tick(); });
  }

  sched.RunUntil(kStop + kMillisecond);
  UnevenWindowsResult r;
  r.merged = sched.MergedDigest();
  r.windows = sched.stats().windows;
  r.cross_events = sched.stats().cross_events;
  r.dense_ticks = tickers[0]->count;
  for (int i = 1; i < kPartitions; ++i) {
    r.sparse_ticks += tickers[i]->count;
  }
  r.remote_landed = landing.landed;
  EXPECT_EQ(sched.GuardViolations(), 0u);
  return r;
}

TEST(PartitionSchedulerTest, UnevenWindowWidthsMatchOracleUnderWorkers) {
  const UnevenWindowsResult oracle = RunUnevenWindows(/*workers=*/0);
  // Two parallel runs: fresh pools, fresh wakeup timings, same answer.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const UnevenWindowsResult parallel = RunUnevenWindows(/*workers=*/3);
    EXPECT_EQ(oracle.merged, parallel.merged);
    EXPECT_EQ(oracle.windows, parallel.windows);
    EXPECT_EQ(oracle.cross_events, parallel.cross_events);
    EXPECT_EQ(oracle.dense_ticks, parallel.dense_ticks);
    EXPECT_EQ(oracle.sparse_ticks, parallel.sparse_ticks);
    EXPECT_EQ(oracle.remote_landed, parallel.remote_landed);
  }
  // The workload really alternated narrow and wide windows: far more windows
  // than sparse ticks, and the sparse ticks actually crossed partitions.
  EXPECT_GT(oracle.windows, 300u);
  EXPECT_GT(oracle.sparse_ticks, 50u);
  EXPECT_GT(oracle.cross_events, 50u);
  EXPECT_EQ(oracle.remote_landed, oracle.cross_events);
}

// --- Partition boundary -----------------------------------------------------------

// A sink that records each delivery's (instant, packet id).
struct DeliveryRecorder : PacketHandler {
  explicit DeliveryRecorder(Simulator* s) : sim(s) {}
  void HandlePacket(const Packet& pkt) override {
    got.emplace_back(sim->Now(), pkt.id);
  }
  Simulator* sim;
  std::vector<std::pair<SimTime, uint64_t>> got;
};

// Three source partitions feed partition 0 over two wires each. The wires
// advance independently, so a partition's posts are not in arrival order,
// and arrival instants tie within and across partitions. Released in one
// step, the deliveries must fire in the order of a stable sort by arrival
// time over the posts taken in (source partition, emission) order.
TEST(PartitionBoundaryTest, ReleaseOrderIsAStableSortOfPostsByTime) {
  constexpr uint32_t kPartitions = 4;
  constexpr uint32_t kWires = 2;
  constexpr SimTime kFirstArrival = kMillisecond;
  std::vector<std::unique_ptr<Simulator>> sims;
  std::vector<Simulator*> sim_ptrs;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    sims.push_back(std::make_unique<Simulator>());
    sim_ptrs.push_back(sims.back().get());
  }
  PartitionBoundary boundary(sim_ptrs);
  DeliveryRecorder sink(sim_ptrs[0]);
  struct WireState {
    uint32_t stream;
    SimTime last_arrival = kFirstArrival;
  };
  std::vector<WireState> wires;
  for (uint32_t src = 1; src < kPartitions; ++src) {
    for (uint32_t w = 0; w < kWires; ++w) {
      wires.push_back(WireState{boundary.AddStream(src, 0, &sink)});
    }
  }

  using Post = std::pair<SimTime, uint64_t>;  // (arrival, packet id)
  std::vector<std::vector<Post>> posts(kPartitions);
  Rng rng(7);
  for (uint64_t k = 0; k < 60; ++k) {
    // Round-robin across sources: the interleaving across partitions must
    // not matter, only each partition's own emission order.
    for (uint32_t src = 1; src < kPartitions; ++src) {
      WireState& wire = wires[(src - 1) * kWires + rng.NextUint64() % kWires];
      wire.last_arrival +=
          static_cast<SimTime>(rng.NextUint64() % 3) * kMicrosecond;
      Packet pkt;
      pkt.id = (uint64_t{src} << 32) | k;
      boundary.Emit(wire.stream, pkt, wire.last_arrival);
      posts[src].emplace_back(wire.last_arrival, pkt.id);
    }
  }
  std::vector<Post> expected;
  bool unsorted_source = false;
  for (uint32_t src = 1; src < kPartitions; ++src) {
    unsorted_source = unsorted_source ||
                      !std::is_sorted(posts[src].begin(), posts[src].end());
    expected.insert(expected.end(), posts[src].begin(), posts[src].end());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Post& a, const Post& b) { return a.first < b.first; });
  bool cross_tie = false;
  for (size_t i = 1; i < expected.size(); ++i) {
    cross_tie = cross_tie || (expected[i].first == expected[i - 1].first &&
                              expected[i].second >> 32 !=
                                  expected[i - 1].second >> 32);
  }
  ASSERT_TRUE(unsorted_source);
  ASSERT_TRUE(cross_tie);

  EXPECT_EQ(boundary.Step(kFirstArrival - 1), expected.size());
  EXPECT_EQ(boundary.held_count(), 0u);
  sim_ptrs[0]->Run();
  EXPECT_EQ(sink.got, expected);
}

// One window's packets on one stream become one batch: the destination
// holds a single pending event for all of them, and each still fires at its
// own arrival instant.
TEST(PartitionBoundaryTest, WindowOfPacketsArmsOneEventPerStream) {
  constexpr SimTime kLatency = 100 * kMicrosecond;
  constexpr uint64_t kPackets = 50;
  Simulator s0, s1;
  PartitionScheduler sched;
  sched.AddPartition(&s0);
  sched.AddPartition(&s1);
  sched.RegisterCrossLatency(kLatency);
  PartitionBoundary boundary({&s0, &s1});
  sched.SetBoundary([&boundary](SimTime bound) { return boundary.Step(bound); });
  DeliveryRecorder sink(&s1);
  const uint32_t stream = boundary.AddStream(0, 1, &sink);
  std::vector<std::pair<SimTime, uint64_t>> expected;
  for (uint64_t i = 0; i < kPackets; ++i) {
    expected.emplace_back(kLatency + static_cast<SimTime>(i) * kMicrosecond, i);
  }
  s0.ScheduleAt(0, [&] {
    for (const auto& [at, id] : expected) {
      Packet pkt;
      pkt.id = id;
      boundary.Emit(stream, pkt, at);
    }
  });

  sched.RunUntil(kLatency - 1);  // exactly one window, [0, kLatency - 1]
  EXPECT_EQ(sched.stats().windows, 1u);
  EXPECT_EQ(sched.stats().cross_events, kPackets);
  EXPECT_EQ(s1.pending_events(), 1u);

  sched.RunUntil(kMillisecond);
  EXPECT_EQ(sink.got, expected);
  EXPECT_EQ(s1.pending_high_water(), 1u);
}

// A held boundary released three batches into partition 1; the first was
// delivered before the restore point. After a restore to the second batch's
// barrier, Prune drops the first batch and Replay re-arms the other two with
// one pending event each, which deliver every entry at its instant.
TEST(PartitionBoundaryTest, ReplayOfAPrunedLogArmsOneEventPerBatch) {
  constexpr SimTime kUs = kMicrosecond;
  Simulator s0, s1;
  PartitionBoundary boundary({&s0, &s1});
  boundary.Hold(nullptr);
  DeliveryRecorder sink(&s1);
  const uint32_t stream = boundary.AddStream(0, 1, &sink);
  uint64_t next_id = 0;
  const auto emit = [&](SimTime deliver_at) {
    Packet pkt;
    pkt.id = next_id++;
    boundary.Emit(stream, pkt, deliver_at);
  };

  emit(1 * kUs);
  emit(2 * kUs);
  emit(3 * kUs);
  EXPECT_EQ(boundary.Step(4 * kUs), 0u);  // held: windows release nothing
  EXPECT_EQ(boundary.Release(0, 5 * kUs), 3u);
  EXPECT_EQ(s1.pending_events(), 1u);
  s1.RunUntil(10 * kUs);
  emit(12 * kUs);
  emit(13 * kUs);
  EXPECT_EQ(boundary.Release(0, 10 * kUs), 2u);
  emit(25 * kUs);
  emit(26 * kUs);
  EXPECT_EQ(boundary.Release(0, 20 * kUs), 2u);
  EXPECT_EQ(s1.pending_events(), 2u);
  s1.RunUntil(22 * kUs);
  EXPECT_EQ(sink.got.size(), 5u);  // batches A and B

  // Kill at 22 us; restore to 10 us.
  boundary.Prune(10 * kUs);
  s1.ResetForRestore(10 * kUs);
  EXPECT_EQ(boundary.Replay(1, 10 * kUs), 4u);
  EXPECT_EQ(s1.pending_events(), 2u);
  sink.got.clear();
  s1.RunUntil(30 * kUs);
  const std::vector<std::pair<SimTime, uint64_t>> expected = {
      {12 * kUs, 3}, {13 * kUs, 4}, {25 * kUs, 5}, {26 * kUs, 6}};
  EXPECT_EQ(sink.got, expected);
}

// Two streams into partition 1: a slow wire's delivery released first stays
// in the log past the restore point and stops Prune at the log's front, so
// a later batch's delivery that the restored image already holds survives
// the prune behind it. Replay must skip that delivery (it happened before
// the image) and still arm the rest of its batch, which had not.
TEST(PartitionBoundaryTest, ReplaySkipsDeliveriesThePruneLeftBehindASlowerOne) {
  constexpr SimTime kUs = kMicrosecond;
  Simulator s0, s1;
  PartitionBoundary boundary({&s0, &s1});
  boundary.Hold(nullptr);
  DeliveryRecorder sink(&s1);
  const uint32_t slow = boundary.AddStream(0, 1, &sink);
  const uint32_t fast = boundary.AddStream(0, 1, &sink);
  uint64_t next_id = 0;
  const auto emit = [&](uint32_t stream, SimTime deliver_at) {
    Packet pkt;
    pkt.id = next_id++;
    boundary.Emit(stream, pkt, deliver_at);
  };

  emit(slow, 30 * kUs);  // id 0
  EXPECT_EQ(boundary.Release(0, 5 * kUs), 1u);
  emit(fast, 12 * kUs);  // id 1: delivered before the restore point
  emit(fast, 25 * kUs);  // id 2: same batch, delivered after it
  EXPECT_EQ(boundary.Release(0, 10 * kUs), 2u);
  s1.RunUntil(20 * kUs);
  emit(fast, 28 * kUs);  // id 3: released at the restore point
  EXPECT_EQ(boundary.Release(0, 20 * kUs), 1u);
  s1.RunUntil(26 * kUs);
  const std::vector<std::pair<SimTime, uint64_t>> before_kill = {
      {12 * kUs, 1}, {25 * kUs, 2}};
  EXPECT_EQ(sink.got, before_kill);

  // Kill at 26 us; restore to 20 us. The slow entry blocks the prune, so
  // id 1 is still in the log.
  boundary.Prune(20 * kUs);
  s1.ResetForRestore(20 * kUs);
  EXPECT_EQ(boundary.Replay(1, 20 * kUs), 3u);
  EXPECT_EQ(s1.pending_events(), 3u);  // one per batch
  sink.got.clear();
  s1.RunUntil(40 * kUs);
  const std::vector<std::pair<SimTime, uint64_t>> expected = {
      {25 * kUs, 2}, {28 * kUs, 3}, {30 * kUs, 0}};
  EXPECT_EQ(sink.got, expected);
}

// --- Queue ownership guard ------------------------------------------------------

TEST(QueueGuardTest, StaleHandleCannotCancelReusedSlot) {
  Simulator sim;
  uint64_t fired = 0;
  EventHandle h = sim.Schedule(kMillisecond, [] {});
  h.Cancel();
  // The freed slot is reused by the next push; the stale handle's generation
  // no longer matches, so cancelling it again must not touch the new event.
  EventHandle h2 = sim.Schedule(2 * kMillisecond, [&] { ++fired; });
  EXPECT_GE(sim.slot_reuses(), 1u);
  h.Cancel();
  EXPECT_TRUE(h2.pending());
  sim.Run();
  EXPECT_EQ(fired, 1u);
}

TEST(QueueGuardTest, ForeignThreadTouchDuringWindowIsCounted) {
  Simulator sim;
  std::atomic<bool> executing{false};
  QueueGuard guard;
  guard.executing = &executing;
  sim.InstallQueueGuard(&guard);

  EventHandle h = sim.Schedule(kMillisecond, [] {});
  EXPECT_EQ(sim.queue_guard_violations(), 0u);  // no window in flight

  executing.store(true);
  guard.owner.store(CurrentThreadTag());
  sim.Schedule(2 * kMillisecond, [] {});  // owning thread: fine
  EXPECT_EQ(sim.queue_guard_violations(), 0u);

  // A touch from any other thread while a window executes is a violation —
  // counted, not trapped (the operation itself still behaves).
  std::thread foreign([&] { h.Cancel(); });
  foreign.join();
  EXPECT_EQ(sim.queue_guard_violations(), 1u);
  EXPECT_FALSE(h.pending());

  executing.store(false);
  sim.InstallQueueGuard(nullptr);
}

// A handle into partition B's queue, gone stale after its slot was reused,
// cancelled from an event running in partition A: the cancel must be a no-op
// on B's live event (generation check), must be flagged by B's guard (B was
// not claimed in that window), and must leave the digest oracle intact. Holds
// identically in sequential and parallel mode.
void StaleHandleAcrossPartitions(uint32_t workers) {
  Simulator s0, s1;
  PartitionScheduler sched(PartitionScheduler::Options{workers});
  sched.AddPartition(&s0);
  sched.AddPartition(&s1);
  sched.RegisterCrossLatency(kMillisecond);

  uint64_t fired = 0;
  // E1 fires at 1 ms and its freed slot is immediately reused by E2 (20 ms).
  EventHandle h1 = s1.Schedule(kMillisecond, [&] {
    s1.Schedule(19 * kMillisecond, [&] { ++fired; });
  });
  // At 5 ms — a window in which partition 1 has no work and is unclaimed —
  // partition 0 cancels the stale handle.
  s0.Schedule(5 * kMillisecond, [&] { h1.Cancel(); });

  sched.RunUntil(30 * kMillisecond);
  EXPECT_EQ(fired, 1u) << "stale cancel must never kill a reused slot";
  EXPECT_EQ(s1.queue_guard_violations(), 1u);
  EXPECT_EQ(s0.queue_guard_violations(), 0u);
}

TEST(QueueGuardTest, StaleHandleAcrossPartitionsSequential) {
  StaleHandleAcrossPartitions(0);
}

TEST(QueueGuardTest, StaleHandleAcrossPartitionsParallel) {
  StaleHandleAcrossPartitions(1);
}

// --- Generated topologies: parallel vs oracle ----------------------------------

struct TopologyResult {
  uint64_t event_digest = 0;
  uint64_t behavior_digest = 0;
  uint64_t total_events = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t cross_events = 0;
  uint64_t guard_violations = 0;
  size_t partitions = 0;
};

TopologyResult RunTopology(TopologyShape shape, uint32_t partitions,
                           uint32_t workers, SimTime horizon) {
  GeneratedTopologyParams params;
  params.shape = shape;
  auto topo = GeneratedTopology::Build(params, partitions, workers);
  topo->RunUntil(horizon);
  TopologyResult r;
  r.event_digest = topo->EventDigest();
  r.behavior_digest = topo->BehaviorDigest();
  r.total_events = topo->TotalEvents();
  r.sent = topo->PacketsSent();
  r.delivered = topo->PacketsDelivered();
  r.cross_events = topo->scheduler()->stats().cross_events;
  r.guard_violations = topo->scheduler()->GuardViolations();
  r.partitions = topo->partition_count();
  return r;
}

TEST(GeneratedTopologyTest, FatTree100ParallelMatchesOracle) {
  constexpr SimTime kHorizon = 40 * kMillisecond;
  const auto oracle =
      RunTopology(TopologyShape::kFatTree, 4, /*workers=*/0, kHorizon);
  const auto parallel =
      RunTopology(TopologyShape::kFatTree, 4, /*workers=*/3, kHorizon);

  EXPECT_EQ(oracle.partitions, 4u);
  EXPECT_EQ(parallel.partitions, 4u);
  // Pinned: the oracle and the parallel run share every line of the kernel,
  // so only a fixed value catches a change that moves both alike (say, one
  // extra sequence number reserved per cross-partition release).
  EXPECT_EQ(oracle.event_digest, 0x85ee3af90cdc7865u);
  EXPECT_EQ(oracle.behavior_digest, 0xc95af2f95e10907eu);
  EXPECT_EQ(oracle.event_digest, parallel.event_digest);
  EXPECT_EQ(oracle.behavior_digest, parallel.behavior_digest);
  EXPECT_EQ(oracle.total_events, parallel.total_events);
  EXPECT_EQ(oracle.sent, parallel.sent);
  EXPECT_EQ(oracle.delivered, parallel.delivered);
  EXPECT_EQ(oracle.cross_events, parallel.cross_events);
  EXPECT_EQ(oracle.guard_violations, 0u);
  EXPECT_EQ(parallel.guard_violations, 0u);
  // The workload is real: traffic flowed, and some of it crossed partitions.
  EXPECT_GT(oracle.sent, 1000u);
  EXPECT_GT(oracle.delivered, 0u);
  EXPECT_GT(oracle.cross_events, 0u);
}

TEST(GeneratedTopologyTest, MultiLanZonesParallelMatchesOracle) {
  constexpr SimTime kHorizon = 40 * kMillisecond;
  const auto oracle =
      RunTopology(TopologyShape::kMultiLanZones, 4, /*workers=*/0, kHorizon);
  const auto parallel =
      RunTopology(TopologyShape::kMultiLanZones, 4, /*workers=*/3, kHorizon);

  EXPECT_EQ(oracle.event_digest, 0x0295a2e152764f58u);  // pinned, as above
  EXPECT_EQ(oracle.behavior_digest, 0xb9eebcdd996179b9u);
  EXPECT_EQ(oracle.event_digest, parallel.event_digest);
  EXPECT_EQ(oracle.behavior_digest, parallel.behavior_digest);
  EXPECT_EQ(oracle.total_events, parallel.total_events);
  EXPECT_EQ(oracle.sent, parallel.sent);
  EXPECT_EQ(oracle.delivered, parallel.delivered);
  EXPECT_EQ(parallel.guard_violations, 0u);
  EXPECT_GT(oracle.cross_events, 0u);
}

TEST(GeneratedTopologyTest, BehaviorDigestInvariantAcrossPartitionCounts) {
  // The event digest is a property of each partition's event stream and
  // changes with the partitioning; the behaviour digest (what the workload
  // did) must not. loss_rate == 0 is the documented precondition.
  constexpr SimTime kHorizon = 40 * kMillisecond;
  const auto p1 = RunTopology(TopologyShape::kFatTree, 1, 0, kHorizon);
  const auto p4 = RunTopology(TopologyShape::kFatTree, 4, 0, kHorizon);
  const auto p4w = RunTopology(TopologyShape::kFatTree, 4, 3, kHorizon);

  EXPECT_EQ(p1.partitions, 1u);
  EXPECT_EQ(p1.behavior_digest, p4.behavior_digest);
  EXPECT_EQ(p1.behavior_digest, p4w.behavior_digest);
  EXPECT_EQ(p1.sent, p4.sent);
  EXPECT_EQ(p1.delivered, p4.delivered);
}

TEST(GeneratedTopologyTest, PartitionCountClampsToZones) {
  GeneratedTopologyParams params;  // 100 hosts, 10/LAN, 2 LANs/zone: 5 zones
  auto topo = GeneratedTopology::Build(params, 64, 0);
  EXPECT_EQ(topo->partition_count(), 5u);
  auto one = GeneratedTopology::Build(params, 0, 0);
  EXPECT_EQ(one->partition_count(), 1u);
}

// --- Checkpoint epochs over the partitioned kernel ------------------------------

struct EpochResult {
  uint64_t captures_digest = 0;
  uint64_t event_digest = 0;
  std::vector<uint64_t> epoch_bytes;
};

EpochResult RunCheckpointedFatTree(uint32_t workers) {
  GeneratedTopologyParams params;
  auto topo = GeneratedTopology::Build(params, 4, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), 10 * kMillisecond,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  epochs.RunUntil(50 * kMillisecond);
  EXPECT_EQ(topo->scheduler()->GuardViolations(), 0u);
  EpochResult r;
  r.captures_digest = epochs.CapturesDigest();
  r.event_digest = topo->EventDigest();
  for (const auto& rec : epochs.history()) {
    r.epoch_bytes.push_back(rec.image_bytes);
  }
  return r;
}

TEST(EpochCoordinatorTest, CheckpointedFatTreeCapturesMatchOracle) {
  const EpochResult oracle = RunCheckpointedFatTree(/*workers=*/0);
  const EpochResult parallel = RunCheckpointedFatTree(/*workers=*/3);

  ASSERT_EQ(oracle.epoch_bytes.size(), 5u);
  ASSERT_EQ(parallel.epoch_bytes.size(), 5u);
  EXPECT_EQ(oracle.epoch_bytes, parallel.epoch_bytes);
  for (uint64_t bytes : oracle.epoch_bytes) {
    EXPECT_GT(bytes, 0u);
  }
  // The captured images themselves — not just their sizes — are part of the
  // oracle check: the fold over every byte must agree.
  EXPECT_EQ(oracle.captures_digest, parallel.captures_digest);
  EXPECT_EQ(oracle.event_digest, parallel.event_digest);
}

// Inputs of the spill tests: the 100-host fat tree at 10 ms epochs, and the
// 1000-host one at 50 ms epochs over 200 ms.
struct SpillInput {
  uint32_t hosts;
  SimTime period;
  SimTime horizon;
};
constexpr SpillInput kSpillInputs[] = {
    {100, 10 * kMillisecond, 50 * kMillisecond},
    {1000, 50 * kMillisecond, 200 * kMillisecond},
};

struct SpillResult {
  uint64_t captures_digest = 0;
  uint64_t event_digest = 0;
  uint64_t materialize_fold = 0;  // fold over Materialize(h), h ascending
};

uint64_t FoldMaterializations(CheckpointRepo* repo) {
  Fnv1aDigest folded;
  for (const uint64_t handle : repo->LiveHandles()) {
    const std::vector<uint8_t> image = repo->Materialize(handle);
    EXPECT_FALSE(image.empty()) << repo->error();
    folded.MixBytes(image.data(), image.size());
  }
  return folded.value();
}

std::vector<uint8_t> FileBytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// The checkpointed fat tree of `input` on 4 partitions, spilling every epoch
// into a fresh repository at `dir`, one write batch per epoch.
SpillResult RunSpill(const SpillInput& input, bool async, uint32_t workers,
                     const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::string error;
  auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
  EXPECT_NE(repo, nullptr) << error;
  if (repo == nullptr) {
    return {};
  }
  GeneratedTopologyParams params;
  params.hosts = input.hosts;
  auto topo = GeneratedTopology::Build(params, 4, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), input.period,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  if (async) {
    epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
      topo->SnapshotPartition(p->id(), out);
    });
  }
  epochs.AttachRepository(repo.get());
  epochs.RunUntil(input.horizon);
  EXPECT_EQ(topo->scheduler()->GuardViolations(), 0u);
  EXPECT_EQ(epochs.history().size(),
            static_cast<size_t>(input.horizon / input.period));
  for (const auto& rec : epochs.history()) {
    EXPECT_TRUE(rec.spill_ok);
    EXPECT_EQ(rec.spill_images, topo->partition_count());
  }
  EXPECT_EQ(epochs.spill_handles().size(), topo->partition_count());
  return SpillResult{epochs.CapturesDigest(), topo->EventDigest(),
                     FoldMaterializations(repo.get())};
}

TEST(EpochCoordinatorTest, RepositorySpillIsDeterministicAndReopensIntact) {
  namespace fs = std::filesystem;
  // The same checkpointed fat tree twice — the sequential oracle and a
  // 3-worker run — each spilling every epoch into its own repository. Capture
  // workers run concurrently, then the barrier thread stages their images in
  // partition order, so the repositories must be byte-identical.
  for (const SpillInput& input : kSpillInputs) {
    SCOPED_TRACE(std::to_string(input.hosts) + " hosts");
    const std::string seq_dir =
        (fs::path(::testing::TempDir()) / "tcsim_epoch_spill_seq").string();
    const std::string par_dir =
        (fs::path(::testing::TempDir()) / "tcsim_epoch_spill_par").string();
    const SpillResult seq = RunSpill(input, /*async=*/false, 0, seq_dir);
    const SpillResult par = RunSpill(input, /*async=*/false, 3, par_dir);
    EXPECT_EQ(seq.captures_digest, par.captures_digest);
    EXPECT_EQ(seq.event_digest, par.event_digest);
    EXPECT_EQ(seq.materialize_fold, par.materialize_fold);
    EXPECT_EQ(FileBytes(fs::path(seq_dir) / "segment.1"),
              FileBytes(fs::path(par_dir) / "segment.1"));
    EXPECT_EQ(FileBytes(fs::path(seq_dir) / "journal.1"),
              FileBytes(fs::path(par_dir) / "journal.1"));

    // Fresh process: every spilled capture materializes, byte-identical to
    // what the spilling process saw — the epochs fully survived the reopen.
    std::string error;
    auto reopened = CheckpointRepo::Open(par_dir, RepoOptions{}, &error);
    ASSERT_NE(reopened, nullptr) << error;
    EXPECT_EQ(FoldMaterializations(reopened.get()), par.materialize_fold);
    reopened.reset();
    fs::remove_all(seq_dir);
    fs::remove_all(par_dir);
  }
}

// Same checkpointed fat tree, captured through the two-phase path: freeze
// clones partition state into staging buffers, a background thread builds
// and spills the images while the next window runs.
EpochResult RunCheckpointedFatTreeAsync(uint32_t workers) {
  GeneratedTopologyParams params;
  auto topo = GeneratedTopology::Build(params, 4, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), 10 * kMillisecond,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
    topo->SnapshotPartition(p->id(), out);
  });
  epochs.RunUntil(50 * kMillisecond);
  EXPECT_EQ(topo->scheduler()->GuardViolations(), 0u);
  EpochResult r;
  r.captures_digest = epochs.CapturesDigest();
  r.event_digest = topo->EventDigest();
  for (const auto& rec : epochs.history()) {
    EXPECT_TRUE(rec.async);
    r.epoch_bytes.push_back(rec.image_bytes);
  }
  return r;
}

TEST(EpochCoordinatorTest, AsyncCaptureMatchesSyncByteForByte) {
  // The async pipeline must be invisible in the data: same image bytes (the
  // captures digest folds every byte in epoch/partition order), same event
  // digest, same per-epoch totals — whether the freeze phase runs on the
  // sequential oracle or on a worker pool.
  const EpochResult sync_oracle = RunCheckpointedFatTree(/*workers=*/0);
  const EpochResult async_seq = RunCheckpointedFatTreeAsync(/*workers=*/0);
  const EpochResult async_par = RunCheckpointedFatTreeAsync(/*workers=*/3);

  ASSERT_EQ(async_seq.epoch_bytes.size(), sync_oracle.epoch_bytes.size());
  EXPECT_EQ(sync_oracle.epoch_bytes, async_seq.epoch_bytes);
  EXPECT_EQ(sync_oracle.epoch_bytes, async_par.epoch_bytes);
  EXPECT_EQ(sync_oracle.captures_digest, async_seq.captures_digest);
  EXPECT_EQ(sync_oracle.captures_digest, async_par.captures_digest);
  EXPECT_EQ(sync_oracle.event_digest, async_seq.event_digest);
  EXPECT_EQ(sync_oracle.event_digest, async_par.event_digest);
}

TEST(EpochCoordinatorTest, AsyncSpillRepositoryMatchesSyncOnDisk) {
  namespace fs = std::filesystem;
  // Group commit from the background thread must leave the repository
  // byte-identical to the synchronous spill: same captures and events, same
  // journal, same segment, same materializations after a fresh reopen.
  for (const SpillInput& input : kSpillInputs) {
    SCOPED_TRACE(std::to_string(input.hosts) + " hosts");
    const std::string sync_dir =
        (fs::path(::testing::TempDir()) / "tcsim_async_spill_sync").string();
    const std::string async_dir =
        (fs::path(::testing::TempDir()) / "tcsim_async_spill_async").string();
    const SpillResult sync = RunSpill(input, /*async=*/false, 0, sync_dir);
    const SpillResult async = RunSpill(input, /*async=*/true, 3, async_dir);
    EXPECT_EQ(sync.captures_digest, async.captures_digest);
    EXPECT_EQ(sync.event_digest, async.event_digest);
    EXPECT_EQ(FileBytes(fs::path(sync_dir) / "segment.1"),
              FileBytes(fs::path(async_dir) / "segment.1"));
    EXPECT_EQ(FileBytes(fs::path(sync_dir) / "journal.1"),
              FileBytes(fs::path(async_dir) / "journal.1"));

    std::string error;
    auto reopened = CheckpointRepo::Open(async_dir, RepoOptions{}, &error);
    ASSERT_NE(reopened, nullptr) << error;
    const uint64_t reopened_fold = FoldMaterializations(reopened.get());
    EXPECT_NE(reopened_fold, Fnv1aDigest{}.value());
    EXPECT_EQ(reopened_fold, sync.materialize_fold);
    reopened.reset();
    fs::remove_all(sync_dir);
    fs::remove_all(async_dir);
  }
}

TEST(EpochCoordinatorTest, EpochBarrierDoesNotPerturbTheWorkload) {
  // A run with epoch barriers every 10 ms and a run with none must agree on
  // what the workload did: quiescing is transparent to the traffic. (The raw
  // event digest is *not* compared here — a barrier splits execution windows,
  // which reassigns queue sequence numbers without changing any event's time.)
  GeneratedTopologyParams params;
  auto with_epochs = GeneratedTopology::Build(params, 4, 0);
  PartitionEpochCoordinator epochs(
      with_epochs->scheduler(), 10 * kMillisecond,
      [&with_epochs](Partition* p) {
        return with_epochs->CapturePartitionImage(p->id());
      });
  epochs.RunUntil(50 * kMillisecond);

  auto plain = GeneratedTopology::Build(params, 4, 0);
  plain->RunUntil(50 * kMillisecond);

  EXPECT_EQ(with_epochs->BehaviorDigest(), plain->BehaviorDigest());
  EXPECT_EQ(with_epochs->PacketsSent(), plain->PacketsSent());
  EXPECT_EQ(with_epochs->PacketsDelivered(), plain->PacketsDelivered());
}

}  // namespace
}  // namespace tcsim
