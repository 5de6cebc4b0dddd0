// Unit tests for the discrete-event kernel, RNG, stats and trace utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/archive.h"
#include "src/sim/event_queue.h"
#include "src/sim/fifo.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace tcsim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, EqualTimesFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  bool fired = false;
  sim.Schedule(-50, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.Now(), 12345);
}

TEST(SimulatorTest, RunUntilDoesNotRunLaterEvents) {
  Simulator sim;
  bool early = false;
  bool late = false;
  sim.Schedule(10, [&] { early = true; });
  sim.Schedule(100, [&] { late = true; });
  sim.RunUntil(50);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.Now(), 50);
  sim.Run();
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(0, chain);
  sim.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    Rng rng(99);
    std::vector<SimTime> fire_times;
    for (int i = 0; i < 50; ++i) {
      sim.Schedule(static_cast<SimTime>(rng.UniformInt(0, 1000)),
                   [&fire_times, &sim] { fire_times.push_back(sim.Now()); });
    }
    sim.Run();
    return fire_times;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Event-queue slab kernel ----------------------------------------------------

// The exact churn scenario recorded against the pre-slab EventQueue (the
// shared_ptr + std::function + priority_queue implementation). The digest
// mixes every fired (time, seq) pair, so a matching value means dispatch
// order, tie-breaking and cancellation semantics are bit-identical across
// the rewrite. Do not update the constants to make this pass.
TEST(EventQueueTest, ChurnDigestMatchesPreSlabKernel) {
  EventQueue q;
  uint64_t lcg = 0x123456789ABCDEFull;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  std::vector<EventHandle> handles;
  uint64_t fired = 0;
  SimTime now = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      const SimTime t = now + 1 + static_cast<SimTime>(next() % 1000);
      handles.push_back(q.Push(t, [&fired] { ++fired; }));
    }
    // Cancel a deterministic subset, including already-fired handles.
    for (size_t i = 0; i < handles.size(); i += 3) {
      handles[i].Cancel();
    }
    for (int i = 0; i < 25 && !q.Empty(); ++i) {
      SimTime t = 0;
      EventFn fn = q.Pop(&t);
      now = t;
      if (fn) {
        fn();
      }
    }
    if (round % 7 == 0 && !handles.empty()) {
      handles[handles.size() / 2].Cancel();
      handles[handles.size() / 2].Cancel();  // repeated cancel is a no-op
    }
  }
  while (!q.Empty()) {
    SimTime t = 0;
    EventFn fn = q.Pop(&t);
    now = t;
    if (fn) {
      fn();
    }
  }
  EXPECT_EQ(q.digest(), 0x93a8d47f5b87cd6dull);
  EXPECT_EQ(fired, 1333u);
  EXPECT_EQ(q.Size(), 0u);
}

// Steady-state churn must recycle slots instead of growing the slab: after
// warm-up, pushing/popping at a bounded outstanding-event count leaves
// slot_capacity() flat while slot_reuses() keeps climbing.
TEST(EventQueueTest, SlotPoolReusesInsteadOfGrowing) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    q.Push(i, [] {});
  }
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    (void)q.Pop(&t);
  }
  const size_t warm_capacity = q.slot_capacity();
  const uint64_t reuses_before = q.slot_reuses();
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 64; ++i) {
      q.Push(t + 1 + i, [] {});
    }
    for (int i = 0; i < 64; ++i) {
      (void)q.Pop(&t);
    }
  }
  EXPECT_EQ(q.slot_capacity(), warm_capacity);
  EXPECT_EQ(q.slot_reuses() - reuses_before, 64000u);
  EXPECT_TRUE(q.Empty());
}

// Popping after heavy cancellation churn: stale heap entries (cancelled, or
// superseded by slot reuse) must be dropped, never dispatched, and the pop
// must return the live event with the earliest deadline.
TEST(EventQueueTest, PopAfterCancellationChurnSkipsStaleEntries) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired_cancelled = 0;
  int fired_live = 0;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.Push(10 + i, [&fired_cancelled] { ++fired_cancelled; }));
  }
  // Cancel all but every 10th; the freed slots get reused by new earlier
  // events, so the heap now holds stale {slot, generation} pairs both for
  // cancelled events and for reused slots.
  for (size_t i = 0; i < handles.size(); ++i) {
    if (i % 10 != 0) {
      handles[i].Cancel();
    }
  }
  for (int i = 0; i < 30; ++i) {
    q.Push(5, [&fired_live] { ++fired_live; });
  }
  EXPECT_EQ(q.Size(), 40u);  // 10 survivors + 30 new
  SimTime t = 0;
  EventFn first = q.Pop(&t);
  EXPECT_EQ(t, 5);  // earliest live event, not a stale 10+i entry
  ASSERT_TRUE(static_cast<bool>(first));
  first();
  while (!q.Empty()) {
    EventFn fn = q.Pop(&t);
    if (fn) {
      fn();
    }
  }
  EXPECT_EQ(fired_live, 30);
  EXPECT_EQ(fired_cancelled, 10);  // only the uncancelled survivors

  // Second input: deadlines with many ties, and pushes, cancels and pops
  // interleaved so that cancelled entries outnumber live ones and the heap
  // is rebuilt from its live entries. Every dispatch must match a sorted
  // (time, seq) oracle; seq is the push index, one per Push.
  EventQueue churn;
  std::set<std::pair<SimTime, uint64_t>> oracle;
  std::vector<std::pair<EventHandle, std::pair<SimTime, uint64_t>>> armed;
  uint64_t next_seq = 0;
  uint64_t dispatched = 0;
  int rebuilds = 0;
  Rng rng(7);
  auto pop_and_check = [&] {
    ASSERT_FALSE(oracle.empty());
    SimTime at = 0;
    EventFn fn = churn.Pop(&at);
    fn();
    EXPECT_EQ(at, oracle.begin()->first);
    EXPECT_EQ(dispatched, oracle.begin()->second);
    oracle.erase(oracle.begin());
  };
  for (int round = 0; round < 200; ++round) {
    const SimTime now = oracle.empty() ? 0 : oracle.begin()->first;
    for (int i = 0; i < 20; ++i) {
      const SimTime at = now + rng.UniformInt(0, 30);
      const uint64_t seq = next_seq++;
      armed.push_back({churn.Push(at, [&dispatched, seq] { dispatched = seq; }), {at, seq}});
      oracle.insert({at, seq});
    }
    for (auto& [handle, key] : armed) {
      if (handle.pending() && rng.UniformInt(0, 3) != 0) {
        const size_t entries = churn.heap_entries();
        handle.Cancel();
        oracle.erase(key);
        rebuilds += churn.heap_entries() < entries ? 1 : 0;
        EXPECT_LE(churn.heap_entries(), 2 * churn.Size());
      }
    }
    std::erase_if(armed, [](const auto& a) { return !a.first.pending(); });
    for (int i = 0; i < 3 && !churn.Empty(); ++i) {
      pop_and_check();
    }
    ASSERT_EQ(churn.Size(), oracle.size());
  }
  while (!churn.Empty()) {
    pop_and_check();
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_GT(rebuilds, 0);
}

// A FIFO stream keeps only its head scheduled: each entry reserves its
// sequence number when it is created, and each dispatch arms the stream's
// next entry with PushReserved. Mixed with plain Pushes, made up front and
// from inside dispatched events, and with many equal times, dispatch order
// and digest() must equal an oracle queue that pushed every event when it
// was created.
TEST(EventQueueTest, ReservedStreamsDispatchLikeOnePushPerEvent) {
  constexpr int kStreams = 4;
  constexpr int kEvents = 400;
  struct Created {
    SimTime at;
    int stream;  // -1: a plain Push
  };
  // Creation order; a stream's times never decrease along it, so its
  // (time, seq) keys increase.
  std::vector<Created> created;
  Rng rng(11);
  SimTime stream_at[kStreams] = {};
  for (int i = 0; i < kEvents; ++i) {
    const int stream = static_cast<int>(rng.UniformInt(-2, kStreams - 1));
    if (stream < 0) {
      created.push_back({rng.UniformInt(0, 60), -1});
    } else {
      stream_at[stream] += rng.UniformInt(0, 1);
      created.push_back({stream_at[stream], stream});
    }
  }

  struct Run {
    EventQueue q;
    std::vector<int> order;  // dispatched event ids
    int next_id = kEvents;   // ids of events pushed while dispatching
    // Per stream: its entries' ids and reserved sequence numbers.
    std::vector<std::vector<std::pair<int, uint64_t>>> streams;
    std::vector<size_t> heads;
  };
  // Every 5th dispatched event pushes a follow-up at its own instant or
  // just after, in both runs; that consumes one sequence number each.
  auto dispatch = [](Run& run, int id, SimTime at) {
    run.order.push_back(id);
    if (id % 5 == 0) {
      const int follow_up = run.next_id++;
      run.q.Push(at + follow_up % 2, [&run, follow_up] {
        run.order.push_back(follow_up);
      });
    }
  };

  Run oracle;
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = created[i].at;
    oracle.q.Push(at, [&, i, at] { dispatch(oracle, i, at); });
  }

  Run chained;
  chained.streams.resize(kStreams);
  chained.heads.assign(kStreams, 0);
  std::function<void(int)> arm_head = [&](int s) {
    auto& stream = chained.streams[s];
    if (chained.heads[s] == stream.size()) {
      return;
    }
    const auto [id, seq] = stream[chained.heads[s]++];
    const SimTime at = created[id].at;
    chained.q.PushReserved(at, seq, [&, s, id, at] {
      arm_head(s);
      dispatch(chained, id, at);
    });
  };
  for (int i = 0; i < kEvents; ++i) {
    const Created& c = created[i];
    if (c.stream < 0) {
      const SimTime at = c.at;
      chained.q.Push(at, [&, i, at] { dispatch(chained, i, at); });
    } else {
      chained.streams[c.stream].push_back({i, chained.q.ReserveSeq()});
    }
  }
  for (int s = 0; s < kStreams; ++s) {
    arm_head(s);  // pushed after every later reservation
  }

  for (Run* run : {&oracle, &chained}) {
    while (!run->q.Empty()) {
      SimTime at = 0;
      EventFn fn = run->q.Pop(&at);
      fn();
    }
  }
  ASSERT_EQ(oracle.order.size(), static_cast<size_t>(oracle.next_id));
  EXPECT_EQ(chained.order, oracle.order);
  EXPECT_EQ(chained.q.digest(), oracle.q.digest());
  // Each stream held one queue entry instead of one per event.
  const size_t plain = static_cast<size_t>(
      std::count_if(created.begin(), created.end(),
                    [](const Created& c) { return c.stream < 0; }));
  const size_t bound = plain + kStreams + (oracle.next_id - kEvents);
  EXPECT_LE(chained.q.live_high_water(), bound);
  EXPECT_GT(oracle.q.live_high_water(), bound);
}

// A handle whose slot was recycled must read as not-pending and its Cancel
// must not touch the new occupant (the generation check).
TEST(EventQueueTest, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle stale = q.Push(1, [&first_fired] { first_fired = true; });
  SimTime t = 0;
  EventFn fn = q.Pop(&t);
  fn();
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(stale.pending());
  // The freed slot is recycled for a new event; the stale handle points at
  // the same slot index but an older generation.
  EventHandle fresh = q.Push(2, [&second_fired] { second_fired = true; });
  stale.Cancel();  // must be a no-op
  EXPECT_TRUE(fresh.pending());
  fn = q.Pop(&t);
  fn();
  EXPECT_TRUE(second_fired);
}

// --- Fifo ring --------------------------------------------------------------------

// Absolute indices name the same element while the ring wraps and while it
// grows with its front past the first slot; pop_back and clear keep the
// numbering, and popped slots release what they held.
TEST(FifoTest, AbsoluteIndicesSurviveWrapAndGrowth) {
  Fifo<std::shared_ptr<uint64_t>> fifo;
  std::deque<uint64_t> model;  // values; a value is its absolute index
  uint64_t next = 0;
  auto expect_matches = [&] {
    ASSERT_EQ(fifo.size(), model.size());
    ASSERT_EQ(fifo.end_index() - fifo.front_index(), model.size());
    for (uint64_t i = fifo.front_index(); i < fifo.end_index(); ++i) {
      EXPECT_EQ(*fifo.at_index(i), model[i - fifo.front_index()]);
    }
  };
  Rng rng(5);
  for (int round = 0; round < 300; ++round) {
    // Grow the backlog over time, so growth happens with the front anywhere.
    const int pushes = static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < pushes; ++i) {
      fifo.push_back(std::make_shared<uint64_t>(next));
      model.push_back(next++);
    }
    const int pops = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < pops && !model.empty(); ++i) {
      EXPECT_EQ(*fifo.front(), model.front());
      fifo.pop_front();
      model.pop_front();
    }
    if (round % 17 == 0 && !model.empty()) {
      EXPECT_EQ(*fifo.back(), model.back());
      fifo.pop_back();
      model.pop_back();
      --next;  // pop_back takes the index back
    }
    expect_matches();
  }
  // A popped element is released at once, not when its slot is reused.
  std::weak_ptr<uint64_t> front = fifo.front();
  fifo.pop_front();
  model.pop_front();
  EXPECT_TRUE(front.expired());
  const uint64_t end = fifo.end_index();
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.front_index(), end);
  fifo.push_back(std::make_shared<uint64_t>(end));
  EXPECT_EQ(*fifo.at_index(end), end);
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int64_t n = rng.UniformInt(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(2);
  Samples s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Normal(10.0, 3.0));
  }
  const Summary sum = s.Summarize();
  EXPECT_NEAR(sum.mean, 10.0, 0.1);
  EXPECT_NEAR(sum.stddev, 3.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng a(7);
  Rng b = a.Fork();
  // Different draws from the two generators.
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(StatsTest, SummaryAndPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  const Summary sum = s.Summarize();
  EXPECT_DOUBLE_EQ(sum.mean, 50.5);
  EXPECT_EQ(sum.min, 1.0);
  EXPECT_EQ(sum.max, 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(97), 97.03, 0.1);
  EXPECT_DOUBLE_EQ(s.FractionWithin(50.5, 9.5), 0.20);  // 41..60 inclusive
}

TEST(StatsTest, ThroughputMeterBucketizes) {
  ThroughputMeter meter(kSecond);
  meter.Add(0, 1024 * 1024);
  meter.Add(kSecond / 2, 1024 * 1024);
  meter.Add(2 * kSecond, 1024 * 1024);
  const TimeSeries series = meter.Bucketize();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.points()[0].value, 2.0);  // 2 MB in bucket 0
  EXPECT_DOUBLE_EQ(series.points()[1].value, 0.0);
  EXPECT_DOUBLE_EQ(series.points()[2].value, 1.0);
}

TEST(StatsTest, PercentileEdgeBehaviour) {
  Samples empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(0), 0.0);

  Samples one;
  one.Add(7.0);
  // A single sample is every percentile of itself.
  EXPECT_DOUBLE_EQ(one.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(one.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(one.Percentile(100), 7.0);

  Samples s;
  s.Add(1.0);
  s.Add(2.0);
  // p outside [0, 100] clamps to the range ends.
  EXPECT_DOUBLE_EQ(s.Percentile(-10), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(250), 2.0);
}

TEST(StatsTest, ThroughputMeterEdgeBehaviour) {
  // No samples: empty series, not a crash or a zero-width bucket.
  ThroughputMeter empty(kSecond);
  EXPECT_TRUE(empty.Bucketize().empty());
  EXPECT_EQ(empty.total_bytes(), 0u);

  // A single sample yields exactly one bucket holding its bytes.
  ThroughputMeter one(kSecond);
  one.Add(3 * kSecond + kMillisecond, 2 * 1024 * 1024);
  const TimeSeries series = one.Bucketize();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series.points()[0].value, 2.0);
  EXPECT_EQ(one.total_bytes(), 2u * 1024 * 1024);

  // Non-positive bucket width degrades to an empty series.
  ThroughputMeter degenerate(0);
  degenerate.Add(kSecond, 1024);
  EXPECT_TRUE(degenerate.Bucketize().empty());
}

TEST(TraceTest, IdenticalTracesCompareEqual) {
  TraceLog a;
  TraceLog b;
  for (int i = 0; i < 10; ++i) {
    a.Record(i * kMillisecond, "x", i);
    b.Record(i * kMillisecond, "x", i);
  }
  const TraceDiff diff = a.Compare(b);
  EXPECT_TRUE(diff.comparable);
  EXPECT_EQ(diff.max_time_delta, 0);
  EXPECT_EQ(diff.max_value_delta, 0.0);

  // Tags compare by name: two logs that interned the same tags in different
  // orders (so their ids differ) still compare equal.
  TraceLog c;
  TraceLog d;
  c.Intern("y");
  d.Intern("x");
  for (int i = 0; i < 4; ++i) {
    const char* tag = i % 2 == 0 ? "x" : "y";
    c.Record(i, tag, i);
    d.Record(i, tag, i);
  }
  EXPECT_NE(c.records()[0].tag_id, d.records()[0].tag_id);
  EXPECT_EQ(c.tag(c.records()[0]), "x");
  EXPECT_TRUE(c.Compare(d).comparable) << c.Compare(d).Describe();
  EXPECT_TRUE(d.Compare(c).comparable) << d.Compare(c).Describe();

  // Clear drops the tags with the records.
  c.Clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.Intern("x"), 0u);
}

TEST(TraceTest, TimeShiftDetected) {
  TraceLog a;
  TraceLog b;
  a.Record(kMillisecond, "x", 1);
  b.Record(kMillisecond + 700 * kMicrosecond, "x", 1);
  const TraceDiff diff = a.Compare(b);
  EXPECT_TRUE(diff.comparable);
  EXPECT_EQ(diff.max_time_delta, 700 * kMicrosecond);
}

TEST(TraceTest, DifferentShapesNotComparable) {
  TraceLog a;
  TraceLog b;
  a.Record(1, "x", 1);
  EXPECT_FALSE(a.Compare(b).comparable);
  b.Record(1, "y", 1);
  EXPECT_FALSE(a.Compare(b).comparable);
}

TEST(TraceTest, ComparableDiffReportsNoMismatch) {
  TraceLog a;
  TraceLog b;
  a.Record(kMillisecond, "x", 1);
  b.Record(kMillisecond, "x", 1);
  const TraceDiff diff = a.Compare(b);
  ASSERT_TRUE(diff.comparable);
  EXPECT_EQ(diff.first_mismatch, TraceDiff::kNoMismatch);
  EXPECT_EQ(diff.Describe(), "comparable");
}

TEST(TraceTest, TagDivergencePinpointsFirstMismatch) {
  TraceLog a;
  TraceLog b;
  for (int i = 0; i < 3; ++i) {
    a.Record(i, "iter", i);
    b.Record(i, "iter", i);
  }
  a.Record(3, "iter", 3);
  b.Record(3, "recv", 3);
  a.Record(4, "late", 4);  // differs too, but index 3 diverged first
  b.Record(4, "tail", 4);
  const TraceDiff diff = a.Compare(b);
  EXPECT_FALSE(diff.comparable);
  EXPECT_EQ(diff.first_mismatch, 3u);
  EXPECT_EQ(diff.mismatch_a, "iter");
  EXPECT_EQ(diff.mismatch_b, "recv");
  EXPECT_EQ(diff.Describe(), "diverged at record 3: 'iter' vs 'recv'");
}

TEST(TraceTest, LengthMismatchReportsEndOfTrace) {
  TraceLog a;
  TraceLog b;
  a.Record(0, "x", 0);
  a.Record(1, "x", 1);
  b.Record(0, "x", 0);
  const TraceDiff diff = a.Compare(b);
  EXPECT_FALSE(diff.comparable);
  // The common prefix agrees, so the divergence is where the shorter trace
  // ran out of records.
  EXPECT_EQ(diff.first_mismatch, 1u);
  EXPECT_EQ(diff.mismatch_a, "x");
  EXPECT_EQ(diff.mismatch_b, "<end-of-trace>");
  EXPECT_EQ(diff.Describe(), "diverged at record 1: 'x' vs '<end-of-trace>'");

  // Symmetric: comparing the short trace against the long one flags the
  // short side as ended.
  const TraceDiff rev = b.Compare(a);
  EXPECT_EQ(rev.first_mismatch, 1u);
  EXPECT_EQ(rev.mismatch_a, "<end-of-trace>");
  EXPECT_EQ(rev.mismatch_b, "x");
}

TEST(ArchiveTest, RoundTripsPodsStringsVectors) {
  ArchiveWriter w;
  w.Write<uint64_t>(42);
  w.Write<double>(3.25);
  w.WriteString("hello world");
  w.WriteVector<int32_t>({1, -2, 3});
  const std::vector<uint8_t> data = w.Take();

  ArchiveReader r(data);
  EXPECT_EQ(r.Read<uint64_t>(), 42u);
  EXPECT_EQ(r.Read<double>(), 3.25);
  EXPECT_EQ(r.ReadString(), "hello world");
  EXPECT_EQ(r.ReadVector<int32_t>(), (std::vector<int32_t>{1, -2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace tcsim
