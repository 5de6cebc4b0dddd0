// Micro-benchmarks of the simulator substrate (google-benchmark).
//
// These do not reproduce paper results; they bound the cost of the
// simulation machinery itself (events, RNG, TCP, the branching store, and a
// full local checkpoint cycle) so regressions in the substrate are visible.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/checkpoint/local_checkpoint.h"
#include "src/emulab/external_observer.h"
#include "src/guest/node.h"
#include "src/ha/micro_checkpointer.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/net/timer_host.h"
#include "src/net/topology.h"
#include "src/net/wire.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/storage/branch_store.h"
#include "src/storage/disk.h"

namespace tcsim {

// Global allocation counter, fed by replacement operator new/delete below.
// The steady-state dispatch benchmark uses it to assert the event kernel's
// zero-per-event-heap-allocation property as a measured counter rather than
// a claim.
std::atomic<uint64_t> g_allocations{0};

}  // namespace tcsim

// noinline: once these are inlined into a caller, GCC sees `free` applied to
// a pointer from `operator new` and warns (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  tcsim::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tcsim {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleAndRun);

// Steady-state dispatch: a self-rescheduling timer wheel exercised after the
// slab has warmed up. Counts heap allocations per dispatched event — the
// slab/free-list event kernel plus inline EventFn storage makes this 0.
void BM_EventSteadyStateDispatch(benchmark::State& state) {
  Simulator sim;
  constexpr int kTimers = 64;
  uint64_t fired = 0;
  std::function<void(int)> arm = [&](int i) {
    sim.Schedule(1 + (i % 7), [&arm, &fired, i] {
      ++fired;
      arm(i);
    });
  };
  for (int i = 0; i < kTimers; ++i) {
    arm(i);
  }
  sim.RunUntil(sim.Now() + 1000);  // warm up the slab and the heap vector
  const uint64_t fired_before = fired;
  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + 100);
  }
  const uint64_t events = fired - fired_before;
  const uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0);
}
BENCHMARK(BM_EventSteadyStateDispatch);

// Steady-state HA epochs: a 100-host fat tree on 4 partitions under
// MicroCheckpointer (50 Hz, two-phase capture, buffered output, observer
// attached). After 200 ms of warm-up each iteration runs one more epoch.
// Counts heap allocations per dispatched event across the whole system —
// hold, release, injection, replay bookkeeping and capture — and reports
// the partitions' summed event-queue high-water mark, which one pending
// event per wire and per release batch bounds by the topology's stream
// count rather than by the packets in flight.
void BM_HaEpochSteadyState(benchmark::State& state) {
  GeneratedTopologyParams params;
  params.hosts = 100;
  params.hosts_per_lan = 5;
  params.lans_per_zone = 5;
  auto topo = GeneratedTopology::Build(params, /*partitions=*/4, /*workers=*/2);
  emulab::ExternalObserver observer;
  ha::MicroCheckpointPolicy policy;
  policy.period = 20 * kMillisecond;
  policy.max_in_flight_epochs = 1;
  policy.buffer_output = true;
  ha::MicroCheckpointer mc(topo.get(), policy);
  mc.SetObserver(&observer);
  const auto events = [&topo] {
    uint64_t n = 0;
    for (size_t p = 0; p < topo->partition_count(); ++p) {
      n += topo->partition_sim(p)->events_processed();
    }
    return n;
  };
  const auto pending_high_water = [&topo] {
    size_t n = 0;
    for (size_t p = 0; p < topo->partition_count(); ++p) {
      n += topo->partition_sim(p)->pending_high_water();
    }
    return n;
  };
  SimTime now = 200 * kMillisecond;
  mc.RunUntil(now);
  const uint64_t events_before = events();
  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    now += policy.period;
    mc.RunUntil(now);
  }
  const uint64_t dispatched = events() - events_before;
  const uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<int64_t>(dispatched));
  state.counters["allocs_per_event"] = benchmark::Counter(
      dispatched > 0 ? static_cast<double>(allocs) / static_cast<double>(dispatched) : 0);
  state.counters["pending_high_water"] =
      benchmark::Counter(static_cast<double>(pending_high_water()));
}
BENCHMARK(BM_HaEpochSteadyState)->Unit(benchmark::kMillisecond);

// The same 100-host fat tree on 4 partitions, without HA: every packet that
// crosses a partition cut goes through the partition boundary, which
// releases it after its window as one entry of its destination's release
// batch. After 200 ms of warm-up each iteration runs 20 simulated
// milliseconds. Counts heap allocations per dispatched event and reports the
// partitions' summed event-queue high-water mark.
void BM_PartitionedSteadyState(benchmark::State& state) {
  GeneratedTopologyParams params;
  params.hosts = 100;
  params.hosts_per_lan = 5;
  params.lans_per_zone = 5;
  auto topo = GeneratedTopology::Build(params, /*partitions=*/4, /*workers=*/2);
  const auto events = [&topo] {
    uint64_t n = 0;
    for (size_t p = 0; p < topo->partition_count(); ++p) {
      n += topo->partition_sim(p)->events_processed();
    }
    return n;
  };
  const auto pending_high_water = [&topo] {
    size_t n = 0;
    for (size_t p = 0; p < topo->partition_count(); ++p) {
      n += topo->partition_sim(p)->pending_high_water();
    }
    return n;
  };
  SimTime now = 200 * kMillisecond;
  topo->RunUntil(now);
  const uint64_t events_before = events();
  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    now += 20 * kMillisecond;
    topo->RunUntil(now);
  }
  const uint64_t dispatched = events() - events_before;
  const uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<int64_t>(dispatched));
  state.counters["allocs_per_event"] = benchmark::Counter(
      dispatched > 0 ? static_cast<double>(allocs) / static_cast<double>(dispatched) : 0);
  state.counters["pending_high_water"] =
      benchmark::Counter(static_cast<double>(pending_high_water()));
}
BENCHMARK(BM_PartitionedSteadyState)->Unit(benchmark::kMillisecond);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Normal(0.0, 1.0));
  }
}
BENCHMARK(BM_RngNormal);

void BM_TcpBulkTransfer(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    PhysicalTimerHost timers(&sim);
    NetworkStack a(&sim, &timers, 1);
    NetworkStack b(&sim, &timers, 2);
    Nic* nic_a = a.AddNic();
    Nic* nic_b = b.AddNic();
    Rng rng(7);
    Wire ab(&sim, rng.Fork(), 1'000'000'000, 100 * kMicrosecond, 0.0, nic_b);
    Wire ba(&sim, rng.Fork(), 1'000'000'000, 100 * kMicrosecond, 0.0, nic_a);
    nic_a->ConnectTx(&ab);
    nic_b->ConnectTx(&ba);
    uint64_t delivered = 0;
    b.ListenTcp(80, [&](TcpConnection* conn) {
      conn->SetDeliveryCallback([&](uint64_t n) { delivered += n; });
    });
    TcpConnection* conn = a.ConnectTcp(2, 80, {}, nullptr);
    conn->Send(bytes);
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(1 << 20)->Arg(8 << 20);

// Cumulative-ACK retirement on a fat pipe: 1 Gbps at 20 ms one way keeps
// thousands of segments in flight, so each ACK retires a batch from the front
// of the sender's in-flight queue. With the old std::vector front-erase this
// was O(window) of memmove per retired segment and the whole transfer went
// quadratic in the window; the deque keeps it O(1). The tripwire asserts the
// amortized host cost per retired segment stays far below the vector
// regime (which measured in the tens of microseconds per segment here).
void BM_TcpCumulativeAckLargeWindow(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0));
  double worst_per_segment_us = 0;
  for (auto _ : state) {
    Simulator sim;
    PhysicalTimerHost timers(&sim);
    NetworkStack a(&sim, &timers, 1);
    NetworkStack b(&sim, &timers, 2);
    Nic* nic_a = a.AddNic();
    Nic* nic_b = b.AddNic();
    Rng rng(7);
    Wire ab(&sim, rng.Fork(), 1'000'000'000, 20 * kMillisecond, 0.0, nic_b);
    Wire ba(&sim, rng.Fork(), 1'000'000'000, 20 * kMillisecond, 0.0, nic_a);
    nic_a->ConnectTx(&ab);
    nic_b->ConnectTx(&ba);
    TcpConnection::Params params;
    params.recv_buffer_bytes = 16 * 1024 * 1024;  // window >> BDP
    uint64_t delivered = 0;
    b.ListenTcp(80, [&](TcpConnection* conn) {
      conn->SetDeliveryCallback([&](uint64_t n) { delivered += n; });
    }, params);
    TcpConnection* conn = a.ConnectTcp(2, 80, params, nullptr);
    conn->Send(bytes);
    const auto start = std::chrono::steady_clock::now();
    sim.Run();
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    const double segments =
        static_cast<double>(conn->stats().bytes_acked) / kTcpMss;
    const double us_per_segment =
        std::chrono::duration<double, std::micro>(stop - start).count() /
        (segments > 0 ? segments : 1);
    worst_per_segment_us = std::max(worst_per_segment_us, us_per_segment);
    if (delivered != bytes) {
      state.SkipWithError("transfer did not complete");
      return;
    }
  }
  state.counters["us_per_acked_segment"] = worst_per_segment_us;
  // Regression tripwire, generous enough for slow CI hosts: the deque path
  // measures well under 1 us/segment; the quadratic vector path blows past
  // this by an order of magnitude.
  if (worst_per_segment_us > 5.0) {
    state.SkipWithError("cumulative-ACK retirement cost regressed");
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TcpCumulativeAckLargeWindow)->Arg(32 << 20)->Unit(benchmark::kMillisecond);

void BM_BranchStoreWrite(benchmark::State& state) {
  Simulator sim;
  Disk disk(&sim, DiskParams{});
  BranchStore store(&disk, 1 << 22);
  uint64_t block = 0;
  for (auto _ : state) {
    store.Write(block, {block}, nullptr);
    block = (block + 1) % (1 << 22);
    if (block % 1024 == 0) {
      sim.Run();  // drain the disk queue
    }
  }
  sim.Run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchStoreWrite);

void BM_LocalCheckpointCycle(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    NodeConfig cfg;
    cfg.name = "pc1";
    cfg.id = 1;
    ExperimentNode node(&sim, Rng(1), cfg);
    LocalCheckpointEngine engine(&sim, &node, CheckpointPolicy{});
    node.domain().TouchMemory(64 << 20);
    bool done = false;
    sim.Schedule(kSecond, [&] {
      engine.CheckpointNow([&](const LocalCheckpointRecord&) { done = true; });
    });
    while (!done && sim.Now() < 60 * kSecond) {
      sim.RunUntil(sim.Now() + kSecond);
    }
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_LocalCheckpointCycle);

}  // namespace
}  // namespace tcsim

BENCHMARK_MAIN();
