// Conservative-lookahead scheduler for partitioned simulations.
//
// The simulation is split into partitions (one Simulator each, joined only by
// fixed-latency cross-partition links). The scheduler repeatedly computes the
// next conservative window and runs every partition with work in it — on a
// worker pool when Options::workers > 0, or inline on the calling thread when
// workers == 0, which *is* the single-threaded oracle: the sequential
// execution of the identical partitioned configuration.
//
// Window rule: let next = min over partitions of NextEventTime() and L = the
// minimum registered cross-partition link latency. Any event a partition
// sends during the window arrives no earlier than next + L, so every event
// with time <= bound := next + L - 1 can run without waiting for remote
// input. Each partition with NextEventTime() <= bound runs RunUntil(bound)
// concurrently; after the window the coordinator runs the boundary step
// (SetBoundary), which injects the window's cross-partition deliveries into
// their destination simulators in a total deterministic order (see
// src/net/boundary.h). The strict alternation of windows and boundary steps
// is identical in sequential and parallel mode, which is why the
// per-partition digests (and hence their merge) are bit-identical across
// modes.
//
// With no registered cross links the lookahead is unbounded and RunUntil
// degenerates to a single window — each partition free-runs to the target.

#ifndef TCSIM_SRC_SIM_SCHEDULER_H_
#define TCSIM_SRC_SIM_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/partition.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

class PartitionScheduler {
 public:
  struct Options {
    // Extra worker threads. The coordinator thread also executes window
    // tasks, so `workers = N-1` gives N-way parallelism. 0 = sequential
    // oracle (no threads, byte-identical digests to the parallel run).
    uint32_t workers = 0;
  };

  struct Stats {
    uint64_t windows = 0;       // conservative windows executed
    uint64_t cross_events = 0;  // deliveries injected across partitions
  };

  PartitionScheduler();  // sequential (workers = 0)
  explicit PartitionScheduler(Options options);
  PartitionScheduler(const PartitionScheduler&) = delete;
  PartitionScheduler& operator=(const PartitionScheduler&) = delete;
  ~PartitionScheduler();

  // Registers `sim` as a partition. Call for every partition before the
  // first RunUntil; the scheduler does not own the Simulator.
  Partition* AddPartition(Simulator* sim);

  // Declares a cross-partition link of latency `latency` (> 0). The
  // conservative lookahead is the minimum over all registered latencies.
  void RegisterCrossLatency(SimTime latency);

  // Installs the between-window step: called on the coordinator thread after
  // every window with the window's inclusive bound, it injects what crossed
  // a partition cut during the window and returns the number of deliveries
  // injected (Stats::cross_events). Nothing is delivered across partitions
  // without it.
  void SetBoundary(std::function<uint64_t(SimTime bound)> step) {
    boundary_step_ = std::move(step);
  }

  // Advances every partition to exactly `t`: all events with time <= t have
  // fired, all cross-partition deliveries with time <= t are applied, every
  // clock reads t. This is the quiescent point checkpoint epochs capture at.
  void RunUntil(SimTime t);

  // Runs `fn(partition)` for every partition, one task per partition, on the
  // worker pool (inline when sequential). Used for parallel checkpoint
  // capture at an epoch barrier; `fn` must touch only its partition.
  void ForEachPartition(const std::function<void(Partition*)>& fn);

  // Deterministic merge of the per-partition digest set: an FNV-1a fold, in
  // partition-id order, of (id, event digest, events processed). Bit-identical
  // between a sequential (workers == 0) and parallel run of one workload.
  uint64_t MergedDigest() const;

  uint64_t TotalEvents() const;

  // Sum of queue-guard violations across partitions; must be 0 (see
  // QueueGuard in src/sim/event_queue.h).
  uint64_t GuardViolations() const;

  size_t partition_count() const { return partitions_.size(); }
  Partition* partition(size_t i) const { return partitions_[i].get(); }
  SimTime lookahead() const { return lookahead_; }
  bool parallel() const { return !threads_.empty(); }
  const Stats& stats() const { return stats_; }

 private:
  enum class PhaseKind { kWindow, kCustom };

  // Runs `count` tasks of the current phase across the pool (or inline),
  // returning once all have finished.
  void ExecutePhase(size_t count);
  void RunTask(size_t i);
  size_t PullTasks();
  void WorkerMain();

  Options options_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  SimTime lookahead_ = kNoPendingEvent;  // unbounded until a link registers
  std::function<uint64_t(SimTime)> boundary_step_;
  Stats stats_;

  // Phase parameters, written by the coordinator before it publishes a new
  // phase and read-only while the phase runs.
  PhaseKind phase_kind_ = PhaseKind::kWindow;
  SimTime window_bound_ = 0;
  std::vector<size_t> active_;  // partition indices with work this window
  const std::function<void(Partition*)>* custom_fn_ = nullptr;

  // Pool state. All handoffs go through mu_ / the two condvars plus the two
  // atomics, so the pool is clean under TSan.
  //
  // task_word_ packs the phase's task count (high 32 bits) and the next
  // unclaimed index (low 32 bits) into one atomic. The coordinator publishes
  // a phase with a single release store of (count << 32 | 0); workers claim
  // with fetch_add(1) and check the index against the count carried in the
  // very same word. That makes every claim self-validating: a straggler from
  // a finished phase whose fetch_add lands before the next publication reads
  // that finished phase's (exhausted) count and bails, and one whose
  // fetch_add lands after it has acquire-synchronized with the full set of
  // new-phase parameters, so running the claimed task is safe. With the
  // count and index split across two atomics a stale claim could be checked
  // against the *new* count and then be handed out a second time by the
  // index reset — double-running a partition and underflowing remaining_.
  static constexpr int kTaskIndexBits = 32;
  static constexpr uint64_t kTaskIndexMask =
      (uint64_t{1} << kTaskIndexBits) - 1;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> phase_epoch_{0};
  std::atomic<uint64_t> task_word_{0};
  size_t remaining_ = 0;    // guarded by mu_
  bool shutdown_ = false;   // guarded by mu_
  std::atomic<bool> executing_{false};  // guard phase flag (see QueueGuard)
  std::vector<std::thread> threads_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_SCHEDULER_H_
