// One shard of a partitioned simulation.
//
// A Partition wraps a Simulator together with the only mutable state the
// parallel scheduler ever shares across threads on its behalf: an outbox of
// cross-partition events. During an execution window, events inside a
// partition append deliveries destined for sibling partitions to their own
// partition's outbox (single-writer: the thread currently running this
// partition). The scheduler drains every outbox between windows on the
// coordinator thread and injects each delivery into the destination
// partition's simulator, so no thread ever touches another partition's event
// queue. Conservative lookahead (see src/sim/scheduler.h) guarantees the
// delivery time is still in the destination's future when it is injected.

#ifndef TCSIM_SRC_SIM_PARTITION_H_
#define TCSIM_SRC_SIM_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

class PartitionScheduler;

class Partition {
 public:
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;
  ~Partition();

  uint32_t id() const { return id_; }
  Simulator* sim() const { return sim_; }

  // Posts `fn` to fire at absolute time `deliver_at` in partition `dst`'s
  // simulator. Must be called from code executing inside this partition (its
  // own events, or the coordinator between windows); the scheduler drains the
  // outbox at the next window barrier. For the injection to land in the
  // destination's future, `deliver_at` must be at least the source's current
  // time plus the scheduler lookahead — which holds by construction when the
  // caller is a cross-partition wire whose latency was registered via
  // PartitionScheduler::RegisterCrossLatency.
  void PostRemote(uint32_t dst, SimTime deliver_at, EventFn&& fn);

  // Cross-partition events this partition has originated (diagnostics).
  uint64_t remote_posted() const { return remote_posted_; }

 private:
  friend class PartitionScheduler;

  struct RemoteEvent {
    SimTime at;
    uint32_t dst;
    EventFn fn;
  };

  Partition(uint32_t id, Simulator* sim);

  uint32_t id_;
  Simulator* sim_;
  std::vector<RemoteEvent> outbox_;
  uint64_t remote_posted_ = 0;
  QueueGuard guard_;  // installed on sim_'s queue; owner set per window
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_PARTITION_H_
