// One shard of a partitioned simulation.
//
// A Partition wraps a Simulator together with the queue guard the parallel
// scheduler tags with the thread running it each window. Partitions share no
// mutable state: a packet that crosses a partition cut travels as data
// through the topology's partition boundary (src/net/boundary.h), which the
// scheduler steps between windows on the coordinator thread, so no thread
// ever touches another partition's event queue.

#ifndef TCSIM_SRC_SIM_PARTITION_H_
#define TCSIM_SRC_SIM_PARTITION_H_

#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace tcsim {

class PartitionScheduler;

class Partition {
 public:
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;
  ~Partition();

  uint32_t id() const { return id_; }
  Simulator* sim() const { return sim_; }

 private:
  friend class PartitionScheduler;

  Partition(uint32_t id, Simulator* sim);

  uint32_t id_;
  Simulator* sim_;
  QueueGuard guard_;  // installed on sim_'s queue; owner set per window
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_PARTITION_H_
