#include "src/sim/partition.h"

#include <utility>

namespace tcsim {

Partition::Partition(uint32_t id, Simulator* sim) : id_(id), sim_(sim) {
  sim_->InstallQueueGuard(&guard_);
}

Partition::~Partition() { sim_->InstallQueueGuard(nullptr); }

void Partition::PostRemote(uint32_t dst, SimTime deliver_at, EventFn&& fn) {
  outbox_.push_back(RemoteEvent{deliver_at, dst, std::move(fn)});
  ++remote_posted_;
}

}  // namespace tcsim
