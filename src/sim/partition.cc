#include "src/sim/partition.h"

namespace tcsim {

Partition::Partition(uint32_t id, Simulator* sim) : id_(id), sim_(sim) {
  sim_->InstallQueueGuard(&guard_);
}

Partition::~Partition() { sim_->InstallQueueGuard(nullptr); }

}  // namespace tcsim
