// The external-observer boundary of the closed system.
//
// The paper's transparency property is defined against what the *outside
// world* can see of a running experiment: in Emulab that is the facility side
// of the control network — boss, ops, a user's tcpdump session — which keeps
// running while the experiment is checkpointed, killed, or restored. This
// observer models that vantage point for the HA subsystem: every packet the
// output-commit buffer releases across a partition (zone) boundary is also
// "visible on the wire" to the facility, so it is appended to a TraceLog in
// release order. Diffing the logs of a faulty and a fault-free run with
// TraceDiff is the test-enforced statement of failover transparency: an
// external observer cannot tell that a node died and was restored from a
// checkpoint.

#ifndef TCSIM_SRC_EMULAB_EXTERNAL_OBSERVER_H_
#define TCSIM_SRC_EMULAB_EXTERNAL_OBSERVER_H_

#include <cstdint>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace tcsim {
namespace emulab {

class ExternalObserver {
 public:
  // Records one committed boundary crossing: packet `pkt` from partition
  // `src` to partition `dst`, externally visible at `visible_at` (the
  // instant the output-commit buffer injected its delivery). Called in
  // deterministic release order on the coordinator thread.
  void Observe(const Packet& pkt, SimTime visible_at, uint32_t src,
               uint32_t dst);

  uint64_t observed() const { return observed_; }
  const TraceLog& trace() const { return trace_; }
  // Drops the trace, its tags and the tag-id cache.
  void Clear();

 private:
  // The trace's id for the tag "src>dst", interned on first use.
  uint32_t TagId(uint32_t src, uint32_t dst);

  TraceLog trace_;
  std::vector<std::vector<uint32_t>> tag_ids_;  // [src][dst]; -1 until interned
  uint64_t observed_ = 0;
};

}  // namespace emulab
}  // namespace tcsim

#endif  // TCSIM_SRC_EMULAB_EXTERNAL_OBSERVER_H_
