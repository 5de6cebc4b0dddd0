#include "src/emulab/external_observer.h"

#include <string>

namespace tcsim {
namespace emulab {

namespace {

// SplitMix64 finalizer, matching the topology's id hashing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr uint32_t kNoTag = static_cast<uint32_t>(-1);

}  // namespace

uint32_t ExternalObserver::TagId(uint32_t src, uint32_t dst) {
  if (src >= tag_ids_.size()) {
    tag_ids_.resize(src + 1);
  }
  std::vector<uint32_t>& row = tag_ids_[src];
  if (dst >= row.size()) {
    row.resize(dst + 1, kNoTag);
  }
  if (row[dst] == kNoTag) {
    row[dst] = trace_.Intern(std::to_string(src) + ">" + std::to_string(dst));
  }
  return row[dst];
}

void ExternalObserver::Observe(const Packet& pkt, SimTime visible_at,
                               uint32_t src, uint32_t dst) {
  ++observed_;
  // The trace value folds the packet identity: the top 50 bits of a mixed
  // hash, exactly representable in a double (TraceRecord::value), so a
  // reordered, dropped or substituted packet flips the diff.
  const double value =
      static_cast<double>(Mix64(pkt.id ^ (uint64_t{pkt.size_bytes} << 1)) >> 14);
  trace_.Record(visible_at, TagId(src, dst), value);
}

void ExternalObserver::Clear() {
  trace_.Clear();
  tag_ids_.clear();
  observed_ = 0;
}

}  // namespace emulab
}  // namespace tcsim
