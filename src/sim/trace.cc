#include "src/sim/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace tcsim {

namespace {
constexpr const char* kEndOfTrace = "<end-of-trace>";
}  // namespace

std::string TraceDiff::Describe() const {
  if (comparable) {
    return "comparable";
  }
  std::ostringstream out;
  out << "diverged at record " << first_mismatch << ": '" << mismatch_a
      << "' vs '" << mismatch_b << "'";
  return out.str();
}

uint32_t TraceLog::Intern(std::string_view tag) {
  const auto it = std::find(tags_.begin(), tags_.end(), tag);
  if (it != tags_.end()) {
    return static_cast<uint32_t>(it - tags_.begin());
  }
  tags_.emplace_back(tag);
  return static_cast<uint32_t>(tags_.size() - 1);
}

TraceDiff TraceLog::Compare(const TraceLog& other) const {
  // Tag ids are per log: map each of ours to the id `other` gave the same
  // name (or to none), so the record loop compares names by comparing ids.
  constexpr uint32_t kUnknown = static_cast<uint32_t>(-1);
  std::vector<uint32_t> to_other(tags_.size(), kUnknown);
  for (size_t t = 0; t < tags_.size(); ++t) {
    const auto it = std::find(other.tags_.begin(), other.tags_.end(), tags_[t]);
    if (it != other.tags_.end()) {
      to_other[t] = static_cast<uint32_t>(it - other.tags_.begin());
    }
  }
  TraceDiff diff;
  const size_t common = std::min(records_.size(), other.records_.size());
  for (size_t i = 0; i < common; ++i) {
    const TraceRecord& a = records_[i];
    const TraceRecord& b = other.records_[i];
    if (to_other[a.tag_id] != b.tag_id) {
      // First tag divergence: pinpoint it even when the lengths also differ
      // (a shape change usually starts with one extra or missing record).
      diff.first_mismatch = i;
      diff.mismatch_a = tag(a);
      diff.mismatch_b = other.tag(b);
      return diff;
    }
    diff.max_time_delta =
        std::max(diff.max_time_delta, std::abs(a.virtual_time - b.virtual_time));
    diff.max_value_delta = std::max(diff.max_value_delta, std::abs(a.value - b.value));
  }
  if (records_.size() != other.records_.size()) {
    // The common prefix agrees; one side simply has more records.
    diff.first_mismatch = common;
    diff.mismatch_a =
        common < records_.size() ? tag(records_[common]) : kEndOfTrace;
    diff.mismatch_b = common < other.records_.size()
                          ? other.tag(other.records_[common])
                          : kEndOfTrace;
    return diff;
  }
  diff.comparable = true;
  diff.records = records_.size();
  return diff;
}

}  // namespace tcsim
