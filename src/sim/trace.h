// Guest-observable trace recording.
//
// The transparency property at the heart of the paper is "a run of the system
// with checkpointing is the same as it would be without checkpointing *as
// observed from within the system*". Tests capture that observation stream as
// a TraceLog of (virtual timestamp, tag, value) records and diff two runs.

#ifndef TCSIM_SRC_SIM_TRACE_H_
#define TCSIM_SRC_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.h"

namespace tcsim {

// One observation made from inside the system under test.
struct TraceRecord {
  SimTime virtual_time = 0;  // timestamp as seen by the guest
  uint32_t tag_id = 0;       // what was observed: TraceLog::tag names it
  double value = 0.0;        // observation payload (e.g. measured latency)
};
static_assert(sizeof(TraceRecord) == 24, "observer traces hold millions");

// Result of comparing two traces record-by-record.
struct TraceDiff {
  // No record index.
  static constexpr size_t kNoMismatch = static_cast<size_t>(-1);

  bool comparable = false;       // same length and same tag sequence
  SimTime max_time_delta = 0;    // max |virtual_time difference|
  double max_value_delta = 0.0;  // max |value difference|
  size_t records = 0;

  // When comparable == false, where the traces diverged: the index of the
  // first record whose tags differ, or — if the common prefix agrees — the
  // length of the shorter trace (one side simply ended). The two mismatching
  // tags are captured for the failure message; a trace that ran out of
  // records reports "<end-of-trace>". kNoMismatch when comparable.
  size_t first_mismatch = kNoMismatch;
  std::string mismatch_a;
  std::string mismatch_b;

  // "comparable" or "diverged at record N: 'x' vs 'y'" — the one-line
  // explanation transparency-test failures print.
  std::string Describe() const;
};

// Append-only log of guest observations. Tags (e.g. "iter", "recv") are
// interned in a per-log table, so a record is 24 bytes however long its tag;
// tag ids mean nothing across logs. A log names only a handful of tags, so
// the table is searched linearly.
class TraceLog {
 public:
  // The id of `tag` in this log's table, adding it if new.
  uint32_t Intern(std::string_view tag);

  void Record(SimTime virtual_time, uint32_t tag_id, double value) {
    records_.push_back({virtual_time, tag_id, value});
  }
  void Record(SimTime virtual_time, std::string_view tag, double value) {
    Record(virtual_time, Intern(tag), value);
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  const std::string& tag(const TraceRecord& rec) const {
    return tags_[rec.tag_id];
  }
  size_t size() const { return records_.size(); }
  // Drops the records and the tag table together.
  void Clear() {
    records_.clear();
    tags_.clear();
  }

  // Record-by-record comparison with another trace, by tag name. Traces of
  // different lengths or differing tag sequences yield comparable == false.
  TraceDiff Compare(const TraceLog& other) const;

 private:
  std::vector<TraceRecord> records_;
  std::vector<std::string> tags_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_TRACE_H_
