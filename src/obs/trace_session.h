// Structured span recording across the checkpoint pipeline — the timeline
// half of the telemetry layer.
//
// A TraceSession records begin/end spans and instant events, threaded by
// *simulated* time (the only clock that means anything inside the modelled
// testbed) and grouped into named tracks (one per node, plus "coordinator"
// and "emulab"). It is not thread-safe: only the paper stack writes it, from
// its single simulation thread. The repository, the epoch coordinator and HA,
// which also run on worker and commit threads, stamp the EpochLedger instead.
// Two export formats:
//
//   - Chrome trace JSON ("X" complete events + thread-name metadata): open
//     the file at chrome://tracing or ui.perfetto.dev and the coordinator
//     epoch, per-node capture phases and repo spills render as a nested
//     timeline.
//   - A compact text table aggregating spans by (track, name): count, total
//     and mean duration — the phase-timing table EXPERIMENTS.md quotes.
//
// Recording modes:
//   - kOff (default): Begin/End/Instant are cheap no-ops (one flag test).
//   - kFull: every record kept (bench --trace=<file>).
//   - kRing: bounded ring buffer — the crash flight recorder. The newest N
//     records survive wraparound; on the first invariant-audit violation the
//     tail is dumped automatically (InstallAuditDump), so a transparency
//     violation comes with the timeline that led up to it.
//
// The perturbation-free rule: a TraceSession never schedules events, never
// reads the RNG, never mutates anything a component observes. Running with
// tracing fully on must leave Simulator::Digest() bit-identical to running
// with it compiled-in-but-off; tests/obs_test.cc enforces exactly that.

#ifndef TCSIM_SRC_OBS_TRACE_SESSION_H_
#define TCSIM_SRC_OBS_TRACE_SESSION_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace tcsim {
namespace obs {

// Identifies an open span. 0 = invalid (recording was off at Begin, or the
// ring buffer has since overwritten the record); End/AddSpanArg on it are
// no-ops, so callers never need to test it.
using SpanId = uint64_t;

// One numeric annotation. `key` must outlive the session (string literals).
struct TraceArg {
  const char* key;
  double value;
};

class TraceSession {
 public:
  enum class Mode { kOff, kFull, kRing };

  static constexpr size_t kMaxArgs = 6;
  static constexpr size_t kDefaultRingCapacity = 4096;

  TraceSession() = default;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // The process-wide session every layer records into.
  static TraceSession& Global();

  // Starting a session clears previously held records.
  void StartFull();
  void StartRing(size_t capacity = kDefaultRingCapacity);
  // Stops recording; held records stay exportable.
  void Stop();
  void Clear();

  Mode mode() const { return mode_; }
  bool enabled() const { return mode_ != Mode::kOff; }

  // --- Recording -------------------------------------------------------------
  // `name` must be a string literal (stored by pointer); `track` may be any
  // string (interned on first use).

  SpanId BeginSpan(const std::string& track, const char* name, SimTime t);
  void EndSpan(SpanId id, SimTime t);
  void AddSpanArg(SpanId id, const char* key, double value);
  void Instant(const std::string& track, const char* name, SimTime t,
               std::initializer_list<TraceArg> args = {});

  // --- Introspection ---------------------------------------------------------

  size_t recorded() const { return records_.size(); }
  uint64_t total_events() const { return next_id_ - 1; }
  uint64_t dropped() const { return dropped_; }

  // --- Export ----------------------------------------------------------------

  // Both exporters are fully deterministic: records are ordered by (track
  // name, begin time, span id) and track ids are assigned by sorted track
  // name, so two runs of the same workload — whose threads may intern tracks
  // in different orders — produce byte-identical artifacts that diff cleanly.
  std::string ExportChromeJson() const;
  std::string ExportSummaryTable() const;
  // The newest `n` records, oldest first — the flight-recorder dump.
  std::string DumpTail(size_t n) const;

  // Installs the process-wide invariant-violation hook: the first violation
  // any InvariantRegistry records dumps this session's newest `tail` records
  // through the audit-dump sink (stderr by default). Subsequent violations
  // in the same process are recorded as usual but do not re-dump.
  void InstallAuditDump(size_t tail = 64);

  // Redirects the audit dump (tests). Null restores stderr.
  static void SetAuditDumpSink(std::function<void(const std::string&)> sink);

 private:
  struct Record {
    uint64_t id = 0;       // global sequence number, 1-based
    uint32_t track = 0;
    uint8_t kind = 0;      // 0 = span, 1 = instant
    uint8_t nargs = 0;
    const char* name = "";
    SimTime begin = 0;
    SimTime end = -1;      // spans: -1 while open
    TraceArg args[kMaxArgs];
  };

  uint32_t InternTrack(const std::string& track);
  // Deterministic export order: tid remap (intern index -> sorted-name rank)
  // and record pointers sorted by (track name, begin, id).
  void SortedView(std::vector<uint32_t>* tid_map,
                  std::vector<const Record*>* ordered) const;
  Record* Place(Record rec);     // appends (full) or overwrites (ring)
  Record* Find(SpanId id);
  const Record* ChronoRecord(size_t i) const;  // i-th oldest held record
  static void FormatRecord(const Record& rec, const std::vector<std::string>& tracks,
                           std::string* out);

  Mode mode_ = Mode::kOff;
  size_t capacity_ = 0;  // ring mode only
  std::vector<Record> records_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<std::string> tracks_;
  std::unordered_map<std::string, uint32_t> track_index_;
};

}  // namespace obs
}  // namespace tcsim

#endif  // TCSIM_SRC_OBS_TRACE_SESSION_H_
