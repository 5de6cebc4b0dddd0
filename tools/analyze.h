// Epoch-ledger analysis: the critical-path / latency-attribution engine
// behind tools/tcsim_analyze (and, linked as a library, behind the tcbench
// benchmark's per-layer shares).
//
// Input is an epoch ledger — either the in-memory records of
// obs::EpochLedger::Merged() or a JSONL file it exported. The "epoch"
// records tile the run's wall clock into segments (one per committed
// epoch: segment k runs from the close of epoch k-1's capture to the close
// of epoch k's); every other coordinator-thread record is a *serial* phase
// that lands inside exactly one segment. The analyzer computes, per epoch:
//
//   - the critical path: the serial phases in execution order with their
//     wall-time shares of the segment;
//   - coverage: attributed serial time / segment wall time. The stamps are
//     contiguous on the coordinator thread, so anything below ~1.0 is
//     bookkeeping between phases. It is a wall-clock ratio: reported, and
//     never a reason for a bench to fail.
//   - the straggler: the partition whose freeze/capture took longest, and
//     its slack over the runner-up — the time the barrier sat waiting on
//     one partition;
//   - frozen vs overlapped time: what the system stalled for (freeze, or
//     capture+spill in sync mode) vs what the background commit absorbed;
//   - commit-wait attribution: when epoch k's commit_wait is nonzero, which
//     phase of epoch k-1's background commit (serialize, hashing, segment
//     fsync, journal) it was actually waiting on;
//   - output-hold stats from the release stamps' args.
//
// Everything here is plain data in, plain data out: no simulator, no global
// state, deterministic for a given ledger.

#ifndef TCSIM_TOOLS_ANALYZE_H_
#define TCSIM_TOOLS_ANALYZE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/epoch_ledger.h"

namespace tcsim {
namespace tools {

// A ledger record with owned strings — what the JSONL parser produces and
// what FromLedger converts obs::LedgerRecord (literal-pointer phases) into.
struct AnalyzerRecord {
  uint64_t epoch = 0;
  int32_t partition = -1;
  std::string phase;
  double begin_ms = 0.0;
  double end_ms = 0.0;
  std::string cause;
  std::vector<std::pair<std::string, double>> args;

  double duration_ms() const { return end_ms - begin_ms; }
  double ArgOr(const std::string& key, double fallback) const;
};

// One serial phase occurrence on an epoch's critical path.
struct PhaseShare {
  std::string phase;
  std::string cause;
  double ms = 0.0;
  double share = 0.0;  // ms / epoch wall
};

struct EpochAnalysis {
  uint64_t epoch = 0;
  std::string mode;          // the epoch record's cause: "sync" or "async"
  double span_begin_ms = 0.0;
  double span_end_ms = 0.0;
  double wall_ms = 0.0;        // span_end - span_begin
  double attributed_ms = 0.0;  // sum of serial-phase durations in the span
  double coverage = 1.0;       // attributed / wall (1 when wall is ~0)
  std::vector<PhaseShare> critical_path;  // serial phases, longest first

  // Straggler: slowest freeze.partition / capture.partition of this epoch.
  int32_t straggler_partition = -1;
  double straggler_ms = 0.0;
  double straggler_slack_ms = 0.0;  // slowest minus runner-up

  // Stall vs overlap: frozen = freeze (async) or capture+spill (sync);
  // overlapped = the background commit's wall time for this epoch's images.
  double frozen_ms = 0.0;
  double overlapped_ms = 0.0;

  // Commit-wait attribution: this epoch's commit_wait duration and the
  // dominant phase of the *previous* epoch's background commit (what the
  // join was actually waiting for). Empty when there was nothing in flight.
  double commit_wait_ms = 0.0;
  std::string commit_wait_dominant;

  // Output-hold stats carried on this segment's release stamp.
  double released = 0.0;
  double hold_max_us = 0.0;
  double hold_mean_us = 0.0;
};

struct LedgerAnalysis {
  std::vector<EpochAnalysis> epochs;
  size_t records = 0;
  double total_wall_ms = 0.0;
  double min_coverage = 1.0;  // min over epochs (1 when no epochs)
  // Aggregate serial-phase attribution across all epochs: phase -> total ms,
  // sorted by descending total.
  std::vector<std::pair<std::string, double>> phase_totals_ms;
  // Nearest-rank percentiles over the per-epoch hold_max_us samples.
  double hold_p50_us = 0.0;
  double hold_p99_us = 0.0;
  // Structural problems found while analyzing (self-check failures).
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

// Converts the in-memory ledger (literal-pointer strings) to owned records.
std::vector<AnalyzerRecord> FromLedger(
    const std::vector<obs::LedgerRecord>& records);

// Parses one exported JSONL line. Returns false (with *err set) on records
// missing a required key, with an epoch that is not an integer in [0, 2^53],
// a partition that is not an integer in [-1, INT32_MAX], or a non-finite
// begin_ms or end_ms; blank lines return false with *err empty.
bool ParseJsonlLine(const std::string& line, AnalyzerRecord* out,
                    std::string* err);

// Loads a ledger file exported by obs::EpochLedger::WriteJsonl.
bool LoadJsonl(const std::string& path, std::vector<AnalyzerRecord>* out,
               std::string* err);

// The analysis itself. Never fails: structural problems land in `errors`
// and the affected epochs carry best-effort numbers.
LedgerAnalysis Analyze(const std::vector<AnalyzerRecord>& records);

// Human-readable report (per-epoch table + aggregate attribution).
std::string ReportText(const LedgerAnalysis& analysis);
// Machine-readable report (one JSON object).
std::string ReportJson(const LedgerAnalysis& analysis);
// Side-by-side aggregate comparison for --diff: phase totals, coverage and
// straggler movement between a baseline and the current ledger.
std::string DiffText(const LedgerAnalysis& baseline,
                     const LedgerAnalysis& current);

}  // namespace tools
}  // namespace tcsim

#endif  // TCSIM_TOOLS_ANALYZE_H_
