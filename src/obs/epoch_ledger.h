// Per-epoch critical-path ledger — the causal-timing half of the telemetry
// layer (the TraceSession records *what* happened on the simulated timeline;
// the ledger records *where the wall-clock went* inside each checkpoint
// epoch's pipeline).
//
// Since the two-phase capture and HA PRs an epoch is a concurrent pipeline:
//
//        window ─ commit_wait ─ freeze ─┬─ output_release ─ (next window)
//          │                            │
//          │        (parallel, workers) ├ freeze.partition[p]  p = 0..P-1
//          │                            │
//          └ (overlapped, background)   └ commit: serialize.partition[p] →
//                repo.hash_wait → repo.append → repo.fsync → repo.journal
//
// (repo.hash_wait times the group commit's inline parse and hash of every
// image: nothing is waited for.)
//
// Every participant stamps {epoch, partition, phase, begin, end, cause}
// records. Stamps go lock-free into fixed per-shard buffers: shard p is
// written only by the worker thread running partition p during a
// ForEachPartition phase, the coordinator shard only by the coordinator
// thread between windows, and the commit shard only by the (single, joined
// before the next launches) background-commit thread — exactly the
// single-writer discipline the scheduler's phase barriers already enforce,
// so recording needs no atomics on the stamp path and no allocation beyond
// the shard vector's growth on the owning thread.
//
// The perturbation-free rule (DESIGN.md §10) applies unchanged: the ledger
// reads only the wall clock, never the simulator, never the RNG — a run with
// the ledger enabled is digest-identical to one without (tests enforce it).
//
// Export merges the shards deterministically: records are stably ordered by
// (epoch, phase rank, partition, shard, emission order), so two runs of the
// same workload produce ledgers that differ only in the measured times —
// the structure diffs cleanly, which is what tools/tcsim_analyze consumes.

#ifndef TCSIM_SRC_OBS_EPOCH_LEDGER_H_
#define TCSIM_SRC_OBS_EPOCH_LEDGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace tcsim {
namespace obs {

// One phase occurrence. `phase` and `cause` must be string literals (stored
// by pointer, like TraceSession span names). Times are wall-clock ms since
// Enable() — the ledger attributes *wall* time; the simulated timeline
// already has the TraceSession.
struct LedgerRecord {
  static constexpr size_t kMaxArgs = 3;
  struct Arg {
    const char* key = "";
    double value = 0.0;
  };

  uint64_t epoch = 0;      // 1-based epoch index (0 = outside any epoch)
  int32_t partition = -1;  // -1 = system-wide (coordinator / commit thread)
  const char* phase = "";
  double begin_ms = 0.0;
  double end_ms = 0.0;
  const char* cause = "";
  Arg args[kMaxArgs];
  uint8_t nargs = 0;
};

class EpochLedger {
 public:
  // Shard layout: one shard per partition (single writer: the worker thread
  // that owns the partition during a ForEachPartition phase), one for the
  // coordinator thread, one for the background-commit thread. Partitions
  // beyond the shard budget drop their stamps (counted) rather than race.
  static constexpr uint32_t kMaxPartitionShards = 61;
  static constexpr uint32_t kCoordinatorShard = kMaxPartitionShards;
  static constexpr uint32_t kCommitShard = kMaxPartitionShards + 1;
  static constexpr uint32_t kShards = kMaxPartitionShards + 2;

  EpochLedger() = default;
  EpochLedger(const EpochLedger&) = delete;
  EpochLedger& operator=(const EpochLedger&) = delete;

  // The process-wide ledger every epoch participant stamps into.
  static EpochLedger& Global();

  // Arms recording: clears held records and re-bases the wall clock. Must
  // not race in-flight stamps (call between runs, like TraceSession::Start*).
  void Enable();
  // Stops recording; held records stay exportable.
  void Disable();
  void Clear();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Wall milliseconds since the last Enable() (since an arbitrary fixed
  // instant if never enabled). Read whether or not recording is on, so a
  // layer derives its own wall-time figures from the readings it stamps.
  double NowMs() const;

  // Appends `rec` to `shard`. The caller must be the shard's single writer
  // (see the layout comment above). No-op when disabled; out-of-range shards
  // count as dropped.
  void Stamp(uint32_t shard, const LedgerRecord& rec);

  // Thread context for layers that stamp without knowing their shard or
  // epoch (the repository's group commit, failover, output release). The
  // epoch coordinator binds the coordinator thread per epoch; the background
  // commit thread binds itself. StampHere on an unbound thread drops the
  // record (counted) — never races a shard it does not own.
  static void BindThread(uint32_t shard, uint64_t epoch);
  static void UnbindThread();
  void StampHere(int32_t partition, const char* phase, double begin_ms,
                 double end_ms, const char* cause,
                 std::initializer_list<LedgerRecord::Arg> args = {});
  // The epoch bound to this thread (0 when unbound) — lets a layer label
  // secondary stamps consistently with its caller's.
  static uint64_t BoundEpoch();

  size_t recorded() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Deterministic merge of every shard: stable order (epoch, phase rank,
  // partition, shard, emission order). Call only when no stamps are in
  // flight (after the scheduler's joins — the same rule every exporter in
  // obs already follows).
  std::vector<LedgerRecord> Merged() const;

  // One JSON object per line:
  //   {"epoch": k, "partition": p, "phase": "...", "begin_ms": b,
  //    "end_ms": e, "cause": "...", "args": {...}}
  std::string ExportJsonl() const;
  bool WriteJsonl(const std::string& path) const;

  // Rank used by the deterministic merge — exposed so the analyzer orders
  // phases the same way. Unknown phases rank last.
  static int PhaseRank(const char* phase);

 private:
  // Each shard is written by exactly one thread; the alignment keeps the
  // shards' vector headers off each other's cache lines.
  struct alignas(64) Shard {
    std::vector<LedgerRecord> records;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point base_{};
  std::array<Shard, kShards> shards_;
};

}  // namespace obs
}  // namespace tcsim

#endif  // TCSIM_SRC_OBS_EPOCH_LEDGER_H_
