// The distributed coordinated checkpoint (Section 4.3).
//
// Scheduled mode: the coordinator publishes "checkpoint at time t", chosen
// far enough ahead for the notification to propagate; each participant
// suspends when its *own NTP-disciplined clock* reads t, so suspension skew
// is bounded by residual clock error rather than by network jitter.
// Event-driven mode publishes "checkpoint now"; skew is then bounded by
// notification propagation and processing jitter (measurably worse — the
// reason the paper prefers scheduled checkpoints).
//
// After all participants report their state saved (the barrier), the
// coordinator publishes a synchronized "resume at time r" so everyone
// resumes near-simultaneously.

#ifndef TCSIM_SRC_CHECKPOINT_COORDINATOR_H_
#define TCSIM_SRC_CHECKPOINT_COORDINATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/checkpoint/notification_bus.h"
#include "src/checkpoint/participant.h"
#include "src/clock/hardware_clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_session.h"
#include "src/sim/invariants.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

// Outcome of one distributed checkpoint.
struct DistributedCheckpointRecord {
  SimTime scheduled_local_time = 0;  // 0 for event-driven checkpoints
  SimTime resume_local_time = 0;
  size_t expected_participants = 0;  // barrier size when the round started
  std::vector<LocalCheckpointRecord> locals;

  // Spread of actual suspension instants across participants — the
  // coordinated checkpoint's precision.
  SimTime SuspendSkew() const;

  uint64_t TotalImageBytes() const;
};

// Sanity-checks one completed checkpoint record: the barrier collected
// exactly the expected number of locals, no participant appears twice, and —
// for scheduled checkpoints, when `scheduled_skew_bound` > 0 — the suspend
// skew stays within the clock-synchronization bound. Returns one message per
// violation (empty == sane). Exposed as a free function so tests can prove
// the audit fires on deliberately broken records.
std::vector<std::string> AuditCheckpointRecord(const DistributedCheckpointRecord& record,
                                               SimTime scheduled_skew_bound);

class DistributedCoordinator {
 public:
  // `boss_clock` is the coordinator's own synchronized clock; notifications
  // go out through `bus`.
  DistributedCoordinator(Simulator* sim, NotificationBus* bus, HardwareClock* boss_clock);

  DistributedCoordinator(const DistributedCoordinator&) = delete;
  DistributedCoordinator& operator=(const DistributedCoordinator&) = delete;

  // Publishes "checkpoint at now + lead" and, once the barrier completes,
  // "resume at <barrier + margin>". `done` fires after the resume time.
  void CheckpointScheduled(SimTime lead,
                           std::function<void(const DistributedCheckpointRecord&)> done);

  // Event-driven variant: "checkpoint now" on receipt.
  void CheckpointImmediate(std::function<void(const DistributedCheckpointRecord&)> done);

  // Like CheckpointScheduled, but the experiment is left suspended after the
  // barrier (stateful swap-out uses this); `saved` fires once every
  // participant has captured its state.
  void CheckpointScheduledAndHold(
      SimTime lead, std::function<void(const DistributedCheckpointRecord&)> saved);

  // Resumes a held checkpoint: publishes a synchronized resume. `resumed`
  // fires shortly after the resume instant.
  void ResumeAll(std::function<void()> resumed = nullptr);

  // Registers barrier-sanity audits (and event-driven duplicate reporting)
  // with `reg`. Completed rounds are checked with AuditCheckpointRecord; an
  // in-progress round must never have collected more locals than the
  // barrier expects. `scheduled_skew_bound` > 0 additionally bounds the
  // suspend skew of scheduled rounds (pass 0 to skip, e.g. for
  // non-transparent baselines).
  void RegisterInvariants(InvariantRegistry* reg, SimTime scheduled_skew_bound = 0);

  const std::vector<DistributedCheckpointRecord>& history() const { return history_; }
  bool in_progress() const { return in_progress_; }

  // Duplicate kDone messages observed (same participant reporting twice in
  // one round). Duplicates never count toward the barrier.
  uint64_t duplicate_done_count() const { return duplicate_done_count_; }

 private:
  void BeginRound(std::function<void(const DistributedCheckpointRecord&)> done, bool hold);
  // Starts a round that checkpoints at the coordinator's local now + lead.
  void BeginScheduledRound(SimTime lead,
                           std::function<void(const DistributedCheckpointRecord&)> done,
                           bool hold);
  void OnDone(const LocalCheckpointRecord& record);
  void FinishRound();
  // Closes the resume + epoch spans once the round's record is in history_.
  void EndEpochSpans();

  Simulator* sim_;
  NotificationBus* bus_;
  HardwareClock* boss_clock_;
  size_t expected_ = 0;  // barrier size of the current round
  // Slack between barrier completion and the synchronized resume instant.
  static constexpr SimTime kResumeMargin = 5 * kMillisecond;

  bool in_progress_ = false;
  bool hold_ = false;
  bool held_ = false;
  DistributedCheckpointRecord current_;
  std::unordered_set<std::string> done_participants_;
  std::function<void(const DistributedCheckpointRecord&)> done_cb_;
  std::vector<DistributedCheckpointRecord> history_;
  uint64_t duplicate_done_count_ = 0;
  InvariantRegistry* invariants_ = nullptr;

  // Telemetry. Counters are resolved once at construction; the epoch span and
  // its phase children (quiesce -> barrier -> resume) live on the
  // "coordinator" track. All no-ops while tracing is off.
  obs::Counter* rounds_counter_;
  obs::Counter* duplicate_done_counter_;
  obs::SpanId epoch_span_ = 0;
  obs::SpanId quiesce_span_ = 0;
  obs::SpanId barrier_span_ = 0;
  obs::SpanId resume_span_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_CHECKPOINT_COORDINATOR_H_
