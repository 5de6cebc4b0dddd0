// Continuous micro-checkpointing over the partitioned kernel.
//
// The paper checkpoints an experiment on demand; high availability needs the
// same machinery running *continuously*: capture an epoch every few
// simulated milliseconds, commit it (in memory, and through the repository's
// group commit when one is attached), buffer externally visible output until
// its covering epoch has committed, and on a crash restore the victim from
// the newest committed image and replay it back into the schedule. This is
// the Remus / qemu-MC protocol transplanted onto the epoch coordinator.
//
// Epoch/commit/release cadence (DESIGN.md §14). Let P be the period and
// lag = min(max_in_flight_epochs, 1):
//   - lag 0: synchronous capture; epoch k is committed at its own barrier kP.
//   - lag 1: two-phase capture; epoch k's serialize/hash/spill overlaps the
//     next window and is joined at barrier (k+1)P — so at any barrier the
//     newest *committed* epoch is the previous one, and a kill inside window
//     (kP, (k+1)P] finds epoch k's commit possibly still in flight.
// Release at barrier kP covers held output with send_time <= (k - lag)P; a
// restore inside window (kP, (k+1)P] targets epoch k - lag. Both are
// functions of epoch arithmetic only — never of wall-clock commit timing —
// which is what makes a faulty and a fault-free run release identical output
// sequences (the transparency property the tests diff).
//
// The driver loop stops the system at every epoch barrier and at every
// scheduled fault instant. Faults therefore land at quiescent points, where
// kill/restore/replay touches only the victim while survivors' state sits
// untouched — and where a seeded schedule replays bit-identically.

#ifndef TCSIM_SRC_HA_MICRO_CHECKPOINTER_H_
#define TCSIM_SRC_HA_MICRO_CHECKPOINTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/checkpoint/epoch_coordinator.h"
#include "src/emulab/external_observer.h"
#include "src/ha/failover.h"
#include "src/ha/fault_injector.h"
#include "src/ha/output_buffer.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/time.h"

namespace tcsim {
namespace ha {

struct MicroCheckpointPolicy {
  SimTime period = kMillisecond;  // micro-checkpoint cadence

  // 0: synchronous capture (commit visible at the epoch's own barrier).
  // >= 1: two-phase capture with the commit overlapping the next window
  // (the coordinator keeps at most one commit in flight).
  uint32_t max_in_flight_epochs = 1;

  // Hold cross-partition egress until the covering epoch commits. Required
  // for kill faults (release-on-commit is what makes replay duplication
  // impossible); turn off only for the sync-bypass digest oracle.
  bool buffer_output = true;

  // Gate release on the epoch's repository batch having committed (needs an
  // attached repository). Restore still uses the newest in-memory committed
  // epoch — the in-memory tier is the failover tier; durability only gates
  // what escapes to the outside world.
  bool require_durable_commit = false;
};

class MicroCheckpointer {
 public:
  // `topo` must outlive this object. Takes the epoch-0 bootstrap capture of
  // every partition's whole walk; construct before running.
  MicroCheckpointer(GeneratedTopology* topo, MicroCheckpointPolicy policy);
  ~MicroCheckpointer();

  MicroCheckpointer(const MicroCheckpointer&) = delete;
  MicroCheckpointer& operator=(const MicroCheckpointer&) = delete;

  // Spill every epoch through `repo`'s group commit (see
  // PartitionEpochCoordinator::AttachRepository). Null detaches.
  void AttachRepository(CheckpointRepo* repo);

  // Faults dispatched by the driver loop. Not owned; null detaches.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  // Facility-side observer of released output. Not owned; null detaches.
  void SetObserver(emulab::ExternalObserver* observer);

  // Advances the whole system to `t`, micro-checkpointing on the way and
  // dispatching due faults. Resumable. On return every partition's clock
  // reads t and any in-flight commit has joined.
  void RunUntil(SimTime t);

  const MicroCheckpointPolicy& policy() const { return policy_; }
  PartitionEpochCoordinator* coordinator() { return coordinator_.get(); }
  OutputCommitBuffer* output_buffer() { return buffer_.get(); }
  FailoverManager* failover() { return failover_.get(); }

  // Newest committed epoch (0 until the first commit lands).
  uint64_t epochs_committed() const { return latest_.epoch; }

 private:
  uint32_t lag() const { return policy_.max_in_flight_epochs > 0 ? 1 : 0; }
  // Barrier bookkeeping: harvest the newly committed epoch, advance the
  // release cutoff, release held output, prune the replay log.
  void OnBarrier(SimTime barrier);
  void DispatchFaults(SimTime now);

  GeneratedTopology* topo_;
  MicroCheckpointPolicy policy_;
  std::unique_ptr<PartitionEpochCoordinator> coordinator_;
  std::unique_ptr<OutputCommitBuffer> buffer_;  // null when buffering is off
  std::unique_ptr<FailoverManager> failover_;
  FaultInjector* faults_ = nullptr;
  CheckpointRepo* repo_ = nullptr;
  CommittedEpoch latest_;        // restore tier: newest committed epoch
  uint64_t durable_epoch_ = 0;   // newest epoch of the unbroken durable chain
  SimTime now_ = 0;
  obs::Counter* epochs_counter_;
};

}  // namespace ha
}  // namespace tcsim

#endif  // TCSIM_SRC_HA_MICRO_CHECKPOINTER_H_
