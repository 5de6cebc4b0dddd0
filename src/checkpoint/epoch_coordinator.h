// Checkpoint epochs over a partitioned simulation.
//
// The paper's distributed checkpoint needs every node stopped at one instant;
// in the partitioned kernel that instant is a scheduler barrier.
// PartitionScheduler::RunUntil(epoch) quiesces the whole system — every
// partition has fired all events up to the epoch, every cross-partition
// delivery due by then has been applied, and every clock reads exactly the
// epoch time, because conservative windows never cross the target. At that
// barrier the coordinator captures one checkpoint image per partition (on the
// scheduler's worker pool, so capture cost scales with partitions like event
// dispatch does) before releasing the next window.

#ifndef TCSIM_SRC_CHECKPOINT_EPOCH_COORDINATOR_H_
#define TCSIM_SRC_CHECKPOINT_EPOCH_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/epoch_ledger.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/digest.h"
#include "src/sim/partition.h"
#include "src/sim/scheduler.h"
#include "src/sim/staging.h"
#include "src/sim/time.h"

namespace tcsim {

class PartitionEpochCoordinator {
 public:
  // Returns the partition's checkpoint image bytes; runs at the epoch
  // barrier, possibly on a worker thread, and must touch only that partition.
  using CaptureFn = std::function<std::vector<uint8_t>(Partition*)>;

  // Freeze-phase snapshot for asynchronous epochs: clone the partition's
  // component state into the staged capture, which the coordinator has
  // Reset (no framing, CRC, or I/O). Runs at the epoch barrier, possibly on
  // a worker thread, and must touch only that partition. The staged bytes
  // are serialized on the background thread and must be byte-identical to
  // what CaptureFn would have returned.
  using SnapshotFn = std::function<void(Partition*, StagedCapture*)>;

  struct EpochRecord {
    SimTime at = 0;             // simulated instant of the barrier
    uint64_t image_bytes = 0;   // total bytes across partitions
    // Wall-clock barrier time. Synchronous epochs: capture, fold and spill;
    // async epochs: the freeze phase only.
    double frozen_wall_ms = 0.0;
    // Spill-to-repository stats (zero unless a repository is attached).
    bool spill_ok = false;        // the epoch's batch committed
    size_t spill_images = 0;      // images published by the batch
    double spill_wall_ms = 0.0;   // wall-clock cost of the group commit
    // Two-phase (async) epoch stats, zero on synchronous epochs.
    bool async = false;
    double background_wall_ms = 0.0;  // overlapped serialize+hash+commit
    double commit_wait_ms = 0.0;      // barrier time this epoch spent blocked
                                      // on the previous epoch's commit
  };

  // Epochs fire at period, 2*period, ... `period` must be positive (the
  // coordinator aborts otherwise). `capture` may be empty, in which case
  // epochs only quiesce (barrier-cost measurement without capture).
  PartitionEpochCoordinator(PartitionScheduler* scheduler, SimTime period,
                            CaptureFn capture);

  // Joins any in-flight background commit.
  ~PartitionEpochCoordinator();

  // Switches epochs to two-phase capture: at the barrier each partition only
  // stages its snapshot (freeze phase, cheap), then partitions resume while a
  // background thread serializes the staged bytes, folds the digest, and
  // group-commits the repository batch. Only a *subsequent* epoch blocks on
  // the previous epoch's commit (recorded as commit_wait_ms). Digest and
  // repository bytes stay identical to synchronous capture; the repository's
  // single-owner thread contract holds because the previous background thread
  // is always joined before the next one starts, and RunUntil joins before
  // returning.
  void EnableAsyncCapture(SnapshotFn snapshot);

  // Advances the whole system to `t`, pausing at every epoch barrier on the
  // way. Resumable: successive calls continue the same epoch cadence. Any
  // background commit is joined before this returns, so history() and
  // CapturesDigest() always describe completed epochs.
  void RunUntil(SimTime t);

  // Single-step driver for the HA layer, which needs control back at every
  // barrier (to harvest images, release buffered output, and dispatch
  // faults) without joining the in-flight background commit the way RunUntil
  // does. Advances to the next epoch barrier — or to `horizon` if that comes
  // first — and returns the time reached. At a barrier it captures exactly
  // as RunUntil would; at the horizon it joins any in-flight commit. Mixing
  // StepEpoch and RunUntil calls is fine; both advance the same cadence.
  SimTime StepEpoch(SimTime horizon);

  // Joins any in-flight background commit, publishing last_epoch_images()
  // and the final history entry. Idempotent.
  void FinishCommits() { JoinBackground(); }

  // The next barrier's simulated instant.
  SimTime next_epoch() const { return next_epoch_; }

  // 1-based index of the next epoch to capture — the label every ledger
  // record of the currently running window carries.
  uint64_t epoch_index() const { return epoch_index_; }

  // Spill every epoch's captures into `repo` as one group-committed batch:
  // the thread that folds the epoch (the barrier thread, or the background
  // commit of an async epoch) stages the images in partition order and
  // commits once — one segment flush, one journal record, recovery
  // all-or-nothing. The repository's files depend only on the images, never
  // on the capture mode or worker count. Null detaches.
  void AttachRepository(CheckpointRepo* repo) { repo_ = repo; }

  const std::vector<EpochRecord>& history() const { return history_; }

  // Repository handles published by the most recent epoch's batch, indexed by
  // partition id. Empty before the first spilled epoch or after a failure.
  const std::vector<uint64_t>& spill_handles() const { return spill_handles_; }

  // Serialized images of the most recent fully captured epoch, indexed by
  // partition id. Valid after RunUntil returns (the background join edge
  // publishes them); empty before the first epoch or when epochs run without
  // a capture function. The HA layer harvests these at every barrier to keep
  // a restore window without re-serializing anything.
  const std::vector<std::shared_ptr<const std::vector<uint8_t>>>&
  last_epoch_images() const {
    return committed_images_;
  }

  // FNV-1a digest over every captured image's bytes, folded in (epoch,
  // partition id) order. Bit-identical between sequential and parallel runs
  // of one workload — the captures themselves are part of the oracle check.
  uint64_t CapturesDigest() const { return captures_digest_.value(); }

 private:
  void CaptureEpoch();
  void CaptureEpochAsync();
  // Serializes, digests, and spills the staged epoch at history_[index].
  // Runs on background_; every coordinator member it touches is protected by
  // the join edges (the thread is joined before the next epoch mutates them).
  void BackgroundCommit(size_t index);
  // Folds the next partition's image into `rec`, the captures digest and
  // `batch` (null when no repository is attached). Both capture modes call
  // it once per partition, in partition order.
  void FoldImage(const std::shared_ptr<const std::vector<uint8_t>>& image,
                 EpochRecord* rec, RepoWriteBatch* batch);
  // Group-commits one epoch's batch: records the outcome in `rec` and
  // publishes the handles, indexed by partition, as spill_handles().
  void CommitSpill(std::unique_ptr<RepoWriteBatch> batch, EpochRecord* rec);
  // Joins the in-flight background commit, returning the wall ms spent
  // blocked (0 when none was running or it had already finished).
  double JoinBackground();
  // Emits epoch `k`'s boundary ledger record (span: end of the previous
  // epoch's capture to now) and advances the open-edge bookkeeping.
  void CloseEpochLedger(uint64_t k, const char* mode);

  PartitionScheduler* scheduler_;
  SimTime period_;
  CaptureFn capture_;
  SnapshotFn snapshot_;  // non-empty once EnableAsyncCapture was called
  bool async_ = false;
  SimTime next_epoch_;
  uint64_t epoch_index_ = 1;  // 1-based; advances with next_epoch_
  // Wall instant (ledger clock) where the current epoch's span opened: the
  // end of the previous epoch's capture, or the first window's start. -1
  // until the ledger sees the first window.
  double ledger_epoch_open_ms_ = -1.0;
  CheckpointRepo* repo_ = nullptr;
  std::vector<EpochRecord> history_;
  // Async scratch, indexed by partition: pinned staging buffers reused across
  // epochs (Reset keeps their capacity). Written by the freeze phase, read by
  // the background commit — the join edge between them is the
  // synchronization.
  std::vector<StagedCapture> staged_;
  std::thread background_;
  std::vector<uint64_t> spill_handles_;
  // Most recent epoch's serialized images, indexed by partition. Written
  // only on the coordinator thread: at the end of each sync capture, or at
  // the join edge for async epochs (BackgroundCommit hands its images over
  // via background_images_), so last_epoch_images() is readable between
  // barriers while a commit is still in flight.
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> committed_images_;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> background_images_;
  Fnv1aDigest captures_digest_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_CHECKPOINT_EPOCH_COORDINATOR_H_
