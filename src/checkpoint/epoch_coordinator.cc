#include "src/checkpoint/epoch_coordinator.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

namespace tcsim {

PartitionEpochCoordinator::PartitionEpochCoordinator(
    PartitionScheduler* scheduler, SimTime period, CaptureFn capture)
    : scheduler_(scheduler),
      period_(period),
      capture_(std::move(capture)),
      next_epoch_(period) {
  // A zero or negative period would leave next_epoch_ pinned at or below the
  // RunUntil target forever — fail fast instead of hanging the run.
  assert(period_ > 0 && "epoch period must be positive");
  if (period_ <= 0) {
    std::fprintf(stderr,
                 "PartitionEpochCoordinator: epoch period must be positive "
                 "(got %lld)\n",
                 static_cast<long long>(period_));
    std::abort();
  }
}

PartitionEpochCoordinator::~PartitionEpochCoordinator() { JoinBackground(); }

void PartitionEpochCoordinator::EnableAsyncCapture(SnapshotFn snapshot) {
  assert(snapshot);
  JoinBackground();
  snapshot_ = std::move(snapshot);
  async_ = true;
}

double PartitionEpochCoordinator::JoinBackground() {
  if (!background_.joinable()) {
    return 0.0;
  }
  const auto start = std::chrono::steady_clock::now();
  background_.join();
  const auto end = std::chrono::steady_clock::now();
  // Publish the joined commit's images on this (the coordinator) thread.
  // BackgroundCommit writes background_images_, never committed_images_, so
  // readers of last_epoch_images() between a launch and the next join edge
  // (the HA layer harvests at every barrier) never race the commit thread.
  committed_images_ = std::move(background_images_);
  background_images_.clear();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

void PartitionEpochCoordinator::RunUntil(SimTime t) {
  while (next_epoch_ <= t) {
    StepEpoch(t);
  }
  // The horizon step joins any in-flight commit: callers read
  // history()/CapturesDigest()/spill_handles() after RunUntil, the join edge
  // makes those reads race-free, and a returned RunUntil always describes
  // fully committed epochs.
  StepEpoch(t);
}

SimTime PartitionEpochCoordinator::StepEpoch(SimTime horizon) {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  if (next_epoch_ <= horizon) {
    const SimTime barrier = next_epoch_;
    obs::EpochLedger::BindThread(obs::EpochLedger::kCoordinatorShard,
                                 epoch_index_);
    const double w0 = ledger.NowMs();
    if (ledger.enabled() && ledger_epoch_open_ms_ < 0) {
      ledger_epoch_open_ms_ = w0;
    }
    scheduler_->RunUntil(barrier);
    ledger.StampHere(-1, "window", w0, ledger.NowMs(), "barrier");
    CaptureEpoch();
    next_epoch_ += period_;
    ++epoch_index_;
    return barrier;
  }
  obs::EpochLedger::BindThread(obs::EpochLedger::kCoordinatorShard,
                               epoch_index_);
  const double w0 = ledger.NowMs();
  scheduler_->RunUntil(horizon);
  ledger.StampHere(-1, "window", w0, ledger.NowMs(), "horizon");
  const double j0 = ledger.NowMs();
  JoinBackground();
  ledger.StampHere(-1, "commit_wait", j0, ledger.NowMs(), "final_join");
  return horizon;
}

void PartitionEpochCoordinator::CloseEpochLedger(uint64_t k,
                                                 const char* mode) {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  if (!ledger.enabled()) {
    return;
  }
  const double now = ledger.NowMs();
  obs::LedgerRecord rec;
  rec.epoch = k;
  rec.partition = -1;
  rec.phase = "epoch";
  rec.begin_ms = ledger_epoch_open_ms_ >= 0 ? ledger_epoch_open_ms_ : now;
  rec.end_ms = now;
  rec.cause = mode;
  ledger.Stamp(obs::EpochLedger::kCoordinatorShard, rec);
  ledger_epoch_open_ms_ = now;
}

void PartitionEpochCoordinator::CaptureEpochAsync() {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const uint64_t k = epoch_index_;
  EpochRecord rec;
  rec.async = true;
  rec.at = scheduler_->partition_count() > 0
               ? scheduler_->partition(0)->sim()->Now()
               : next_epoch_;
  // Only a *subsequent* epoch blocks on the previous epoch's commit: by the
  // time the system has simulated one more period, the commit has usually
  // long finished and this join is free.
  const double j0 = lg ? ledger.NowMs() : 0.0;
  rec.commit_wait_ms = JoinBackground();
  if (lg) {
    ledger.StampHere(-1, "commit_wait", j0, ledger.NowMs(),
                     "prev_epoch_commit");
  }

  staged_.resize(scheduler_->partition_count());
  const auto start = std::chrono::steady_clock::now();
  const double f0 = lg ? ledger.NowMs() : 0.0;
  // Freeze phase, inside the barrier: each partition clones its component
  // state into its pinned staging buffer — no archive framing, no CRC, no
  // repo I/O. Cost scales with dirty state, not image bytes.
  scheduler_->ForEachPartition([this, &ledger, lg, k](Partition* p) {
    const double p0 = lg ? ledger.NowMs() : 0.0;
    StagedCapture* staged = &staged_[p->id()];
    staged->Reset();
    snapshot_(p, staged);
    if (lg) {
      obs::LedgerRecord lr;
      lr.epoch = k;
      lr.partition = static_cast<int32_t>(p->id());
      lr.phase = "freeze.partition";
      lr.begin_ms = p0;
      lr.end_ms = ledger.NowMs();
      lr.cause = "snapshot";
      ledger.Stamp(p->id(), lr);
    }
  });
  const auto end = std::chrono::steady_clock::now();
  if (lg) {
    ledger.StampHere(-1, "freeze", f0, ledger.NowMs(), "barrier");
  }
  rec.frozen_wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  history_.push_back(rec);
  const size_t index = history_.size() - 1;
  // The epoch's serial (frozen) span ends here: the background phase below
  // overlaps the next window and is attributed to this epoch by its labels.
  CloseEpochLedger(k, "async");
  // Background phase: partitions run the next window while this thread
  // serializes, digests, and spills. The previous thread was joined above,
  // so all repository work stays serialized on one owner at a time and the
  // members BackgroundCommit touches are handed off race-free. The spawn
  // itself is serial coordinator time (tens of microseconds) spent after the
  // epoch closed — stamped so fast epochs still attribute fully.
  const double l0 = lg ? ledger.NowMs() : 0.0;
  background_ = std::thread([this, index] { BackgroundCommit(index); });
  if (lg) {
    ledger.StampHere(-1, "commit_launch", l0, ledger.NowMs(), "thread_spawn");
  }
}

void PartitionEpochCoordinator::BackgroundCommit(size_t index) {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  // history_ grows one record per epoch, so index + 1 is the 1-based epoch
  // this commit belongs to — the label its overlapped work carries.
  obs::EpochLedger::BindThread(obs::EpochLedger::kCommitShard,
                               static_cast<uint64_t>(index) + 1);
  const auto start = std::chrono::steady_clock::now();
  const double c0 = lg ? ledger.NowMs() : 0.0;
  EpochRecord& rec = history_[index];
  std::unique_ptr<RepoWriteBatch> batch =
      repo_ != nullptr ? repo_->BeginBatch() : nullptr;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> images(
      staged_.size());
  for (size_t p = 0; p < staged_.size(); ++p) {
    const double s0 = lg ? ledger.NowMs() : 0.0;
    auto image = std::make_shared<const std::vector<uint8_t>>(
        SerializeStagedImage(staged_[p]));
    if (lg) {
      ledger.StampHere(static_cast<int32_t>(p), "serialize.partition", s0,
                       ledger.NowMs(), "background");
    }
    FoldImage(image, &rec, batch.get());
    images[p] = std::move(image);
  }
  if (batch != nullptr) {
    CommitSpill(std::move(batch), &rec);
  }
  background_images_ = std::move(images);
  rec.background_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  if (lg) {
    ledger.StampHere(-1, "commit", c0, ledger.NowMs(), "background");
  }
  obs::EpochLedger::UnbindThread();
}

void PartitionEpochCoordinator::FoldImage(
    const std::shared_ptr<const std::vector<uint8_t>>& image, EpochRecord* rec,
    RepoWriteBatch* batch) {
  // Staging first lets the hashing pool parse and hash the image while this
  // thread folds it into the digest.
  if (batch != nullptr) {
    batch->Stage(image);
  }
  rec->image_bytes += image->size();
  captures_digest_.MixBytes(image->data(), image->size());
}

void PartitionEpochCoordinator::CommitSpill(
    std::unique_ptr<RepoWriteBatch> batch, EpochRecord* rec) {
  const auto start = std::chrono::steady_clock::now();
  const CheckpointRepo::BatchCommitResult result =
      repo_->CommitBatch(std::move(batch));
  rec->spill_wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  rec->spill_ok = result.ok;
  rec->spill_images = result.images;
  // Images were staged in partition order, so the handles are indexed by
  // partition.
  spill_handles_.clear();
  if (result.ok) {
    spill_handles_ = result.handles;
  }
}

void PartitionEpochCoordinator::CaptureEpoch() {
  if (async_) {
    CaptureEpochAsync();
    return;
  }
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const uint64_t k = epoch_index_;
  EpochRecord rec;
  rec.at = scheduler_->partition_count() > 0
               ? scheduler_->partition(0)->sim()->Now()
               : next_epoch_;
  if (capture_) {
    std::vector<std::shared_ptr<const std::vector<uint8_t>>> images(
        scheduler_->partition_count());
    const auto start = std::chrono::steady_clock::now();
    const double c0 = lg ? ledger.NowMs() : 0.0;
    // Each capture runs as one pool task and writes only its own slot; the
    // phase barrier inside ForEachPartition publishes the slots back to this
    // thread, which folds them in partition order.
    scheduler_->ForEachPartition([this, &images, &ledger, lg, k](Partition* p) {
      const double p0 = lg ? ledger.NowMs() : 0.0;
      images[p->id()] =
          std::make_shared<const std::vector<uint8_t>>(capture_(p));
      if (lg) {
        obs::LedgerRecord lr;
        lr.epoch = k;
        lr.partition = static_cast<int32_t>(p->id());
        lr.phase = "capture.partition";
        lr.begin_ms = p0;
        lr.end_ms = ledger.NowMs();
        lr.cause = "serialize";
        ledger.Stamp(p->id(), lr);
      }
    });
    std::unique_ptr<RepoWriteBatch> batch =
        repo_ != nullptr ? repo_->BeginBatch() : nullptr;
    for (const auto& image : images) {
      FoldImage(image, &rec, batch.get());
    }
    if (lg) {
      // The capture stamp closes after the fold: the digest and the staging
      // are serial coordinator work inside the frozen window too.
      ledger.StampHere(-1, "capture", c0, ledger.NowMs(), "barrier");
    }
    if (batch != nullptr) {
      const double s0 = lg ? ledger.NowMs() : 0.0;
      CommitSpill(std::move(batch), &rec);
      if (lg) {
        ledger.StampHere(-1, "spill", s0, ledger.NowMs(), "group_commit");
      }
    }
    rec.frozen_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    committed_images_ = std::move(images);
  }
  history_.push_back(rec);
  CloseEpochLedger(k, "sync");
}

}  // namespace tcsim
