#include "src/checkpoint/epoch_coordinator.h"

#include <cassert>
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

void PartitionEpochCoordinator::JoinBackground() {
  if (!background_.joinable()) {
    return;
  }
  background_.join();
  // Publish the joined commit's images on this (the coordinator) thread.
  // BackgroundCommit writes background_images_, never committed_images_, so
  // readers of last_epoch_images() between a launch and the next join edge
  // (the HA layer harvests at every barrier) never race the commit thread.
  committed_images_ = std::move(background_images_);
  background_images_.clear();
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
  const double j0 = ledger.NowMs();
  JoinBackground();
  const double j1 = ledger.NowMs();
  ledger.StampHere(-1, "commit_wait", j0, j1, "prev_epoch_commit");
  rec.commit_wait_ms = j1 - j0;

  staged_.resize(scheduler_->partition_count());
  const double f0 = ledger.NowMs();
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
  const double f1 = ledger.NowMs();
  ledger.StampHere(-1, "freeze", f0, f1, "barrier");
  rec.frozen_wall_ms = f1 - f0;

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
  const double c0 = ledger.NowMs();
  EpochRecord& rec = history_[index];
  CheckpointRepo::Images images(staged_.size());
  for (size_t p = 0; p < staged_.size(); ++p) {
    const double s0 = lg ? ledger.NowMs() : 0.0;
    auto image = std::make_shared<const std::vector<uint8_t>>(
        SerializeStagedImage(staged_[p]));
    if (lg) {
      ledger.StampHere(static_cast<int32_t>(p), "serialize.partition", s0,
                       ledger.NowMs(), "background");
    }
    FoldImage(*image, &rec);
    images[p] = std::move(image);
  }
  if (repo_ != nullptr) {
    CommitSpill(images, &rec);
  }
  background_images_ = std::move(images);
  const double c1 = ledger.NowMs();
  ledger.StampHere(-1, "commit", c0, c1, "background");
  rec.background_wall_ms = c1 - c0;
  obs::EpochLedger::UnbindThread();
}

void PartitionEpochCoordinator::FoldImage(const std::vector<uint8_t>& image,
                                          EpochRecord* rec) {
  rec->image_bytes += image.size();
  captures_digest_.MixBytes(image.data(), image.size());
}

double PartitionEpochCoordinator::CommitSpill(
    const CheckpointRepo::Images& images, EpochRecord* rec) {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const double s0 = ledger.NowMs();
  const CheckpointRepo::BatchCommitResult result = repo_->CommitBatch(images);
  const double s1 = ledger.NowMs();
  rec->spill_wall_ms = s1 - s0;
  if (!rec->async) {
    // A synchronous spill is barrier time; an async one runs inside the
    // background commit's stamp.
    ledger.StampHere(-1, "spill", s0, s1, "group_commit");
  }
  rec->spill_ok = result.ok;
  rec->spill_images = result.images;
  // The images are indexed by partition, so the handles are too.
  spill_handles_.clear();
  if (result.ok) {
    spill_handles_ = result.handles;
  }
  return s1;
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
    CheckpointRepo::Images images(scheduler_->partition_count());
    const double c0 = ledger.NowMs();
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
    for (const auto& image : images) {
      FoldImage(*image, &rec);
    }
    // The capture stamp closes after the fold: the digest is serial
    // coordinator work inside the frozen window too.
    double frozen_end = ledger.NowMs();
    ledger.StampHere(-1, "capture", c0, frozen_end, "barrier");
    if (repo_ != nullptr) {
      frozen_end = CommitSpill(images, &rec);
    }
    rec.frozen_wall_ms = frozen_end - c0;
    committed_images_ = std::move(images);
  }
  history_.push_back(rec);
  CloseEpochLedger(k, "sync");
}

}  // namespace tcsim
