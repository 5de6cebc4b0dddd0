#include "src/ha/micro_checkpointer.h"

#include <algorithm>
#include <cassert>

#include "src/obs/epoch_ledger.h"
#include "src/repo/io_fault.h"

namespace tcsim {
namespace ha {

MicroCheckpointer::MicroCheckpointer(GeneratedTopology* topo,
                                     MicroCheckpointPolicy policy)
    : topo_(topo), policy_(policy) {
  coordinator_ = std::make_unique<PartitionEpochCoordinator>(
      topo_->scheduler(), policy_.period,
      [topo](Partition* p) { return topo->CaptureHaPartitionImage(p->id()); });
  if (policy_.max_in_flight_epochs > 0) {
    coordinator_->EnableAsyncCapture([topo](Partition* p, StagedCapture* out) {
      topo->SnapshotHaPartition(p->id(), out);
    });
  }
  if (policy_.buffer_output) {
    buffer_ = std::make_unique<OutputCommitBuffer>(topo_->boundary());
  }
  failover_ = std::make_unique<FailoverManager>(topo_, buffer_.get());
  // Epoch-0 bootstrap: capture the initial state so a kill during the very
  // first window has a restore target.
  latest_.epoch = 0;
  latest_.at = 0;
  latest_.durable = true;
  latest_.images.resize(topo_->partition_count());
  for (size_t p = 0; p < topo_->partition_count(); ++p) {
    latest_.images[p] = std::make_shared<const std::vector<uint8_t>>(
        topo_->CaptureHaPartitionImage(static_cast<uint32_t>(p)));
  }
  epochs_counter_ = obs::MetricsRegistry::Global().FindCounter(
      "ha.epochs_committed");
}

MicroCheckpointer::~MicroCheckpointer() = default;

void MicroCheckpointer::AttachRepository(CheckpointRepo* repo) {
  repo_ = repo;
  coordinator_->AttachRepository(repo);
}

void MicroCheckpointer::SetObserver(emulab::ExternalObserver* observer) {
  if (buffer_ != nullptr) {
    buffer_->SetObserver(observer);
  }
}

void MicroCheckpointer::RunUntil(SimTime t) {
  while (now_ < t) {
    const SimTime next_barrier = coordinator_->next_epoch();
    const SimTime next_fault =
        faults_ != nullptr ? faults_->NextFaultAt() : kNoPendingEvent;
    if (next_fault <= t && next_fault < next_barrier) {
      // Stop the whole system at the fault's instant — a quiescent point
      // mid-window — and dispatch. The coordinator's cadence is untouched;
      // its next StepEpoch simply resumes from here. This advance bypasses
      // the coordinator, so the ledger stamp (and the thread binding the
      // failover path stamps under) happens here.
      obs::EpochLedger& ledger = obs::EpochLedger::Global();
      obs::EpochLedger::BindThread(obs::EpochLedger::kCoordinatorShard,
                                   coordinator_->epoch_index());
      const double w0 = ledger.NowMs();
      topo_->scheduler()->RunUntil(next_fault);
      ledger.StampHere(-1, "window", w0, ledger.NowMs(), "fault");
      now_ = next_fault;
      DispatchFaults(next_fault);
      continue;
    }
    if (next_barrier <= t) {
      coordinator_->StepEpoch(next_barrier);
      now_ = next_barrier;
      OnBarrier(next_barrier);
      // Faults scheduled exactly at a barrier dispatch after its commit
      // bookkeeping — "kill at the barrier" sees the barrier's own state.
      if (faults_ != nullptr && faults_->NextFaultAt() <= now_) {
        DispatchFaults(now_);
      }
      continue;
    }
    coordinator_->StepEpoch(t);  // runs to t and joins any in-flight commit
    now_ = t;
  }
  coordinator_->FinishCommits();
}

void MicroCheckpointer::OnBarrier(SimTime barrier) {
  // The commit bookkeeping below (watermark marking, publishing the
  // committed images — a full image-set copy at scale) is serial wall time
  // between windows; the ledger tiles it as "epoch_commit".
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const double c0 = lg ? ledger.NowMs() : 0.0;
  const uint64_t k = static_cast<uint64_t>(barrier / policy_.period);
  if (buffer_ != nullptr) {
    // Epoch k's capture just happened at this barrier and nothing has run
    // since, so the partitions' emission positions are its discard watermark.
    buffer_->MarkEpoch(k);
  }
  const uint64_t committed = k > lag() ? k - lag() : 0;
  if (committed >= 1 && committed > latest_.epoch) {
    // The coordinator's join edge (inside StepEpoch's capture for async, or
    // the capture itself for sync) has published this epoch's images and its
    // history record.
    const auto& images = coordinator_->last_epoch_images();
    assert(images.size() == topo_->partition_count());
    const auto& rec = coordinator_->history()[committed - 1];
    latest_.epoch = committed;
    latest_.at = static_cast<SimTime>(committed) * policy_.period;
    latest_.durable = repo_ == nullptr || rec.spill_ok;
    latest_.images = images;
    if (latest_.durable && durable_epoch_ == committed - 1) {
      durable_epoch_ = committed;
    }
    epochs_counter_->Increment();
  }
  if (lg) {
    ledger.StampHere(-1, "epoch_commit", c0, ledger.NowMs(), "publish",
                     {{"epoch", static_cast<double>(latest_.epoch)}});
  }
  if (buffer_ != nullptr) {
    const uint64_t cutoff_epoch =
        policy_.require_durable_commit ? durable_epoch_ : latest_.epoch;
    buffer_->ReleaseUpTo(static_cast<SimTime>(cutoff_epoch) * policy_.period,
                         barrier);
    // ReleaseUpTo stamps itself ("output_release"); the prune that trims the
    // replay log behind the committed epoch is charged separately.
    const double p0 = lg ? ledger.NowMs() : 0.0;
    buffer_->PruneReplayLog(latest_.at);
    if (lg) {
      ledger.StampHere(-1, "epoch_commit", p0, ledger.NowMs(), "prune");
    }
  }
}

void MicroCheckpointer::DispatchFaults(SimTime now) {
  for (const FaultEvent& ev : faults_->TakeDue(now)) {
    switch (ev.kind) {
      case FaultKind::kKillPartition:
      case FaultKind::kKillNode: {
        const uint32_t victim =
            ev.kind == FaultKind::kKillNode
                ? topo_->node_partition(ev.target % topo_->node_count())
                : ev.target % static_cast<uint32_t>(topo_->partition_count());
        assert((buffer_ != nullptr || topo_->partition_count() == 1) &&
               "kill faults need output buffering to replay safely");
        failover_->KillAndRestore(victim, now, latest_);
        break;
      }
      case FaultKind::kTornRepoWrite: {
        RepoIoFaultPlan plan;
        plan.allow_bytes = ev.budget;
        RepoIoFaultInjector::Arm(ev.target == 0 ? RepoIoTarget::kSegment
                                                : RepoIoTarget::kJournal,
                                 plan);
        break;
      }
      case FaultKind::kLinkFlap: {
        if (topo_->interior_wire_count() > 0) {
          Wire* w = topo_->interior_wire(ev.target %
                                         topo_->interior_wire_count());
          w->InjectLinkFault(now + ev.duration, ev.loss);
        }
        break;
      }
    }
  }
}

}  // namespace ha
}  // namespace tcsim
