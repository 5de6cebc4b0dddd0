#include "src/ha/failover.h"

#include <cassert>
#include <chrono>

#include "src/obs/epoch_ledger.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace ha {

FailoverManager::FailoverManager(GeneratedTopology* topo,
                                 OutputCommitBuffer* buffer)
    : topo_(topo), buffer_(buffer) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  failovers_counter_ = reg.FindCounter("ha.failover.count");
  recovery_ms_ = reg.FindHistogram("ha.failover.recovery_ms");
  rollback_us_ = reg.FindHistogram("ha.failover.rollback_us");
}

RecoveryRecord FailoverManager::KillAndRestore(uint32_t victim, SimTime now,
                                               const CommittedEpoch& target) {
  assert(victim < topo_->partition_count());
  assert(target.at <= now);
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const double l0 = lg ? ledger.NowMs() : 0.0;
  const auto start = std::chrono::steady_clock::now();
  RecoveryRecord rec;
  rec.partition = victim;
  rec.killed_at = now;
  rec.restored_to = target.at;
  rec.epoch = target.epoch;

  if (buffer_ != nullptr) {
    rec.discarded = buffer_->DiscardUnreleasedFrom(victim, target.epoch);
  }
  topo_->partition_sim(victim)->ResetForRestore(target.at);
  // Epoch 0's bootstrap images exist even when the run is younger than one
  // period, so a restore target is always available.
  rec.ok = victim < target.images.size() && target.images[victim] != nullptr &&
           topo_->RestoreHaPartition(victim, *target.images[victim]);
  if (rec.ok && buffer_ != nullptr) {
    rec.replayed = buffer_->ReplayInbound(victim, target.at);
  }

  rec.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  failovers_counter_->Increment();
  recovery_ms_->Observe(rec.wall_ms);
  rollback_us_->Observe(static_cast<double>(now - target.at) /
                        static_cast<double>(kMicrosecond));
  if (lg) {
    ledger.StampHere(static_cast<int32_t>(victim), "failover", l0,
                     ledger.NowMs(), "fault",
                     {{"epoch", static_cast<double>(target.epoch)},
                      {"replayed", static_cast<double>(rec.replayed)},
                      {"discarded", static_cast<double>(rec.discarded)}});
  }

  recoveries_.push_back(rec);
  return rec;
}

}  // namespace ha
}  // namespace tcsim
