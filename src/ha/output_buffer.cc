#include "src/ha/output_buffer.h"

#include <cassert>

#include "src/obs/epoch_ledger.h"

namespace tcsim {
namespace ha {

OutputCommitBuffer::OutputCommitBuffer(PartitionBoundary* boundary)
    : boundary_(boundary) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  held_packets_counter_ = reg.FindCounter("ha.buffer.held_packets");
  held_bytes_counter_ = reg.FindCounter("ha.buffer.held_bytes");
  released_counter_ = reg.FindCounter("ha.buffer.released_packets");
  discarded_counter_ = reg.FindCounter("ha.buffer.discarded_packets");
  replayed_counter_ = reg.FindCounter("ha.buffer.replayed_packets");
  suppressed_counter_ = reg.FindCounter("ha.buffer.suppressed_packets");
  hold_time_us_ = reg.FindHistogram("ha.buffer.hold_time_us");
  boundary_->Hold([this](const Packet& pkt, SimTime send_time,
                         SimTime inject_at, uint32_t src, uint32_t dst) {
    OnRelease(pkt, send_time, inject_at, src, dst);
  });
  boundary_->TakeTallies();  // what crossed before the hold was never held
  MarkEpoch(0);              // the bootstrap capture's watermark
}

OutputCommitBuffer::~OutputCommitBuffer() { boundary_->Unhold(); }

void OutputCommitBuffer::FlushTallies() {
  const PartitionBoundary::Tallies t = boundary_->TakeTallies();
  held_packets_counter_->Add(t.held_packets);
  held_bytes_counter_->Add(t.held_bytes);
  suppressed_counter_->Add(t.suppressed);
  suppressed_total_ += t.suppressed;
}

void OutputCommitBuffer::OnRelease(const Packet& pkt, SimTime send_time,
                                   SimTime inject_at, uint32_t src,
                                   uint32_t dst) {
  if (observer_ != nullptr) {
    observer_->Observe(pkt, inject_at, src, dst);
  }
  const double hold_us = static_cast<double>(inject_at - send_time) /
                         static_cast<double>(kMicrosecond);
  hold_us_sum_ += hold_us;
  if (hold_us > hold_us_max_) {
    hold_us_max_ = hold_us;
  }
  hold_time_us_->Observe(hold_us);
}

size_t OutputCommitBuffer::ReleaseUpTo(SimTime cutoff, SimTime barrier) {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const double l0 = lg ? ledger.NowMs() : 0.0;
  FlushTallies();
  hold_us_max_ = 0.0;
  hold_us_sum_ = 0.0;
  const size_t released = boundary_->Release(cutoff, barrier);
  released_total_ += released;
  released_counter_->Add(released);
  if (lg) {
    // Simulated hold times ride along as args: the analyzer's output-hold
    // percentiles come from these per-release samples.
    ledger.StampHere(
        -1, "output_release", l0, ledger.NowMs(), "epoch_commit",
        {{"released", static_cast<double>(released)},
         {"hold_max_us", hold_us_max_},
         {"hold_mean_us",
          released == 0 ? 0.0 : hold_us_sum_ / static_cast<double>(released)}});
  }
  return released;
}

void OutputCommitBuffer::MarkEpoch(uint64_t epoch) {
  FlushTallies();
  std::vector<uint64_t>& watermark = epoch_seq_[epoch];
  watermark.clear();
  for (uint32_t p = 0; p < boundary_->partition_count(); ++p) {
    watermark.push_back(boundary_->position(p));
  }
  // Only the newest committed epoch (and, early on, the bootstrap) is ever a
  // restore target; anything two epochs stale is dead.
  while (!epoch_seq_.empty() && epoch_seq_.begin()->first + 2 < epoch) {
    epoch_seq_.erase(epoch_seq_.begin());
  }
}

size_t OutputCommitBuffer::DiscardUnreleasedFrom(uint32_t victim,
                                                 uint64_t epoch) {
  const auto it = epoch_seq_.find(epoch);
  assert(it != epoch_seq_.end() && "restore target epoch was never marked");
  const size_t discarded = boundary_->Discard(victim, it->second[victim]);
  discarded_total_ += discarded;
  discarded_counter_->Add(discarded);
  return discarded;
}

size_t OutputCommitBuffer::ReplayInbound(uint32_t victim, SimTime restored_to) {
  const size_t replayed = boundary_->Replay(victim, restored_to);
  replayed_total_ += replayed;
  replayed_counter_->Add(replayed);
  return replayed;
}

void OutputCommitBuffer::PruneReplayLog(SimTime floor) {
  boundary_->Prune(floor);
}

}  // namespace ha
}  // namespace tcsim
