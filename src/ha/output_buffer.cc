#include "src/ha/output_buffer.h"

#include <algorithm>
#include <cassert>

#include "src/obs/epoch_ledger.h"

#include "src/sim/simulator.h"

namespace tcsim {
namespace ha {

OutputCommitBuffer::OutputCommitBuffer(GeneratedTopology* topo) : topo_(topo) {
  const size_t partitions = topo->partition_count();
  emit_pos_.assign(partitions, 0);
  released_floor_.assign(partitions, 0);
  replay_logs_.resize(partitions);
  shard_stats_.resize(partitions);
  epoch_seq_[0] = emit_pos_;  // the bootstrap capture's watermark
  for (size_t i = 0; i < topo->interior_wire_count(); ++i) {
    Wire* w = topo->interior_wire(i);
    if (!w->is_cross_partition()) {
      continue;
    }
    w->SetEgressTap(this, static_cast<uint32_t>(streams_.size()));
    Stream& st = streams_.emplace_back();
    st.src_partition = topo->interior_wire_partition(i);
    st.dst_partition = w->dst_partition();
    st.sink = w->sink();
  }
  merge_heap_.reserve(streams_.size());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  held_packets_counter_ = reg.FindCounter("ha.buffer.held_packets");
  held_bytes_counter_ = reg.FindCounter("ha.buffer.held_bytes");
  released_counter_ = reg.FindCounter("ha.buffer.released_packets");
  discarded_counter_ = reg.FindCounter("ha.buffer.discarded_packets");
  replayed_counter_ = reg.FindCounter("ha.buffer.replayed_packets");
  suppressed_counter_ = reg.FindCounter("ha.buffer.suppressed_packets");
  hold_time_us_ = reg.FindHistogram("ha.buffer.hold_time_us");
}

OutputCommitBuffer::~OutputCommitBuffer() {
  for (size_t i = 0; i < topo_->interior_wire_count(); ++i) {
    Wire* w = topo_->interior_wire(i);
    if (w->is_cross_partition()) {
      w->SetEgressTap(nullptr);
    }
  }
}

bool OutputCommitBuffer::OnCrossEgress(uint32_t stream, const Packet& pkt,
                                       SimTime deliver_at) {
  Stream& st = streams_[stream];
  const uint32_t src = st.src_partition;
  const uint64_t pos = emit_pos_[src]++;
  ShardStats& stats = shard_stats_[src];
  if (pos < released_floor_[src]) {
    // A replaying victim re-emitting output that already escaped: the
    // original of this emission was released before the kill (it postdated
    // the restored capture — e.g. a forward of a delivery injected at the
    // restore barrier itself — so replay regenerates it), and deterministic
    // replay makes this copy byte-identical. It must not escape twice.
    ++stats.suppressed;
    return true;
  }
  // One wire emits in (deliver_at, position) order: its serializer clock is
  // monotone and its delay constant. A restore trims the stream to entries
  // emitted before the capture, so re-emissions still append in order.
  assert(st.held.empty() || st.held.back().deliver_at < deliver_at ||
         (st.held.back().deliver_at == deliver_at && st.held.back().seq < pos));
  st.held.push_back(
      Held{topo_->partition_sim(src)->Now(), deliver_at, pos, pkt});
  ++stats.held_packets;
  stats.held_bytes += pkt.size_bytes;
  return true;
}

void OutputCommitBuffer::FlushShardTelemetry() {
  for (ShardStats& s : shard_stats_) {
    held_packets_counter_->Add(s.held_packets);
    held_bytes_counter_->Add(s.held_bytes);
    suppressed_counter_->Add(s.suppressed);
    suppressed_total_ += s.suppressed;
    s = ShardStats{};
  }
}

void OutputCommitBuffer::Arm(uint32_t dst, uint64_t index) {
  const Released& rec = replay_logs_[dst].at_index(index);
  topo_->partition_sim(dst)->ScheduleReserved(
      rec.inject_at, rec.seq, [this, dst, index] { Deliver(dst, index); });
}

void OutputCommitBuffer::Deliver(uint32_t dst, uint64_t index) {
  const ReplayLog& log = replay_logs_[dst];
  const Released& rec = log.at_index(index);
  // A batch is one barrier's run of entries, already in (inject_at, seq)
  // order, so its next entry fires after this one.
  if (index + 1 < log.end_index() &&
      log.at_index(index + 1).release_barrier == rec.release_barrier) {
    Arm(dst, index + 1);
  }
  rec.sink->HandlePacket(rec.pkt);
}

bool OutputCommitBuffer::DueKey(uint32_t s, SimTime cutoff,
                                MergeKey* key) const {
  const Stream& st = streams_[s];
  if (st.held.empty() || st.held.front().send_time > cutoff) {
    return false;
  }
  const Held& h = st.held.front();
  *key = MergeKey{h.deliver_at, st.src_partition, s, h.seq};
  return true;
}

size_t OutputCommitBuffer::ReleaseUpTo(SimTime cutoff, SimTime barrier) {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const double l0 = lg ? ledger.NowMs() : 0.0;
  assert(barrier > last_barrier_ && "one release per barrier, in order");
  last_barrier_ = barrier;
  FlushShardTelemetry();
  // Total deterministic order, independent of which partition produced what
  // first: arrival instant, then source partition, then source sequence.
  // Each stream is already sorted by that key, and send times along a stream
  // are monotone (a partition's clock never runs backward within a timeline,
  // and after a restore the stream was already truncated to the restore
  // point), so a k-way merge of the streams' send-time prefixes yields
  // exactly the sorted order of the releasable set.
  merge_heap_.clear();
  for (uint32_t s = 0; s < streams_.size(); ++s) {
    MergeKey key;
    if (DueKey(s, cutoff, &key)) {
      merge_heap_.push_back(key);
    }
  }
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), ReleasesAfter{});
  size_t released = 0;
  double hold_us_max = 0.0;
  double hold_us_sum = 0.0;
  while (!merge_heap_.empty()) {
    const uint32_t s = merge_heap_.front().stream;
    Stream& st = streams_[s];
    Held& h = st.held.front();
    const SimTime inject_at = std::max(h.deliver_at, barrier);
    released_floor_[st.src_partition] =
        std::max(released_floor_[st.src_partition], h.seq + 1);
    ReplayLog& log = replay_logs_[st.dst_partition];
    const uint64_t index = log.end_index();
    // The first entry of this barrier's batch into `log` is armed; each
    // delivery arms the next. Every entry reserves its sequence number now,
    // in release order.
    const bool batch_head =
        log.empty() || log.back().release_barrier != barrier;
    log.push_back(Released{inject_at, barrier,
                           topo_->partition_sim(st.dst_partition)->ReserveSeq(),
                           st.sink, std::move(h.pkt)});
    if (batch_head) {
      Arm(st.dst_partition, index);
    }
    if (observer_ != nullptr) {
      observer_->Observe(log.back().pkt, inject_at, st.src_partition,
                         st.dst_partition);
    }
    const double hold_us = static_cast<double>(inject_at - h.send_time) /
                           static_cast<double>(kMicrosecond);
    hold_us_sum += hold_us;
    if (hold_us > hold_us_max) {
      hold_us_max = hold_us;
    }
    hold_time_us_->Observe(hold_us);
    st.held.pop_front();
    ++released;
    // The stream's next due entry (if any) replaces it at the root: one
    // sift instead of a pop and a push per released packet.
    if (!DueKey(s, cutoff, &merge_heap_.front())) {
      merge_heap_.front() = merge_heap_.back();
      merge_heap_.pop_back();
    }
    if (!merge_heap_.empty()) {
      SiftDownRoot(merge_heap_, ReleasesAfter{});
    }
  }
  released_total_ += released;
  released_counter_->Add(released);
  if (lg) {
    // Simulated hold times ride along as args: the analyzer's output-hold
    // percentiles come from these per-release samples.
    ledger.StampHere(
        -1, "output_release", l0, ledger.NowMs(), "epoch_commit",
        {{"released", static_cast<double>(released)},
         {"hold_max_us", hold_us_max},
         {"hold_mean_us",
          released == 0 ? 0.0 : hold_us_sum / static_cast<double>(released)}});
  }
  return released;
}

void OutputCommitBuffer::MarkEpoch(uint64_t epoch) {
  FlushShardTelemetry();
  epoch_seq_[epoch] = emit_pos_;
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
  const uint64_t watermark = it->second[victim];
  size_t discarded = 0;
  // Emission positions along a stream are monotone, so the post-capture
  // entries are a suffix of each of the victim's streams.
  for (Stream& st : streams_) {
    if (st.src_partition != victim) {
      continue;
    }
    Fifo<Held>& held = st.held;
    while (!held.empty() && held.back().seq >= watermark) {
      held.pop_back();
      ++discarded;
    }
  }
  // Replay restarts the victim's emission stream at the capture point;
  // re-emissions reclaim their original positions so the released floor can
  // identify (and suppress) the ones whose originals already escaped.
  emit_pos_[victim] = watermark;
  discarded_total_ += discarded;
  discarded_counter_->Add(discarded);
  return discarded;
}

size_t OutputCommitBuffer::ReplayInbound(uint32_t victim, SimTime restored_to) {
  assert(topo_->partition_sim(victim)->Now() == restored_to &&
         "reset the victim before replaying");
  ReplayLog& log = replay_logs_[victim];
  Simulator* sim = topo_->partition_sim(victim);
  size_t replayed = 0;
  // Entries are re-injected in their original release order; an entry whose
  // delivery fired before the restore-point capture (inject_at earlier than
  // the barrier, or at an earlier barrier's injection that the epoch's
  // RunUntil consumed) is already part of the image and skipped.
  SimTime armed_batch = -1;  // release_barrier of the last batch armed
  for (uint64_t i = log.front_index(); i < log.end_index(); ++i) {
    Released& rec = log.at_index(i);
    if (rec.inject_at <= restored_to && rec.release_barrier < restored_to) {
      continue;  // consumed before the restored image was captured
    }
    rec.seq = sim->ReserveSeq();
    if (rec.release_barrier != armed_batch) {
      armed_batch = rec.release_barrier;
      Arm(victim, i);
    }
    ++replayed;
  }
  replayed_total_ += replayed;
  replayed_counter_->Add(replayed);
  return replayed;
}

void OutputCommitBuffer::PruneReplayLog(SimTime floor) {
  for (ReplayLog& log : replay_logs_) {
    // Mirror of the ReplayInbound skip rule: an entry no restore at or after
    // `floor` can need is dead.
    while (!log.empty() && log.front().inject_at <= floor &&
           log.front().release_barrier < floor) {
      log.pop_front();
    }
  }
}

size_t OutputCommitBuffer::held_count() const {
  size_t n = 0;
  for (const Stream& st : streams_) {
    n += st.held.size();
  }
  return n;
}

}  // namespace ha
}  // namespace tcsim
