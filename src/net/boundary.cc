#include "src/net/boundary.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/event_queue.h"

namespace tcsim {

PartitionBoundary::PartitionBoundary(std::vector<Simulator*> sims)
    : sims_(std::move(sims)), sources_(sims_.size()), logs_(sims_.size()) {}

uint32_t PartitionBoundary::AddStream(uint32_t src, uint32_t dst,
                                      PacketHandler* sink) {
  assert(src < sims_.size() && dst < sims_.size() && src != dst);
  Stream& st = streams_.emplace_back();
  st.src = src;
  st.dst = dst;
  st.sink = sink;
  merge_heap_.reserve(streams_.size());
  return static_cast<uint32_t>(streams_.size() - 1);
}

void PartitionBoundary::Emit(uint32_t stream, const Packet& pkt,
                             SimTime deliver_at) {
  Stream& st = streams_[stream];
  Source& src = sources_[st.src];
  const uint64_t pos = src.next_pos++;
  if (pos < src.released_floor) {
    // A replay re-emitting output whose byte-identical original escaped
    // before the kill: it must not escape twice.
    ++src.tallies.suppressed;
    return;
  }
  // Discard trims a stream to positions below its watermark, so
  // re-emissions still append in (deliver_at, pos) order.
  assert(st.held.empty() || st.held.back().deliver_at < deliver_at ||
         (st.held.back().deliver_at == deliver_at && st.held.back().pos < pos));
  st.held.push_back(Held{sims_[st.src]->Now(), deliver_at, pos, pkt});
  ++src.tallies.held_packets;
  src.tallies.held_bytes += pkt.size_bytes;
}

uint64_t PartitionBoundary::Step(SimTime bound) {
  if (!held_) {
    Prune(bound);
    Release(bound, bound);
  }
  return std::exchange(released_since_step_, 0);
}

void PartitionBoundary::Arm(uint32_t dst, uint64_t index) {
  const Delivery& d = logs_[dst].at_index(index);
  sims_[dst]->ScheduleReserved(d.inject_at, d.seq,
                               [this, dst, index] { Deliver(dst, index); });
}

void PartitionBoundary::Deliver(uint32_t dst, uint64_t index) {
  const Log& log = logs_[dst];
  const Delivery& d = log.at_index(index);
  // A batch is in (inject_at, seq) order, so its next entry fires later.
  if (index + 1 < log.end_index() &&
      log.at_index(index + 1).release_barrier == d.release_barrier) {
    Arm(dst, index + 1);
  }
  d.sink->HandlePacket(d.pkt);
}

bool PartitionBoundary::DueKey(uint32_t s, SimTime cutoff,
                               MergeKey* key) const {
  const Stream& st = streams_[s];
  if (st.held.empty() || st.held.front().send_time > cutoff) {
    return false;
  }
  const Held& h = st.held.front();
  *key = MergeKey{h.deliver_at, st.src, s, h.pos};
  return true;
}

size_t PartitionBoundary::Release(SimTime cutoff, SimTime barrier) {
  assert(barrier > last_barrier_ && "one release per barrier, in order");
  last_barrier_ = barrier;
  // Send times along a stream are monotone, so each stream's releasable
  // entries are a prefix, and merging the prefixes sorts the whole set.
  merge_heap_.clear();
  for (uint32_t s = 0; s < streams_.size(); ++s) {
    MergeKey key;
    if (DueKey(s, cutoff, &key)) {
      merge_heap_.push_back(key);
    }
  }
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), ReleasesAfter{});
  size_t released = 0;
  while (!merge_heap_.empty()) {
    const uint32_t s = merge_heap_.front().stream;
    Stream& st = streams_[s];
    Held& h = st.held.front();
    const SimTime inject_at = std::max(h.deliver_at, barrier);
    Source& src = sources_[st.src];
    src.released_floor = std::max(src.released_floor, h.pos + 1);
    Log& log = logs_[st.dst];
    const uint64_t index = log.end_index();
    // Every entry reserves its sequence number now, in merge order; only
    // the first entry of this barrier's batch into `log` is armed.
    const bool batch_head =
        log.empty() || log.back().release_barrier != barrier;
    log.push_back(Delivery{inject_at, barrier, sims_[st.dst]->ReserveSeq(),
                           st.sink, std::move(h.pkt)});
    if (batch_head) {
      Arm(st.dst, index);
    }
    if (on_release_) {
      on_release_(log.back().pkt, h.send_time, inject_at, st.src, st.dst);
    }
    st.held.pop_front();
    ++released;
    // The stream's next due entry (if any) replaces it at the root.
    if (!DueKey(s, cutoff, &merge_heap_.front())) {
      merge_heap_.front() = merge_heap_.back();
      merge_heap_.pop_back();
    }
    if (!merge_heap_.empty()) {
      SiftDownRoot(merge_heap_, ReleasesAfter{});
    }
  }
  released_since_step_ += released;
  return released;
}

size_t PartitionBoundary::Discard(uint32_t src, uint64_t watermark) {
  size_t discarded = 0;
  // Positions along a stream are monotone: the discarded entries are a
  // suffix of each of the source's streams.
  for (Stream& st : streams_) {
    if (st.src != src) {
      continue;
    }
    while (!st.held.empty() && st.held.back().pos >= watermark) {
      st.held.pop_back();
      ++discarded;
    }
  }
  sources_[src].next_pos = watermark;
  return discarded;
}

size_t PartitionBoundary::Replay(uint32_t dst, SimTime restored_to) {
  Simulator* sim = sims_[dst];
  assert(sim->Now() == restored_to && "reset the destination before replay");
  Log& log = logs_[dst];
  size_t replayed = 0;
  // Prune trims only the log's front, so an entry whose delivery the image
  // already holds can sit behind an older batch's later delivery (a slower
  // wire into the same partition); it is skipped. Along a batch inject_at
  // is monotone, so the skipped entries are a prefix and the first kept
  // entry heads the rest of the batch's chain.
  SimTime armed_batch = -1;  // release_barrier of the last batch armed
  for (uint64_t i = log.front_index(); i < log.end_index(); ++i) {
    Delivery& d = log.at_index(i);
    if (d.inject_at <= restored_to && d.release_barrier < restored_to) {
      continue;  // delivered before the restored image was captured
    }
    d.seq = sim->ReserveSeq();
    if (d.release_barrier != armed_batch) {
      armed_batch = d.release_barrier;
      Arm(dst, i);
    }
    ++replayed;
  }
  return replayed;
}

void PartitionBoundary::Prune(SimTime floor) {
  for (Log& log : logs_) {
    // Replay's skip rule, applied to each log's front.
    while (!log.empty() && log.front().inject_at <= floor &&
           log.front().release_barrier < floor) {
      log.pop_front();
    }
  }
}

size_t PartitionBoundary::held_count() const {
  size_t n = 0;
  for (const Stream& st : streams_) {
    n += st.held.size();
  }
  return n;
}

PartitionBoundary::Tallies PartitionBoundary::TakeTallies() {
  Tallies sum;
  for (Source& src : sources_) {
    sum.held_packets += src.tallies.held_packets;
    sum.held_bytes += src.tallies.held_bytes;
    sum.suppressed += src.tallies.suppressed;
    src.tallies = Tallies{};
  }
  return sum;
}

}  // namespace tcsim
