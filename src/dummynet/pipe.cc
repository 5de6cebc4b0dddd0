#include "src/dummynet/pipe.h"

#include <cassert>
#include <utility>

namespace tcsim {

Pipe::Pipe(Simulator* sim, Rng rng, PipeConfig config, PacketHandler* sink)
    : sim_(sim), rng_(rng), config_(config), sink_(sink) {}

SimTime Pipe::SerializationTime(uint32_t bytes) const {
  if (config_.bandwidth_bps == 0) {
    return 0;
  }
  return static_cast<SimTime>(static_cast<double>(bytes) * 8.0 * 1e9 /
                              static_cast<double>(config_.bandwidth_bps));
}

void Pipe::HandlePacket(const Packet& pkt) {
  ++ingress_total_;
  Ingest(pkt);
}

void Pipe::Ingest(const Packet& pkt) {
  if (suspended_) {
    suspend_ingress_log_.push_back(pkt);
    return;
  }
  if (config_.loss_rate > 0.0 && rng_.Bernoulli(config_.loss_rate)) {
    ++loss_drops_;
    return;
  }
  if (queue_.size() >= config_.queue_limit_packets) {
    ++queue_drops_;
    return;
  }
  queue_.push_back(pkt);
  StartTransmissionIfIdle();
}

void Pipe::StartTransmissionIfIdle() {
  if (tx_active_ || queue_.empty() || suspended_) {
    return;
  }
  tx_active_ = true;
  tx_packet_ = std::move(queue_.front());
  queue_.pop_front();
  tx_done_at_ = sim_->Now() + SerializationTime(tx_packet_.size_bytes);
  tx_event_ = sim_->ScheduleAt(tx_done_at_, [this] { OnTransmitDone(); });
}

void Pipe::OnTransmitDone() {
  tx_active_ = false;
  // The delivery's sequence number is reserved here, where a per-packet
  // event would have been scheduled.
  delay_line_.push_back(InTransit{sim_->Now() + config_.delay,
                                  sim_->ReserveSeq(), std::move(tx_packet_)});
  if (delay_line_.size() == 1) {
    ArmHead();
  }
  StartTransmissionIfIdle();
}

void Pipe::ArmHead() {
  const InTransit& head = delay_line_.front();
  head_event_ = sim_->ScheduleReserved(head.deliver_at, head.seq,
                                       [this] { DeliverHead(); });
}

void Pipe::DeliverHead() {
  InTransit head = std::move(delay_line_.front());
  delay_line_.pop_front();
  // Arm the next delivery before the sink runs, as a Wire does.
  if (!delay_line_.empty()) {
    ArmHead();
  }
  ++forwarded_;
  sink_->HandlePacket(head.pkt);
}

void Pipe::Suspend() {
  assert(!suspended_);
  suspended_ = true;
  suspended_at_ = sim_->Now();
  tx_event_.Cancel();
  head_event_.Cancel();
}

void Pipe::Resume() {
  assert(suspended_);
  suspended_ = false;
  // Packets resume with their remaining times: total shaping delay observed
  // in virtual time is unchanged by the checkpoint.
  const SimTime downtime = sim_->Now() - suspended_at_;
  if (tx_active_) {
    tx_done_at_ += downtime;
    tx_event_ = sim_->ScheduleAt(tx_done_at_, [this] { OnTransmitDone(); });
  }
  // Fresh sequence numbers, in FIFO order after the transmission's, where
  // one event per packet would have been rescheduled.
  for (uint64_t i = delay_line_.front_index(); i < delay_line_.end_index(); ++i) {
    InTransit& t = delay_line_.at_index(i);
    t.deliver_at += downtime;
    t.seq = sim_->ReserveSeq();
  }
  if (!delay_line_.empty()) {
    ArmHead();
  }
  // Ingest packets that arrived while we were frozen, in arrival order.
  // They were counted at arrival, so bypass the ingress counter.
  while (!suspend_ingress_log_.empty()) {
    const Packet pkt = std::move(suspend_ingress_log_.front());
    suspend_ingress_log_.pop_front();
    Ingest(pkt);
  }
}

void Pipe::RegisterInvariants(InvariantRegistry* reg, const std::string& name) {
  RegisterConservationAudit(reg, name, [this] {
    return ConservationCounts{ingress_total_, forwarded_,
                              queue_drops_ + loss_drops_,
                              PacketsHeld() + suspend_ingress_log_.size()};
  });
}

size_t Pipe::PacketsHeld() const {
  return queue_.size() + (tx_active_ ? 1 : 0) + delay_line_.size();
}

void Pipe::Save(ArchiveWriter* w) const {
  w->Write(config_.bandwidth_bps);
  w->Write(config_.delay);
  w->Write(config_.loss_rate);
  w->Write(static_cast<uint64_t>(config_.queue_limit_packets));

  const SimTime anchor = Anchor();
  w->Write(static_cast<uint8_t>(tx_active_ ? 1 : 0));
  if (tx_active_) {
    SavePacket(w, tx_packet_);
    w->Write(tx_done_at_ - anchor);
  }

  w->Write(static_cast<uint64_t>(delay_line_.size()));
  for (uint64_t i = delay_line_.front_index(); i < delay_line_.end_index(); ++i) {
    const InTransit& t = delay_line_.at_index(i);
    SavePacket(w, t.pkt);
    w->Write(t.deliver_at - anchor);
  }

  w->Write(static_cast<uint64_t>(queue_.size()));
  for (uint64_t i = queue_.front_index(); i < queue_.end_index(); ++i) {
    SavePacket(w, queue_.at_index(i));
  }

  // Shaping rng: loss draws after a restore must match the draws the
  // original run would have made, or a restored run diverges from a
  // from-scratch replay on lossy links.
  rng_.Save(w);
}

void Pipe::ResetForRestore() {
  tx_event_.Cancel();
  head_event_.Cancel();
  tx_active_ = false;
  queue_.clear();
  delay_line_.clear();
}

void Pipe::Restore(ArchiveReader& r, bool credit_ingress) {
  assert(!tx_active_ && queue_.empty() && delay_line_.empty());
  config_.bandwidth_bps = r.Read<uint64_t>();
  config_.delay = r.Read<SimTime>();
  config_.loss_rate = r.Read<double>();
  config_.queue_limit_packets = static_cast<size_t>(r.Read<uint64_t>());

  // A suspended pipe schedules and reserves nothing: Resume() arms the
  // transmission and numbers the delay line.
  const SimTime anchor = Anchor();
  const bool had_tx = r.Read<uint8_t>() != 0;
  if (had_tx && r.ok()) {
    tx_active_ = true;
    tx_packet_ = LoadPacket(r);
    tx_done_at_ = anchor + r.Read<SimTime>();
    if (!suspended_) {
      tx_event_ = sim_->ScheduleAt(tx_done_at_, [this] { OnTransmitDone(); });
    }
  }

  const uint64_t n_transit = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_transit && r.ok(); ++i) {
    Packet pkt = LoadPacket(r);
    const SimTime remaining = r.Read<SimTime>();
    if (!r.ok()) {
      break;
    }
    delay_line_.push_back(InTransit{anchor + remaining,
                                    suspended_ ? 0 : sim_->ReserveSeq(),
                                    std::move(pkt)});
  }
  if (!suspended_ && !delay_line_.empty()) {
    ArmHead();
  }

  const uint64_t n_queued = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_queued && r.ok(); ++i) {
    Packet pkt = LoadPacket(r);
    if (r.ok()) {
      queue_.push_back(std::move(pkt));
    }
  }

  rng_.Restore(r);

  if (credit_ingress) {
    // Restored packets entered this pipe's accounting via the archive, not
    // HandlePacket — credit them so the conservation audit stays balanced.
    // Skipped when the image is re-applied in place over state this pipe
    // already counted at original ingress.
    ingress_total_ += PacketsHeld();
  }
  StartTransmissionIfIdle();
}

}  // namespace tcsim
