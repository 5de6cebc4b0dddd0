#include "src/dummynet/pipe.h"

#include <algorithm>
#include <cassert>

namespace tcsim {

namespace {

// Packet metadata (de)serialization for delay-node images. Application
// payload objects are not serialized: the live suspend/resume path keeps
// them in memory; archived images are used for size accounting and tests.
void WritePacket(ArchiveWriter* w, const Packet& pkt) {
  w->Write(pkt.id);
  w->Write(pkt.src);
  w->Write(pkt.dst);
  w->Write(pkt.src_port);
  w->Write(pkt.dst_port);
  w->Write(pkt.proto);
  w->Write(pkt.size_bytes);
  // TcpHeader fields are written individually: struct padding bytes are
  // not deterministic and would break bit-identical image round-trips.
  w->Write(pkt.tcp.seq);
  w->Write(pkt.tcp.ack);
  w->Write(pkt.tcp.payload_len);
  w->Write(pkt.tcp.window);
  w->Write<uint8_t>(pkt.tcp.syn ? 1 : 0);
  w->Write<uint8_t>(pkt.tcp.fin ? 1 : 0);
  w->Write<uint8_t>(pkt.tcp.is_retransmit ? 1 : 0);
  w->Write(pkt.first_sent);
}

Packet ReadPacket(ArchiveReader& r) {
  Packet pkt;
  pkt.id = r.Read<uint64_t>();
  pkt.src = r.Read<NodeId>();
  pkt.dst = r.Read<NodeId>();
  pkt.src_port = r.Read<uint16_t>();
  pkt.dst_port = r.Read<uint16_t>();
  pkt.proto = r.Read<Protocol>();
  pkt.size_bytes = r.Read<uint32_t>();
  pkt.tcp.seq = r.Read<uint64_t>();
  pkt.tcp.ack = r.Read<uint64_t>();
  pkt.tcp.payload_len = r.Read<uint32_t>();
  pkt.tcp.window = r.Read<uint32_t>();
  pkt.tcp.syn = r.Read<uint8_t>() != 0;
  pkt.tcp.fin = r.Read<uint8_t>() != 0;
  pkt.tcp.is_retransmit = r.Read<uint8_t>() != 0;
  pkt.first_sent = r.Read<SimTime>();
  return pkt;
}

}  // namespace

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
  tx_packet_ = queue_.front();
  queue_.pop_front();
  tx_done_at_ = sim_->Now() + SerializationTime(tx_packet_.size_bytes);
  tx_event_ = sim_->ScheduleAt(tx_done_at_, [this] { OnTransmitDone(); });
}

void Pipe::OnTransmitDone() {
  tx_active_ = false;
  ScheduleDelivery(tx_packet_, config_.delay);
  StartTransmissionIfIdle();
}

void Pipe::ScheduleDelivery(const Packet& pkt, SimTime delay) {
  const uint64_t id = next_transit_id_++;
  InTransit transit;
  transit.id = id;
  transit.pkt = pkt;
  transit.due = sim_->Now() + delay;
  transit.remaining = 0;
  transit.event = sim_->Schedule(delay, [this, id] { Deliver(id); });
  delay_line_.push_back(std::move(transit));
}

void Pipe::Deliver(uint64_t transit_id) {
  auto it = std::find_if(delay_line_.begin(), delay_line_.end(),
                         [transit_id](const InTransit& t) { return t.id == transit_id; });
  assert(it != delay_line_.end());
  Packet pkt = it->pkt;
  delay_line_.erase(it);
  ++forwarded_;
  sink_->HandlePacket(pkt);
}

void Pipe::Suspend() {
  assert(!suspended_);
  suspended_ = true;
  if (tx_active_) {
    tx_event_.Cancel();
    tx_remaining_ = tx_done_at_ - sim_->Now();
  }
  for (InTransit& t : delay_line_) {
    t.event.Cancel();
    t.remaining = t.due - sim_->Now();
  }
}

void Pipe::Resume() {
  assert(suspended_);
  suspended_ = false;
  // Packets resume with their remaining times: total shaping delay observed
  // in virtual time is unchanged by the checkpoint.
  if (tx_active_) {
    tx_done_at_ = sim_->Now() + tx_remaining_;
    tx_event_ = sim_->ScheduleAt(tx_done_at_, [this] { OnTransmitDone(); });
  }
  for (InTransit& t : delay_line_) {
    t.due = sim_->Now() + t.remaining;
    const uint64_t id = t.id;
    t.event = sim_->ScheduleAt(t.due, [this, id] { Deliver(id); });
  }
  // Ingest packets that arrived while we were frozen, in arrival order.
  // They were counted at arrival, so bypass the ingress counter.
  std::deque<Packet> log;
  log.swap(suspend_ingress_log_);
  for (const Packet& pkt : log) {
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

  w->Write(static_cast<uint8_t>(tx_active_ ? 1 : 0));
  if (tx_active_) {
    WritePacket(w, tx_packet_);
    const SimTime remaining = suspended_ ? tx_remaining_ : tx_done_at_ - sim_->Now();
    w->Write(remaining);
  }

  w->Write(static_cast<uint64_t>(delay_line_.size()));
  for (const InTransit& t : delay_line_) {
    WritePacket(w, t.pkt);
    const SimTime remaining = suspended_ ? t.remaining : t.due - sim_->Now();
    w->Write(remaining);
  }

  w->Write(static_cast<uint64_t>(queue_.size()));
  for (const Packet& pkt : queue_) {
    WritePacket(w, pkt);
  }

  // Shaping rng: loss draws after a restore must match the draws the
  // original run would have made, or a restored run diverges from a
  // from-scratch replay on lossy links.
  rng_.Save(w);
  w->Write(next_transit_id_);
}

void Pipe::ResetForRestore() {
  tx_event_.Cancel();
  tx_active_ = false;
  tx_remaining_ = 0;
  queue_.clear();
  for (InTransit& t : delay_line_) {
    t.event.Cancel();
  }
  delay_line_.clear();
}

void Pipe::Restore(ArchiveReader& r, bool credit_ingress) {
  assert(!tx_active_ && queue_.empty() && delay_line_.empty());
  config_.bandwidth_bps = r.Read<uint64_t>();
  config_.delay = r.Read<SimTime>();
  config_.loss_rate = r.Read<double>();
  config_.queue_limit_packets = static_cast<size_t>(r.Read<uint64_t>());

  const bool had_tx = r.Read<uint8_t>() != 0;
  if (had_tx && r.ok()) {
    tx_active_ = true;
    tx_packet_ = ReadPacket(r);
    tx_remaining_ = r.Read<SimTime>();
    if (suspended_) {
      // Resume() arms the transmit-done event from tx_remaining_.
    } else {
      tx_done_at_ = sim_->Now() + tx_remaining_;
      tx_event_ = sim_->ScheduleAt(tx_done_at_, [this] { OnTransmitDone(); });
    }
  }

  const uint64_t n_transit = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_transit && r.ok(); ++i) {
    Packet pkt = ReadPacket(r);
    const SimTime remaining = r.Read<SimTime>();
    if (!r.ok()) {
      break;
    }
    if (suspended_) {
      // Hold the packet with its remaining delay; Resume() schedules it.
      InTransit transit;
      transit.id = next_transit_id_++;
      transit.pkt = pkt;
      transit.due = 0;
      transit.remaining = remaining;
      delay_line_.push_back(std::move(transit));
    } else {
      ScheduleDelivery(pkt, remaining);
    }
  }

  const uint64_t n_queued = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_queued && r.ok(); ++i) {
    Packet pkt = ReadPacket(r);
    if (r.ok()) {
      queue_.push_back(std::move(pkt));
    }
  }

  rng_.Restore(r);
  if (const uint64_t next_id = r.Read<uint64_t>(); r.ok()) {
    next_transit_id_ = std::max(next_transit_id_, next_id);
  }

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
