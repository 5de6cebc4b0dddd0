#include "src/net/nic.h"

#include <cassert>
#include <string>

namespace tcsim {

Nic::Nic(Simulator* sim, NodeId addr) : sim_(sim), addr_(addr) {
  const std::string prefix = "net.nic." + std::to_string(addr) + ".";
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  rx_packets_counter_ = metrics.FindCounter(prefix + "rx_packets");
  rx_bytes_counter_ = metrics.FindCounter(prefix + "rx_bytes");
  tx_packets_counter_ = metrics.FindCounter(prefix + "tx_packets");
  tx_bytes_counter_ = metrics.FindCounter(prefix + "tx_bytes");
}

void Nic::Send(const Packet& pkt) {
  assert(tx_ != nullptr && "NIC transmit side not connected");
  tx_packets_counter_->Increment();
  tx_bytes_counter_->Add(pkt.size_bytes);
  tx_->Transmit(pkt);
}

void Nic::HandlePacket(const Packet& pkt) {
  ++packets_arrived_;
  rx_packets_counter_->Increment();
  rx_bytes_counter_->Add(pkt.size_bytes);
  if (suspended_) {
    suspend_log_.push_back({pkt, sim_->Now()});
    ++packets_logged_;
    return;
  }
  ++packets_received_;
  if (receiver_) {
    receiver_(pkt);
  }
}

void Nic::RegisterInvariants(InvariantRegistry* reg, const std::string& name) {
  RegisterConservationAudit(reg, name, [this] {
    return ConservationCounts{packets_arrived_, packets_received_, /*dropped=*/0,
                              suspend_log_.size()};
  });
}

void Nic::Suspend() { suspended_ = true; }

void Nic::Resume() {
  suspended_ = false;
  // Replay in arrival order. Replayed packets are delivered at the resume
  // instant; receivers time-stamp them with their (frozen-then-resumed)
  // virtual clocks.
  std::vector<LoggedPacket> log;
  log.swap(suspend_log_);
  for (const LoggedPacket& entry : log) {
    replay_delays_.Add(ToMicroseconds(sim_->Now() - entry.arrival));
    ++packets_received_;
    if (receiver_) {
      receiver_(entry.pkt);
    }
  }
}

void Nic::SaveState(ArchiveWriter* w) const {
  w->Write<uint8_t>(suspended_ ? 1 : 0);
  w->Write<uint64_t>(packets_arrived_);
  w->Write<uint64_t>(packets_received_);
  w->Write<uint64_t>(packets_logged_);
  w->Write<uint64_t>(suspend_log_.size());
  for (const LoggedPacket& entry : suspend_log_) {
    const Packet& p = entry.pkt;
    w->Write<uint64_t>(p.id);
    w->Write<NodeId>(p.src);
    w->Write<NodeId>(p.dst);
    w->Write<uint16_t>(p.src_port);
    w->Write<uint16_t>(p.dst_port);
    w->Write<uint8_t>(static_cast<uint8_t>(p.proto));
    w->Write<uint32_t>(p.size_bytes);
    // TcpHeader fields are written individually: struct padding bytes are
    // not deterministic and would break bit-identical image round-trips.
    w->Write<uint64_t>(p.tcp.seq);
    w->Write<uint64_t>(p.tcp.ack);
    w->Write<uint32_t>(p.tcp.payload_len);
    w->Write<uint32_t>(p.tcp.window);
    w->Write<uint8_t>(p.tcp.syn ? 1 : 0);
    w->Write<uint8_t>(p.tcp.fin ? 1 : 0);
    w->Write<uint8_t>(p.tcp.is_retransmit ? 1 : 0);
    w->Write<SimTime>(p.first_sent);
    w->Write<SimTime>(entry.arrival);
  }
}

void Nic::RestoreState(ArchiveReader& r) {
  suspended_ = r.Read<uint8_t>() != 0;
  packets_arrived_ = r.Read<uint64_t>();
  packets_received_ = r.Read<uint64_t>();
  packets_logged_ = r.Read<uint64_t>();
  const uint64_t n = r.Read<uint64_t>();
  suspend_log_.clear();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    LoggedPacket entry;
    entry.pkt.id = r.Read<uint64_t>();
    entry.pkt.src = r.Read<NodeId>();
    entry.pkt.dst = r.Read<NodeId>();
    entry.pkt.src_port = r.Read<uint16_t>();
    entry.pkt.dst_port = r.Read<uint16_t>();
    entry.pkt.proto = static_cast<Protocol>(r.Read<uint8_t>());
    entry.pkt.size_bytes = r.Read<uint32_t>();
    entry.pkt.tcp.seq = r.Read<uint64_t>();
    entry.pkt.tcp.ack = r.Read<uint64_t>();
    entry.pkt.tcp.payload_len = r.Read<uint32_t>();
    entry.pkt.tcp.window = r.Read<uint32_t>();
    entry.pkt.tcp.syn = r.Read<uint8_t>() != 0;
    entry.pkt.tcp.fin = r.Read<uint8_t>() != 0;
    entry.pkt.tcp.is_retransmit = r.Read<uint8_t>() != 0;
    entry.pkt.first_sent = r.Read<SimTime>();
    entry.arrival = r.Read<SimTime>();
    if (r.ok()) {
      suspend_log_.push_back(std::move(entry));
    }
  }
}

}  // namespace tcsim
