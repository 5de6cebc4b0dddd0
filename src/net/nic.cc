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
    SavePacket(w, entry.pkt);
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
    entry.pkt = LoadPacket(r);
    entry.arrival = r.Read<SimTime>();
    if (r.ok()) {
      suspend_log_.push_back(std::move(entry));
    }
  }
}

}  // namespace tcsim
