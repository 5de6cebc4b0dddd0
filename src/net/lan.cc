#include "src/net/lan.h"

#include <algorithm>

namespace tcsim {

std::vector<Lan::Port>::iterator Lan::LowerBound(NodeId addr) {
  return std::lower_bound(
      ports_.begin(), ports_.end(), addr,
      [](const Port& port, NodeId a) { return port.addr < a; });
}

void Lan::Attach(Nic* nic) {
  auto uplink = std::make_unique<Wire>(sim_, rng_.Fork(), port_bandwidth_bps_, port_delay_,
                                       loss_rate_, this);
  nic->ConnectTx(uplink.get());
  uplinks_.push_back(std::move(uplink));
  const auto it = LowerBound(nic->addr());
  if (it != ports_.end() && it->addr == nic->addr()) {
    it->nic = nic;
  } else {
    ports_.insert(it, Port{nic->addr(), nic});
  }
}

void Lan::HandlePacket(const Packet& pkt) {
  const auto it = LowerBound(pkt.dst);
  if (it == ports_.end() || it->addr != pkt.dst) {
    if (gateway_ != nullptr) {
      ++forwarded_to_gateway_;
      gateway_->HandlePacket(pkt);
      return;
    }
    ++unknown_dst_drops_;
    return;
  }
  it->nic->HandlePacket(pkt);
}

}  // namespace tcsim
