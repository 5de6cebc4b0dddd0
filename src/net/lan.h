// A switched LAN segment (Emulab VLAN or the control network).

#ifndef TCSIM_SRC_NET_LAN_H_
#define TCSIM_SRC_NET_LAN_H_

#include <memory>
#include <vector>

#include "src/net/nic.h"
#include "src/net/wire.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcsim {

// Full-bisection switched Ethernet segment. Each attached NIC gets a
// dedicated uplink wire at the port bandwidth; the switch forwards by
// destination NodeId with negligible internal latency (propagation is
// modelled on the uplink). Frames for unknown destinations are dropped and
// counted — unless a gateway is set, in which case they are forwarded to it
// (the generated multi-LAN topologies hang a router off every segment).
class Lan : public PacketHandler {
 public:
  // `port_bandwidth_bps` / `port_delay` / `loss_rate` apply to every port.
  Lan(Simulator* sim, Rng rng, uint64_t port_bandwidth_bps, SimTime port_delay,
      double loss_rate = 0.0)
      : sim_(sim),
        rng_(rng),
        port_bandwidth_bps_(port_bandwidth_bps),
        port_delay_(port_delay),
        loss_rate_(loss_rate) {}

  // Attaches `nic` to the LAN: creates its uplink wire and registers its
  // address with the switch.
  void Attach(Nic* nic);

  // Switch fabric receive: forwards to the destination port.
  void HandlePacket(const Packet& pkt) override;

  uint64_t unknown_dst_drops() const { return unknown_dst_drops_; }

  // Routes frames for addresses not on this segment to `gw` (an uplink
  // router) instead of dropping them. The hop is a direct call at the
  // switch's negligible internal latency; any real link cost belongs to the
  // router's own wires.
  void SetGateway(PacketHandler* gw) { gateway_ = gw; }

  uint64_t forwarded_to_gateway() const { return forwarded_to_gateway_; }

  // Per-port uplink wires, in attach order (node-id order within the LAN).
  // GeneratedTopology's restorable (HA) partition images include them: they
  // are where a LAN's in-flight frames live.
  size_t uplink_count() const { return uplinks_.size(); }
  Wire* uplink(size_t i) { return uplinks_[i].get(); }

 private:
  struct Port {
    NodeId addr;
    Nic* nic;
  };

  // Finds the port for `addr`, or the first port after it.
  std::vector<Port>::iterator LowerBound(NodeId addr);

  Simulator* sim_;
  Rng rng_;
  uint64_t port_bandwidth_bps_;
  SimTime port_delay_;
  double loss_rate_;
  std::vector<std::unique_ptr<Wire>> uplinks_;
  std::vector<Port> ports_;  // sorted by addr, searched by binary search
  PacketHandler* gateway_ = nullptr;
  uint64_t unknown_dst_drops_ = 0;
  uint64_t forwarded_to_gateway_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_LAN_H_
