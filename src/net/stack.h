// Per-node network stack: NICs, routing, UDP sockets, TCP demultiplexing.

#ifndef TCSIM_SRC_NET_STACK_H_
#define TCSIM_SRC_NET_STACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/nic.h"
#include "src/net/packet.h"
#include "src/net/tcp.h"
#include "src/net/timer_host.h"
#include "src/sim/checkpointable.h"
#include "src/sim/simulator.h"

namespace tcsim {

// The transport layer of one node. Owns the node's NICs and live TCP
// connections; demultiplexes inbound packets to UDP handlers and TCP
// endpoints; routes outbound packets to the correct interface.
class NetworkStack : public Checkpointable {
 public:
  NetworkStack(Simulator* sim, TimerHost* timers, NodeId addr);

  NetworkStack(const NetworkStack&) = delete;
  NetworkStack& operator=(const NetworkStack&) = delete;

  NodeId addr() const { return addr_; }
  Simulator* sim() { return sim_; }
  TimerHost* timers() { return timers_; }

  // Creates a new interface owned by the stack. The first NIC becomes the
  // default route.
  Nic* AddNic();

  // Routes traffic destined to `dst` out of `nic`.
  void AddRoute(NodeId dst, Nic* nic) { routes_[dst] = nic; }

  // --- UDP -------------------------------------------------------------------

  // Registers a datagram handler on `port`.
  void BindUdp(uint16_t port, std::function<void(const Packet&)> handler);

  // Sends a datagram of `payload_bytes` app data carrying `payload`.
  void SendUdp(NodeId dst, uint16_t dst_port, uint16_t src_port, uint32_t payload_bytes,
               std::shared_ptr<AppPayload> payload);

  // --- TCP -------------------------------------------------------------------

  // Active open to dst:dst_port from an ephemeral local port. The returned
  // connection is owned by the stack and lives until the stack is destroyed.
  TcpConnection* ConnectTcp(NodeId dst, uint16_t dst_port, TcpConnection::Params params,
                            std::function<void()> on_connected);

  // Passive open: each inbound connection to `port` creates an endpoint and
  // invokes `on_accept` with it (before the handshake completes, so the
  // callee can install callbacks).
  void ListenTcp(uint16_t port, std::function<void(TcpConnection*)> on_accept,
                 TcpConnection::Params params = {});

  // --- Internal interfaces ----------------------------------------------------

  // Stamps, routes and transmits an outbound packet (used by TCP internals).
  void SendPacket(Packet pkt);

  // Inbound delivery from a NIC.
  void OnReceive(const Packet& pkt);

  // All live TCP connections (diagnostics; aggregate state sizing).
  std::vector<TcpConnection*> Connections() const;

  // Names this stack's chunk in a composite node image (a node owns both a
  // guest stack and a dom0 stack, so unique ids are assigned by the owner).
  void SetCheckpointId(std::string id) { checkpoint_id_ = std::move(id); }

  // Checkpointable: port/packet-id allocators plus one nested blob per live
  // TCP connection, keyed by (peer, peer port, local port). Restore matches
  // blobs to the connections the freshly built experiment created — an
  // unmatched blob is skipped (its endpoint's callbacks cannot be rebuilt
  // here), keeping restore forward compatible with topology changes.
  std::string checkpoint_id() const override { return checkpoint_id_; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  struct Listener {
    std::function<void(TcpConnection*)> on_accept;
    TcpConnection::Params params;
  };

  // Key for a TCP endpoint: (peer node, peer port, local port).
  struct ConnKey {
    NodeId peer;
    uint16_t peer_port;
    uint16_t local_port;
    bool operator<(const ConnKey& o) const {
      if (peer != o.peer) {
        return peer < o.peer;
      }
      if (peer_port != o.peer_port) {
        return peer_port < o.peer_port;
      }
      return local_port < o.local_port;
    }
  };

  Nic* RouteFor(NodeId dst) const;

  Simulator* sim_;
  TimerHost* timers_;
  NodeId addr_;
  std::vector<std::unique_ptr<Nic>> nics_;
  Nic* default_nic_ = nullptr;
  std::unordered_map<NodeId, Nic*> routes_;
  std::unordered_map<uint16_t, std::function<void(const Packet&)>> udp_handlers_;
  std::unordered_map<uint16_t, Listener> tcp_listeners_;
  std::map<ConnKey, std::unique_ptr<TcpConnection>> connections_;
  std::string checkpoint_id_ = "net.stack";
  uint16_t next_ephemeral_port_ = 40000;
  uint64_t next_packet_id_ = 1;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_STACK_H_
