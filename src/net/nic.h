// Network interface with checkpoint suspend/replay support.

#ifndef TCSIM_SRC_NET_NIC_H_
#define TCSIM_SRC_NET_NIC_H_

#include <functional>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/sim/checkpointable.h"
#include "src/sim/invariants.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace tcsim {

// One network interface of a node. The receive path implements the packet
// logging required by a distributed checkpoint: while the owning node is
// suspended, arriving packets are appended to a log; on resume they are
// replayed upward in arrival order, so no packet is lost and ordering is
// preserved (Section 3.2). The extra delay each logged packet experienced is
// recorded — it is bounded by the checkpoint synchronization error plus the
// checkpoint downtime.
class Nic : public PacketHandler, public Checkpointable {
 public:
  // Per-NIC packet/byte counters ("net.nic.<addr>.rx_packets", ...) are
  // resolved here, once; the data path only increments.
  Nic(Simulator* sim, NodeId addr);

  // Names this interface's chunk in a composite node image (a node owns
  // several NICs, so ids like "net.nic.expt" are assigned by the owner).
  void SetCheckpointId(std::string id) { checkpoint_id_ = std::move(id); }

  NodeId addr() const { return addr_; }

  // Connects the transmit side to a wire (towards a LAN port or delay node).
  void ConnectTx(Wire* tx) { tx_ = tx; }

  // Registers the upward delivery function (the node's network stack).
  void SetReceiver(std::function<void(const Packet&)> receiver) {
    receiver_ = std::move(receiver);
  }

  // Transmits a packet. Callers (the stack) must not transmit while the
  // owning guest is suspended; guests cannot run then, so this holds by
  // construction.
  void Send(const Packet& pkt);

  // Receive path from the wire.
  void HandlePacket(const Packet& pkt) override;

  // Enters suspend-log mode (called by the checkpoint engine when the node
  // is being suspended).
  void Suspend();

  // Leaves suspend-log mode and replays all logged packets, in order, at the
  // current instant.
  void Resume();

  bool suspended() const { return suspended_; }

  uint64_t packets_received() const { return packets_received_; }
  uint64_t packets_logged() const { return packets_logged_; }

  // Total arrivals from the wire (delivered upward or sitting in the suspend
  // log). Conservation: arrivals == received + pending replay.
  uint64_t packets_arrived() const { return packets_arrived_; }

  // Registers the receive-path conservation audit under `name`: every packet
  // the wire handed to this NIC was either delivered upward or is logged
  // awaiting replay — none lost to a checkpoint.
  void RegisterInvariants(InvariantRegistry* reg, const std::string& name);

  // Delays (in microseconds of physical time) experienced by replayed
  // packets: replay instant minus original arrival.
  const Samples& replay_delays() const { return replay_delays_; }

  // Checkpointable: suspend flag, conservation counters, and the suspend
  // log's packet headers + arrival stamps. Application payloads (shared
  // pointers) do not cross the image boundary; replayed packets restored
  // from an image carry headers only.
  std::string checkpoint_id() const override { return checkpoint_id_; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  struct LoggedPacket {
    Packet pkt;
    SimTime arrival;
  };

  Simulator* sim_;
  NodeId addr_;
  std::string checkpoint_id_ = "net.nic";
  Wire* tx_ = nullptr;
  std::function<void(const Packet&)> receiver_;
  bool suspended_ = false;
  std::vector<LoggedPacket> suspend_log_;
  uint64_t packets_received_ = 0;
  uint64_t packets_logged_ = 0;
  uint64_t packets_arrived_ = 0;
  Samples replay_delays_;

  // Telemetry handles (never serialized; counters are process-wide and
  // monotonic across restores by design).
  obs::Counter* rx_packets_counter_;
  obs::Counter* rx_bytes_counter_;
  obs::Counter* tx_packets_counter_;
  obs::Counter* tx_bytes_counter_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_NIC_H_
