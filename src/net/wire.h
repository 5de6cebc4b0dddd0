// Unidirectional transmission element: bandwidth, propagation delay, loss.

#ifndef TCSIM_SRC_NET_WIRE_H_
#define TCSIM_SRC_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "src/net/packet.h"
#include "src/sim/checkpointable.h"
#include "src/sim/fifo.h"
#include "src/sim/invariants.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

class PartitionBoundary;

// Anything that can accept a packet: a NIC, a switch fabric, a Dummynet pipe.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;

  // Delivers `pkt` to this element at the current simulation time.
  virtual void HandlePacket(const Packet& pkt) = 0;
};

// A one-way wire. Models serialization (back-to-back packets queue behind one
// another at `bandwidth_bps`), constant propagation delay, and Bernoulli
// loss. A bandwidth of 0 means "infinitely fast" — used for the zero-delay
// links between experiment nodes and their delay nodes (Section 4.4).
//
// An intra-partition wire keeps one pending event, however many packets are
// in flight: Transmit reserves each packet's event sequence number and
// queues the packet, and only the head delivery is scheduled. Delivering
// the head schedules the next one under its reserved number, so every
// delivery fires at the (time, seq) a per-packet event would have had.
//
// Checkpointable: a wire's restorable state is its serializer clock
// (busy_until_), its loss rng, its byte/packet counters, any armed link
// fault, and — for intra-partition wires — the explicit list of deliveries
// still in flight. In-flight deliveries are kept as plain data (deliver
// instant + packet) rather than captured closures, so RestoreState can
// re-arm them DMTCP-plugin style after the event queue was wiped. Sequence
// numbers are not saved: a restore reserves fresh ones.
class Wire : public Checkpointable {
 public:
  Wire(Simulator* sim, Rng rng, uint64_t bandwidth_bps, SimTime propagation_delay,
       double loss_rate, PacketHandler* sink)
      : sim_(sim),
        rng_(rng),
        bandwidth_bps_(bandwidth_bps),
        delay_(propagation_delay),
        loss_rate_(loss_rate),
        sink_(sink) {}

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  // Accepts `pkt` for transmission. The packet occupies the wire for its
  // serialization time, then arrives at the sink after the propagation delay
  // (unless lost).
  void Transmit(const Packet& pkt);

  // Re-targets the wire (used when rewiring topologies during swap-in).
  void set_sink(PacketHandler* sink) { sink_ = sink; }

  // Marks this wire as a cross-partition link: the source end
  // (serialization, loss, busy time) stays in this wire's simulator, and
  // every packet that survives the loss draw goes to `boundary` as `stream`,
  // whose sink lives in the destination partition (src/net/boundary.h). The
  // wire's propagation delay becomes part of the scheduler's conservative
  // lookahead — callers must register it via
  // PartitionScheduler::RegisterCrossLatency. Delivered-byte accounting
  // happens at the hand-off: once in the boundary the packet is off this
  // wire (the destination thread never writes the source-side counters).
  void BindCrossPartition(PartitionBoundary* boundary, uint32_t stream);

  // Fault injection: until simulated instant `until`, transmissions are lost
  // with probability `loss` instead of the configured loss rate. loss >= 1
  // drops deterministically without consuming an rng draw (a dead link, not
  // a lossy one); loss 0 with `until` in the past clears the fault.
  void InjectLinkFault(SimTime until, double loss);

  uint64_t bandwidth_bps() const { return bandwidth_bps_; }
  SimTime propagation_delay() const { return delay_; }

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }

  // Byte-level accounting for conservation audits: every byte accepted for
  // transmission is delivered to the sink, dropped by loss, or still on the
  // wire.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_delivered() const { return bytes_delivered_; }
  uint64_t bytes_dropped() const { return bytes_dropped_; }
  uint64_t bytes_in_flight() const { return bytes_in_flight_; }

  // Registers the byte-conservation audit under `name` (sent == delivered +
  // dropped + in-flight).
  void RegisterInvariants(InvariantRegistry* reg, const std::string& name);

  // Names this wire's chunk in a composite partition image (owners assign
  // ids like "net.wire.lan.3.1"; the default is only safe for a wire that
  // never enters an image).
  void SetCheckpointId(std::string id) { checkpoint_id_ = std::move(id); }

  // Checkpointable.
  std::string checkpoint_id() const override { return checkpoint_id_; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  struct InFlightPacket {
    SimTime deliver_at = 0;
    uint64_t seq = 0;  // the delivery event's reserved sequence number
    Packet pkt;
  };

  SimTime SerializationTime(uint32_t bytes) const;
  // Schedules the oldest in-flight delivery under its reserved number.
  void ArmHead();
  // Completes the oldest in-flight delivery and arms the next. Wires deliver
  // FIFO by construction: busy_until_ is monotone and the propagation delay
  // is constant, so arrival order equals transmission order, and each
  // delivery's (deliver_at, seq) is later than its predecessor's.
  void DeliverHead();

  Simulator* sim_;
  Rng rng_;
  uint64_t bandwidth_bps_;
  SimTime delay_;
  double loss_rate_;
  PacketHandler* sink_;
  PartitionBoundary* boundary_ = nullptr;  // non-null: cross-partition wire
  uint32_t stream_ = 0;
  SimTime busy_until_ = 0;
  SimTime fault_until_ = 0;
  double fault_loss_ = 0.0;
  Fifo<InFlightPacket> in_flight_;
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_delivered_ = 0;
  uint64_t bytes_dropped_ = 0;
  uint64_t bytes_in_flight_ = 0;
  std::string checkpoint_id_ = "net.wire";
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_WIRE_H_
