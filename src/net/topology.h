// Generated large-scale topologies for the partitioned kernel.
//
// Two shapes, both built from the existing Lan/Wire/Nic elements plus static
// routers (cf. SimGrid's fat-tree zones):
//
//  - kFatTree: hosts grouped into LANs (edge), LANs grouped into zones
//    (pods) behind one aggregation router each, pods joined by a small core
//    layer. Cross-pod traffic takes edge LAN -> aggregation -> core ->
//    aggregation -> edge LAN.
//  - kMultiLanZones: the same edge/zone grouping, but zone routers are
//    joined by a full mesh of point-to-point trunks (no core layer).
//
// Partitioning: zones are assigned round-robin to partitions (zone % P), so
// every LAN, its hosts and its zone router share one partition; only trunk
// wires cross partitions, and their propagation delay is the scheduler's
// conservative lookahead. The same topology object drives the sequential
// oracle (workers = 0) and the parallel run — construction order, seeds and
// routing are independent of both the partition count and the worker count.
//
// Each host runs a TrafficNode: a self-clocked request generator whose
// behaviour digest is deliberately order-insensitive (per-packet-id hashes
// folded with commutative sum/xor, receive-side decisions keyed on the packet
// id rather than rng-draw order), so the digest is invariant across partition
// counts even when nanosecond-tied deliveries interleave differently. With
// loss_rate > 0 the per-wire loss draws become arrival-order dependent, so
// cross-partition-count identity is only guaranteed at loss_rate == 0 (the
// default); sequential-vs-parallel identity at a fixed partition count holds
// regardless.

#ifndef TCSIM_SRC_NET_TOPOLOGY_H_
#define TCSIM_SRC_NET_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/boundary.h"
#include "src/net/lan.h"
#include "src/net/nic.h"
#include "src/net/packet.h"
#include "src/net/wire.h"
#include "src/sim/checkpointable.h"
#include "src/sim/digest.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/simulator.h"
#include "src/sim/staging.h"
#include "src/sim/time.h"

namespace tcsim {

enum class TopologyShape : uint8_t {
  kFatTree,
  kMultiLanZones,
};

struct GeneratedTopologyParams {
  TopologyShape shape = TopologyShape::kFatTree;
  uint32_t hosts = 100;
  uint32_t hosts_per_lan = 10;
  uint32_t lans_per_zone = 2;
  uint64_t port_bandwidth_bps = 1'000'000'000;    // host and edge links
  SimTime port_delay = 20 * kMicrosecond;
  uint64_t trunk_bandwidth_bps = 10'000'000'000;  // inter-zone links
  SimTime trunk_delay = 500 * kMicrosecond;       // = conservative lookahead
  double loss_rate = 0.0;
  uint64_t seed = 1;
  // Traffic model (see TrafficNode).
  SimTime mean_send_gap = 250 * kMicrosecond;
  uint32_t payload_bytes = 512;
  double remote_fraction = 0.3;  // probability a send leaves the zone
};

// Host/LAN/zone arithmetic shared by nodes, routers and the builder. Node
// ids are 1-based (id 0 is reserved); index = id - 1.
struct TopologyLayout {
  uint32_t hosts = 0;
  uint32_t hosts_per_lan = 1;
  uint32_t lans = 0;
  uint32_t lans_per_zone = 1;
  uint32_t zones = 0;

  uint32_t lan_of_index(uint32_t index) const { return index / hosts_per_lan; }
  uint32_t lan_of(NodeId id) const { return lan_of_index(id - 1); }
  uint32_t zone_of_lan(uint32_t lan) const { return lan / lans_per_zone; }
  // Host-index range [first, end) of a zone (the last zone may be partial).
  uint32_t zone_first_index(uint32_t zone) const {
    return zone * lans_per_zone * hosts_per_lan;
  }
  uint32_t zone_end_index(uint32_t zone) const {
    const uint64_t end =
        static_cast<uint64_t>(zone + 1) * lans_per_zone * hosts_per_lan;
    return end > hosts ? hosts : static_cast<uint32_t>(end);
  }
};

// Interior router with a static destination-LAN -> next-hop-wire table; a
// packet for a LAN with no route is dropped. Stateless per packet, so running
// it inside whichever partition delivered the packet is safe by construction.
class StaticRouter : public PacketHandler, public Checkpointable {
 public:
  explicit StaticRouter(TopologyLayout layout) : layout_(layout) {}

  void SetLanRoute(uint32_t lan, Wire* hop);

  void HandlePacket(const Packet& pkt) override;

  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped() const { return dropped_; }

  // Checkpointable: the routing tables are construction-time constants, so
  // only the forwarding counters are restorable state.
  void SetCheckpointId(std::string id) { checkpoint_id_ = std::move(id); }
  std::string checkpoint_id() const override { return checkpoint_id_; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  TopologyLayout layout_;
  std::vector<Wire*> lan_routes_;
  uint64_t forwarded_ = 0;
  uint64_t dropped_ = 0;
  std::string checkpoint_id_ = "net.router";
};

// A host: sends fixed-size datagrams at exponentially distributed intervals
// to same-LAN peers (or, with remote_fraction probability, to a host in
// another zone); receivers echo a short pong for roughly half the data
// packets, chosen by a hash of the packet id. All randomness is drawn on the
// send path from a node-private rng seeded only by (topology seed, node id),
// and every derived quantity folded into the behaviour digest is commutative,
// which is what makes the digest partition-count invariant.
class TrafficNode : public Checkpointable {
 public:
  struct Traffic {
    SimTime mean_gap;
    uint32_t payload_bytes;
    double remote_fraction;
  };

  TrafficNode(Simulator* sim, uint32_t index, TopologyLayout layout,
              Traffic traffic, uint64_t topology_seed);

  NodeId id() const { return index_ + 1; }
  Nic* nic() { return nic_.get(); }

  // Arms the first send. Call once, before running.
  void Start();

  uint64_t sent() const { return sent_; }
  uint64_t rx_packets() const { return rx_packets_; }
  uint64_t rx_bytes() const { return rx_bytes_; }
  uint64_t pongs_sent() const { return pongs_sent_; }

  // Folds this node's order-insensitive observables into `d`.
  void MixBehavior(Fnv1aDigest* d) const;

  // Checkpointable: counters, commutative digest accumulators, the send rng
  // and the armed send's deadline (re-armed on restore).
  std::string checkpoint_id() const override;
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  void ScheduleNext();
  void SendOne();
  void OnReceive(const Packet& pkt);
  NodeId PickDestination();

  Simulator* sim_;
  uint32_t index_;  // 0-based host index
  TopologyLayout layout_;
  Traffic traffic_;
  Rng rng_;
  std::unique_ptr<Nic> nic_;
  uint64_t next_data_seq_ = 0;
  SimTime next_send_at_ = 0;
  uint64_t sent_ = 0;
  uint64_t rx_packets_ = 0;
  uint64_t rx_bytes_ = 0;
  uint64_t pongs_sent_ = 0;
  uint64_t digest_sum_ = 0;  // commutative accumulators over packet-id hashes
  uint64_t digest_xor_ = 0;
};

// A generated topology plus the partitioned kernel driving it. Always runs
// through a PartitionScheduler — with one partition and zero workers that is
// exactly the classic single-threaded kernel.
class GeneratedTopology {
 public:
  // `partitions` is clamped to the zone count; `workers` is the scheduler's
  // extra-thread count (0 = sequential oracle).
  static std::unique_ptr<GeneratedTopology> Build(
      const GeneratedTopologyParams& params, uint32_t partitions,
      uint32_t workers);

  ~GeneratedTopology();

  void RunUntil(SimTime t) { scheduler_->RunUntil(t); }

  PartitionScheduler* scheduler() { return scheduler_.get(); }
  // The one path across partition cuts: one stream per cross-partition
  // interior wire, in construction order, stepped after every window.
  PartitionBoundary* boundary() { return boundary_.get(); }
  const TopologyLayout& layout() const { return layout_; }
  const GeneratedTopologyParams& params() const { return params_; }
  size_t partition_count() const { return sims_.size(); }
  size_t node_count() const { return nodes_.size(); }
  TrafficNode* node(size_t i) { return nodes_[i].get(); }
  uint32_t node_partition(size_t i) const { return node_partition_[i]; }
  Simulator* partition_sim(size_t i) { return sims_[i].get(); }

  // Deterministic merge of the per-partition event digests (see
  // PartitionScheduler::MergedDigest).
  uint64_t EventDigest() const { return scheduler_->MergedDigest(); }

  // Order-insensitive workload digest, folded over nodes in id order.
  // Invariant across partition counts and across sequential/parallel modes.
  uint64_t BehaviorDigest() const;

  uint64_t TotalEvents() const { return scheduler_->TotalEvents(); }
  uint64_t PacketsSent() const;
  uint64_t PacketsDelivered() const;

  // --- Capture/restore --------------------------------------------------------
  // Build freezes one deterministic component walk per partition and assigns
  // checkpoint ids to every wire and router. The walk starts with the
  // partition's hosts and NICs in node-id order, then its LAN uplink wires,
  // interior wires, zone routers and core routers.

  // Composite checkpoint image of the walk's host/NIC prefix: the
  // SerializeStagedImage of SnapshotPartition. Enough for the digest
  // oracles, not for failover, which must rebuild the *entire* partition:
  // wires holding in-flight frames, serializer clocks and loss rngs, router
  // counters. Safe to call concurrently for different partitions from the
  // scheduler's capture phase.
  std::vector<uint8_t> CapturePartitionImage(uint32_t partition) const;

  // Freeze-phase half of the same capture: StageComponents of the prefix,
  // appended to `out` without framing (the owner Resets `out` first). Same
  // concurrency contract.
  void SnapshotPartition(uint32_t partition, StagedCapture* out) const;

  // Composite image of the whole walk, the SerializeStagedImage of
  // SnapshotHaPartition: everything restorable in `partition`. Its leading
  // chunks are CapturePartitionImage's. Same concurrency contract.
  std::vector<uint8_t> CaptureHaPartitionImage(uint32_t partition) const;

  // Freeze-phase half: clones the whole walk's state into `out`.
  void SnapshotHaPartition(uint32_t partition, StagedCapture* out) const;

  // Restores every component of `partition` from an image captured by
  // CaptureHaPartitionImage. Components re-arm their pending events
  // DMTCP-style as they restore, so the caller must have wiped the
  // partition's event queue (Simulator::ResetForRestore) first. False on a
  // malformed image or a missing chunk.
  bool RestoreHaPartition(uint32_t partition,
                          const std::vector<uint8_t>& image);

  // Interior (router-to-router / router-to-LAN) wires, in construction
  // order; the HA layer aims link faults at them.
  size_t interior_wire_count() const { return interior_wires_.size(); }
  Wire* interior_wire(size_t i) { return interior_wires_[i].get(); }
  // Partition whose simulator drives interior wire `i` (its source side).
  uint32_t interior_wire_partition(size_t i) const {
    return interior_wire_partition_[i];
  }

  uint32_t lan_partition(uint32_t lan) const {
    return zone_partition_[layout_.zone_of_lan(lan)];
  }

 private:
  GeneratedTopology() = default;

  Wire* MakeInteriorWire(uint32_t src_partition, uint32_t dst_partition,
                         uint64_t bandwidth_bps, SimTime delay,
                         PacketHandler* sink);

  // Fills walks_ and host_walk_size_ and names every wire and router. Called
  // once, at the end of Build.
  void FreezeWalks();

  GeneratedTopologyParams params_;
  TopologyLayout layout_;
  std::vector<std::unique_ptr<Simulator>> sims_;  // one per partition
  std::unique_ptr<PartitionScheduler> scheduler_;
  std::unique_ptr<PartitionBoundary> boundary_;
  std::vector<uint32_t> zone_partition_;
  std::vector<std::unique_ptr<Lan>> lans_;
  std::vector<std::unique_ptr<StaticRouter>> zone_routers_;
  std::vector<std::unique_ptr<StaticRouter>> core_routers_;
  std::vector<std::unique_ptr<Wire>> interior_wires_;
  std::vector<uint32_t> interior_wire_partition_;  // source partition per wire
  std::vector<uint32_t> core_partition_;           // fat-tree core placement
  std::vector<std::unique_ptr<TrafficNode>> nodes_;
  std::vector<uint32_t> node_partition_;
  // Per-partition capture walk, frozen by Build. Order is a function of
  // topology construction only — identical across runs, so images are
  // byte-comparable between a faulty and a fault-free run.
  std::vector<std::vector<Checkpointable*>> walks_;
  std::vector<size_t> host_walk_size_;  // host/NIC prefix length per walk
  uint64_t next_wire_seed_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_TOPOLOGY_H_
