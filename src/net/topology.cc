#include "src/net/topology.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "src/sim/archive.h"
#include "src/sim/image.h"

namespace tcsim {

namespace {

// SplitMix64 finalizer: cheap, well-mixed 64-bit hash for per-entity seeds
// and per-packet-id digest contributions.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr uint16_t kDataPort = 7;
constexpr uint16_t kPongPort = 8;

constexpr uint64_t kRxSalt = 0x7061636B6574ull;    // "packet"
constexpr uint64_t kXorSalt = 0x6D6972726F72ull;   // "mirror"
constexpr uint64_t kPongSalt = 0x706F6E67ull;      // "pong"

}  // namespace

// --- StaticRouter -------------------------------------------------------------

void StaticRouter::SetLanRoute(uint32_t lan, Wire* hop) {
  if (lan >= lan_routes_.size()) {
    lan_routes_.resize(lan + 1, nullptr);
  }
  lan_routes_[lan] = hop;
}

void StaticRouter::HandlePacket(const Packet& pkt) {
  const uint32_t lan = layout_.lan_of(pkt.dst);
  Wire* hop = lan < lan_routes_.size() ? lan_routes_[lan] : nullptr;
  if (hop == nullptr) {
    ++dropped_;
    return;
  }
  ++forwarded_;
  hop->Transmit(pkt);
}

void StaticRouter::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(forwarded_);
  w->Write<uint64_t>(dropped_);
}

void StaticRouter::RestoreState(ArchiveReader& r) {
  forwarded_ = r.Read<uint64_t>();
  dropped_ = r.Read<uint64_t>();
}

// --- TrafficNode --------------------------------------------------------------

TrafficNode::TrafficNode(Simulator* sim, uint32_t index, TopologyLayout layout,
                         Traffic traffic, uint64_t topology_seed)
    : sim_(sim),
      index_(index),
      layout_(layout),
      traffic_(traffic),
      // Seeded from (topology seed, node id) only — NOT forked from a shared
      // root — so a node's draw stream is identical no matter how many
      // partitions the topology is split into.
      rng_(topology_seed ^ Mix64(index + 1)) {
  nic_ = std::make_unique<Nic>(sim, id());
  nic_->SetCheckpointId("net.nic." + std::to_string(id()));
  nic_->SetReceiver([this](const Packet& pkt) { OnReceive(pkt); });
}

std::string TrafficNode::checkpoint_id() const {
  return "traffic.node." + std::to_string(id());
}

void TrafficNode::Start() { ScheduleNext(); }

void TrafficNode::ScheduleNext() {
  const SimTime gap = static_cast<SimTime>(rng_.Exponential(
                          static_cast<double>(traffic_.mean_gap))) +
                      kMicrosecond;
  next_send_at_ = sim_->Now() + gap;
  sim_->ScheduleAt(next_send_at_, [this] { SendOne(); });
}

NodeId TrafficNode::PickDestination() {
  const bool remote =
      layout_.zones > 1 && rng_.NextDouble() < traffic_.remote_fraction;
  if (remote) {
    const uint32_t zone = layout_.zone_of_lan(layout_.lan_of_index(index_));
    const uint32_t zone_first = layout_.zone_first_index(zone);
    const uint32_t zone_size = layout_.zone_end_index(zone) - zone_first;
    const uint32_t others = layout_.hosts - zone_size;
    uint32_t k = static_cast<uint32_t>(rng_.NextUint64() % others);
    if (k >= zone_first) {
      k += zone_size;  // skip over my own zone's index range
    }
    return k + 1;
  }
  // Same-LAN peer, excluding self.
  const uint32_t lan = layout_.lan_of_index(index_);
  const uint32_t lan_first = lan * layout_.hosts_per_lan;
  const uint32_t lan_size =
      std::min(layout_.hosts, lan_first + layout_.hosts_per_lan) - lan_first;
  if (lan_size <= 1) {
    return index_ + 1;  // lone host on its LAN: self-send keeps draws aligned
  }
  uint32_t k = static_cast<uint32_t>(rng_.NextUint64() % (lan_size - 1));
  k += lan_first;
  if (k >= index_) {
    ++k;
  }
  return k + 1;
}

void TrafficNode::SendOne() {
  Packet pkt;
  // Data ids are (node id, send index): unique, and assigned in send order,
  // which is a node-local schedule independent of partitioning.
  pkt.id = (static_cast<uint64_t>(id()) << 32) | next_data_seq_++;
  pkt.src = id();
  pkt.dst = PickDestination();
  pkt.src_port = kDataPort;
  pkt.dst_port = kDataPort;
  pkt.size_bytes = kPacketHeaderBytes + traffic_.payload_bytes;
  pkt.first_sent = sim_->Now();
  ++sent_;
  nic_->Send(pkt);
  ScheduleNext();
}

void TrafficNode::OnReceive(const Packet& pkt) {
  ++rx_packets_;
  rx_bytes_ += pkt.size_bytes;
  // Commutative accumulators: sum and xor are invariant under delivery
  // reordering, so nanosecond ties interleaving differently across partition
  // counts cannot change the behaviour digest.
  digest_sum_ += Mix64(pkt.id ^ kRxSalt);
  digest_xor_ ^= Mix64(pkt.id ^ kXorSalt);
  if (pkt.dst_port != kDataPort) {
    return;  // never pong a pong
  }
  // The pong decision and the pong's id derive from the data packet's id —
  // not from this node's rng or send counter — so the receive path stays
  // draw-free and order-insensitive.
  const uint64_t pong_hash = Mix64(pkt.id ^ kPongSalt);
  if ((pong_hash & 1) == 0) {
    return;
  }
  Packet pong;
  pong.id = pong_hash | (1ull << 63);  // disjoint from the data-id space
  pong.src = id();
  pong.dst = pkt.src;
  pong.src_port = kPongPort;
  pong.dst_port = kPongPort;
  pong.size_bytes = kAckPacketBytes;
  pong.first_sent = sim_->Now();
  ++pongs_sent_;
  nic_->Send(pong);
}

void TrafficNode::MixBehavior(Fnv1aDigest* d) const {
  d->Mix(id());
  d->Mix(sent_);
  d->Mix(rx_packets_);
  d->Mix(rx_bytes_);
  d->Mix(pongs_sent_);
  d->Mix(digest_sum_);
  d->Mix(digest_xor_);
}

void TrafficNode::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(next_data_seq_);
  w->Write<SimTime>(next_send_at_);
  w->Write<uint64_t>(sent_);
  w->Write<uint64_t>(rx_packets_);
  w->Write<uint64_t>(rx_bytes_);
  w->Write<uint64_t>(pongs_sent_);
  w->Write<uint64_t>(digest_sum_);
  w->Write<uint64_t>(digest_xor_);
  rng_.Save(w);
}

void TrafficNode::RestoreState(ArchiveReader& r) {
  next_data_seq_ = r.Read<uint64_t>();
  next_send_at_ = r.Read<SimTime>();
  sent_ = r.Read<uint64_t>();
  rx_packets_ = r.Read<uint64_t>();
  rx_bytes_ = r.Read<uint64_t>();
  pongs_sent_ = r.Read<uint64_t>();
  digest_sum_ = r.Read<uint64_t>();
  digest_xor_ = r.Read<uint64_t>();
  rng_.Restore(r);
  if (!r.ok()) {
    return;
  }
  // The send chain is always armed; re-arm it at its saved deadline.
  sim_->ScheduleAt(next_send_at_, [this] { SendOne(); });
}

// --- GeneratedTopology --------------------------------------------------------

GeneratedTopology::~GeneratedTopology() {
  // The scheduler owns the Partition objects whose destructors detach the
  // queue guards from sims_; drop it while sims_ is still alive.
  scheduler_.reset();
}

Wire* GeneratedTopology::MakeInteriorWire(uint32_t src_partition,
                                          uint32_t dst_partition,
                                          uint64_t bandwidth_bps, SimTime delay,
                                          PacketHandler* sink) {
  // Wire seeds advance in construction order, which depends only on the
  // topology shape — never on the partition or worker count.
  auto wire = std::make_unique<Wire>(
      sims_[src_partition].get(), Rng(params_.seed ^ Mix64(0x9000 + next_wire_seed_++)),
      bandwidth_bps, delay, params_.loss_rate, sink);
  if (src_partition != dst_partition) {
    wire->BindCrossPartition(partitions_[src_partition], dst_partition);
    scheduler_->RegisterCrossLatency(delay);
  }
  interior_wires_.push_back(std::move(wire));
  interior_wire_partition_.push_back(src_partition);
  return interior_wires_.back().get();
}

std::unique_ptr<GeneratedTopology> GeneratedTopology::Build(
    const GeneratedTopologyParams& params, uint32_t partitions,
    uint32_t workers) {
  assert(params.hosts > 0 && params.hosts_per_lan > 0 &&
         params.lans_per_zone > 0);
  std::unique_ptr<GeneratedTopology> topo(new GeneratedTopology());
  topo->params_ = params;
  TopologyLayout& layout = topo->layout_;
  layout.hosts = params.hosts;
  layout.hosts_per_lan = params.hosts_per_lan;
  layout.lans = (params.hosts + params.hosts_per_lan - 1) / params.hosts_per_lan;
  layout.lans_per_zone = params.lans_per_zone;
  layout.zones = (layout.lans + params.lans_per_zone - 1) / params.lans_per_zone;

  const uint32_t effective =
      std::max(1u, std::min(partitions, layout.zones));
  PartitionScheduler::Options opts;
  opts.workers = workers;
  topo->scheduler_ = std::make_unique<PartitionScheduler>(opts);
  for (uint32_t p = 0; p < effective; ++p) {
    topo->sims_.push_back(std::make_unique<Simulator>());
    topo->partitions_.push_back(
        topo->scheduler_->AddPartition(topo->sims_.back().get()));
  }
  topo->zone_partition_.resize(layout.zones);
  for (uint32_t z = 0; z < layout.zones; ++z) {
    topo->zone_partition_[z] = z % effective;
  }

  // Edge: one Lan per group of hosts, living in its zone's partition.
  for (uint32_t l = 0; l < layout.lans; ++l) {
    const uint32_t p = topo->zone_partition_[layout.zone_of_lan(l)];
    topo->lans_.push_back(std::make_unique<Lan>(
        topo->sims_[p].get(), Rng(params.seed ^ Mix64(0x5000 + l)),
        params.port_bandwidth_bps, params.port_delay, params.loss_rate));
  }

  // Hosts.
  TrafficNode::Traffic traffic{params.mean_send_gap, params.payload_bytes,
                               params.remote_fraction};
  for (uint32_t i = 0; i < params.hosts; ++i) {
    const uint32_t lan = layout.lan_of_index(i);
    const uint32_t p = topo->zone_partition_[layout.zone_of_lan(lan)];
    topo->nodes_.push_back(std::make_unique<TrafficNode>(
        topo->sims_[p].get(), i, layout, traffic, params.seed));
    topo->node_partition_.push_back(p);
    topo->lans_[lan]->Attach(topo->nodes_.back()->nic());
  }

  // Zone routers: every LAN's gateway, with downlink wires back to each of
  // the zone's LANs.
  for (uint32_t z = 0; z < layout.zones; ++z) {
    topo->zone_routers_.push_back(std::make_unique<StaticRouter>(layout));
  }
  for (uint32_t l = 0; l < layout.lans; ++l) {
    const uint32_t z = layout.zone_of_lan(l);
    const uint32_t p = topo->zone_partition_[z];
    StaticRouter* zr = topo->zone_routers_[z].get();
    topo->lans_[l]->SetGateway(zr);
    zr->SetLanRoute(l, topo->MakeInteriorWire(p, p, params.trunk_bandwidth_bps,
                                              params.port_delay,
                                              topo->lans_[l].get()));
  }

  if (params.shape == TopologyShape::kFatTree && layout.zones > 1) {
    // Core layer: core c serves destination zones with z % cores == c and is
    // itself placed round-robin across partitions.
    const uint32_t cores = std::max(1u, std::min(4u, layout.zones / 2));
    std::vector<uint32_t>& core_partition = topo->core_partition_;
    core_partition.resize(cores);
    for (uint32_t c = 0; c < cores; ++c) {
      topo->core_routers_.push_back(std::make_unique<StaticRouter>(layout));
      core_partition[c] = c % effective;
    }
    for (uint32_t z = 0; z < layout.zones; ++z) {
      const uint32_t zp = topo->zone_partition_[z];
      StaticRouter* zr = topo->zone_routers_[z].get();
      // Aggregation uplinks: one wire per core, shared by every remote LAN
      // whose zone that core serves.
      std::vector<Wire*> uplinks(cores);
      for (uint32_t c = 0; c < cores; ++c) {
        uplinks[c] = topo->MakeInteriorWire(
            zp, core_partition[c], params.trunk_bandwidth_bps,
            params.trunk_delay, topo->core_routers_[c].get());
      }
      for (uint32_t l = 0; l < layout.lans; ++l) {
        const uint32_t dz = layout.zone_of_lan(l);
        if (dz != z) {
          zr->SetLanRoute(l, uplinks[dz % cores]);
        }
      }
      // Core downlinks into this zone's aggregation router.
      Wire* down = topo->MakeInteriorWire(
          core_partition[z % cores], zp, params.trunk_bandwidth_bps,
          params.trunk_delay, zr);
      for (uint32_t l = layout.lans_per_zone * z;
           l < std::min(layout.lans, layout.lans_per_zone * (z + 1)); ++l) {
        topo->core_routers_[z % cores]->SetLanRoute(l, down);
      }
    }
  } else if (params.shape == TopologyShape::kMultiLanZones &&
             layout.zones > 1) {
    // Full mesh of point-to-point trunks between zone routers.
    for (uint32_t z = 0; z < layout.zones; ++z) {
      const uint32_t zp = topo->zone_partition_[z];
      StaticRouter* zr = topo->zone_routers_[z].get();
      for (uint32_t dz = 0; dz < layout.zones; ++dz) {
        if (dz == z) {
          continue;
        }
        Wire* trunk = topo->MakeInteriorWire(
            zp, topo->zone_partition_[dz], params.trunk_bandwidth_bps,
            params.trunk_delay, topo->zone_routers_[dz].get());
        for (uint32_t l = layout.lans_per_zone * dz;
             l < std::min(layout.lans, layout.lans_per_zone * (dz + 1)); ++l) {
          zr->SetLanRoute(l, trunk);
        }
      }
    }
  }

  topo->FreezeWalks();
  for (auto& node : topo->nodes_) {
    node->Start();
  }
  return topo;
}

void GeneratedTopology::FreezeWalks() {
  walks_.resize(sims_.size());
  // Hosts and NICs first, in node-id order: the prefix CapturePartitionImage
  // serializes, so an HA image is a strict superset of it with the same
  // leading chunks.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    auto& walk = walks_[node_partition_[i]];
    walk.push_back(nodes_[i].get());
    walk.push_back(nodes_[i]->nic());
  }
  for (const auto& walk : walks_) {
    host_walk_size_.push_back(walk.size());
  }
  // LAN uplink wires: where a segment's in-flight frames live.
  for (uint32_t l = 0; l < layout_.lans; ++l) {
    const uint32_t p = lan_partition(l);
    Lan* lan = lans_[l].get();
    for (size_t u = 0; u < lan->uplink_count(); ++u) {
      Wire* w = lan->uplink(u);
      w->SetCheckpointId("net.wire.lan." + std::to_string(l) + "." +
                         std::to_string(u));
      walks_[p].push_back(w);
    }
  }
  // Interior wires belong to the partition that drives their source side; a
  // cross-partition wire's restorable state (serializer clock, loss rng,
  // counters) all lives there — its deliveries are boundary posts, not
  // in-flight entries.
  for (size_t i = 0; i < interior_wires_.size(); ++i) {
    Wire* w = interior_wires_[i].get();
    w->SetCheckpointId("net.wire.x." + std::to_string(i));
    walks_[interior_wire_partition_[i]].push_back(w);
  }
  for (uint32_t z = 0; z < zone_routers_.size(); ++z) {
    StaticRouter* r = zone_routers_[z].get();
    r->SetCheckpointId("net.router.zone." + std::to_string(z));
    walks_[zone_partition_[z]].push_back(r);
  }
  for (uint32_t c = 0; c < core_routers_.size(); ++c) {
    StaticRouter* r = core_routers_[c].get();
    r->SetCheckpointId("net.router.core." + std::to_string(c));
    walks_[core_partition_[c]].push_back(r);
  }
}

uint64_t GeneratedTopology::BehaviorDigest() const {
  Fnv1aDigest d;
  for (const auto& node : nodes_) {
    node->MixBehavior(&d);
  }
  return d.value();
}

uint64_t GeneratedTopology::PacketsSent() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->sent() + node->pongs_sent();
  }
  return total;
}

uint64_t GeneratedTopology::PacketsDelivered() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->rx_packets();
  }
  return total;
}

std::vector<uint8_t> GeneratedTopology::CapturePartitionImage(
    uint32_t partition) const {
  StagedCapture staged;
  SnapshotPartition(partition, &staged);
  return SerializeStagedImage(staged);
}

void GeneratedTopology::SnapshotPartition(uint32_t partition,
                                          StagedCapture* out) const {
  StageComponents(
      std::span(walks_[partition]).first(host_walk_size_[partition]), out);
}

std::vector<uint8_t> GeneratedTopology::CaptureHaPartitionImage(
    uint32_t partition) const {
  StagedCapture staged;
  SnapshotHaPartition(partition, &staged);
  return SerializeStagedImage(staged);
}

void GeneratedTopology::SnapshotHaPartition(uint32_t partition,
                                            StagedCapture* out) const {
  StageComponents(walks_[partition], out);
}

bool GeneratedTopology::RestoreHaPartition(uint32_t partition,
                                           const std::vector<uint8_t>& image) {
  const CheckpointImageView view(image);
  if (!view.ok()) {
    return false;
  }
  for (Checkpointable* c : walks_[partition]) {
    if (!view.RestoreInto(*c)) {
      return false;
    }
  }
  return true;
}

}  // namespace tcsim
