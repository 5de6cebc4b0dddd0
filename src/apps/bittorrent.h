// BitTorrent-style cooperative file distribution (Figure 7).
//
// One seeder and N clients swarm a large file over TCP. Peers exchange
// bitfields on connect, announce HAVE when a piece completes, and request
// pieces (random-needed selection, fixed request pipeline) from peers that
// hold them. Like the paper's setup, the tracker is static: the peer set is
// known up front. Choke/unchoke is omitted — with a handful of peers on one
// LAN it does not change the traffic shape the figure measures.

#ifndef TCSIM_SRC_APPS_BITTORRENT_H_
#define TCSIM_SRC_APPS_BITTORRENT_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/guest/node.h"
#include "src/net/tcp.h"
#include "src/sim/checkpointable.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"

namespace tcsim {

class BitTorrentSwarm;

// One peer (seeder or client) running on an experiment node.
class BitTorrentPeer {
 public:
  BitTorrentPeer(BitTorrentSwarm* swarm, ExperimentNode* node, bool seeder);

  ExperimentNode* node() { return node_; }
  bool complete() const { return pieces_held_ == piece_count_; }
  size_t pieces_held() const { return pieces_held_; }
  SimTime completion_time() const { return completion_time_; }

 private:
  friend class BitTorrentSwarm;

  struct PeerLink {
    TcpConnection* conn = nullptr;
    std::vector<bool> remote_has;
    uint32_t outstanding = 0;
  };

  void Listen();
  void ConnectTo(BitTorrentPeer* remote);
  void Save(ArchiveWriter* w) const;
  void Restore(ArchiveReader& r);
  void OnMessage(NodeId from, std::shared_ptr<AppPayload> payload);
  void OnPieceReceived(NodeId from, uint32_t piece);
  void RequestMore(NodeId from);
  void SendBitfield(NodeId to);
  void BroadcastHave(uint32_t piece);
  PeerLink* link(NodeId peer);

  BitTorrentSwarm* swarm_;
  ExperimentNode* node_;
  uint32_t piece_count_;
  std::vector<bool> have_;
  size_t pieces_held_ = 0;
  std::vector<bool> requested_;  // globally requested by this peer
  std::unordered_map<NodeId, PeerLink> links_;
  SimTime completion_time_ = -1;
  Rng rng_;
};

// The swarm: wiring, parameters, and completion tracking.
class BitTorrentSwarm : public Checkpointable {
 public:
  struct Params {
    uint64_t file_bytes = 3ull * 1024 * 1024 * 1024;  // the paper's 3 GB file
    uint32_t piece_bytes = 256 * 1024;
    uint32_t pipeline_depth = 8;
    uint16_t port = 6881;
    SimTime throughput_bucket = 1 * kSecond;
    uint64_t seed = 7;
  };

  // nodes[0] is the seeder; the rest are clients.
  BitTorrentSwarm(std::vector<ExperimentNode*> nodes, Params params);

  // Opens all connections and starts requesting. `all_done` fires when every
  // client holds the complete file.
  void Start(std::function<void()> all_done = nullptr);

  BitTorrentPeer* peer(size_t i) { return peers_[i].get(); }
  BitTorrentPeer* seeder() { return peers_.front().get(); }
  size_t peer_count() const { return peers_.size(); }
  uint32_t piece_count() const { return piece_count_; }
  const Params& params() const { return params_; }

  // Seeder's outgoing bytes per client, bucketed (Figure 7's three lines).
  ThroughputMeter& seeder_upload_meter(NodeId client) {
    return seeder_upload_meters_.try_emplace(client, params_.throughput_bucket)
        .first->second;
  }

  // Checkpointable: swarm progress — every peer's piece map, request
  // pipeline and per-link bookkeeping, in peer order. Restore targets a
  // freshly wired swarm with the same topology: link connections belong to
  // the fresh experiment; only their data state is overwritten.
  std::string checkpoint_id() const override { return "app.bittorrent"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  friend class BitTorrentPeer;

  void NotePieceComplete(BitTorrentPeer* peer);

  Params params_;
  uint32_t piece_count_;
  std::vector<std::unique_ptr<BitTorrentPeer>> peers_;
  std::unordered_map<NodeId, ThroughputMeter> seeder_upload_meters_;
  std::function<void()> all_done_;
  size_t complete_clients_ = 0;
  Rng rng_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_APPS_BITTORRENT_H_
