#include "src/apps/bittorrent.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcsim {

namespace {

struct BtMessage : public AppPayload {
  enum class Type { kBitfield, kHave, kRequest, kPiece };
  Type type = Type::kHave;
  uint32_t piece = 0;
  std::vector<bool> bitfield;
};

constexpr uint32_t kControlMessageBytes = 16;

}  // namespace

// --- BitTorrentPeer -----------------------------------------------------------

BitTorrentPeer::BitTorrentPeer(BitTorrentSwarm* swarm, ExperimentNode* node, bool seeder)
    : swarm_(swarm),
      node_(node),
      piece_count_(swarm->piece_count()),
      have_(piece_count_, seeder),
      pieces_held_(seeder ? piece_count_ : 0),
      requested_(piece_count_, false),
      rng_(swarm->params().seed ^ (0xB17700 + node->id())) {}

BitTorrentPeer::PeerLink* BitTorrentPeer::link(NodeId peer) {
  auto it = links_.find(peer);
  return it == links_.end() ? nullptr : &it->second;
}

void BitTorrentPeer::Listen() {
  node_->net().ListenTcp(swarm_->params().port, [this](TcpConnection* conn) {
    PeerLink& l = links_[conn->peer()];
    l.conn = conn;
    l.remote_has.assign(piece_count_, false);
    conn->SetMessageCallback([this, peer = conn->peer()](std::shared_ptr<AppPayload> msg) {
      OnMessage(peer, std::move(msg));
    });
    SendBitfield(conn->peer());
  });
}

void BitTorrentPeer::ConnectTo(BitTorrentPeer* remote) {
  const NodeId peer_id = remote->node()->id();
  TcpConnection* conn = node_->net().ConnectTcp(
      peer_id, swarm_->params().port, TcpConnection::Params{},
      [this, peer_id] { SendBitfield(peer_id); });
  PeerLink& l = links_[peer_id];
  l.conn = conn;
  l.remote_has.assign(piece_count_, false);
  conn->SetMessageCallback([this, peer_id](std::shared_ptr<AppPayload> msg) {
    OnMessage(peer_id, std::move(msg));
  });
}

void BitTorrentPeer::SendBitfield(NodeId to) {
  PeerLink* l = link(to);
  assert(l != nullptr && l->conn != nullptr);
  auto msg = std::make_shared<BtMessage>();
  msg->type = BtMessage::Type::kBitfield;
  msg->bitfield = have_;
  l->conn->SendMessage(kControlMessageBytes + piece_count_ / 8, std::move(msg));
}

void BitTorrentPeer::BroadcastHave(uint32_t piece) {
  for (auto& [peer_id, l] : links_) {
    if (l.conn == nullptr) {
      continue;
    }
    auto msg = std::make_shared<BtMessage>();
    msg->type = BtMessage::Type::kHave;
    msg->piece = piece;
    l.conn->SendMessage(kControlMessageBytes, std::move(msg));
  }
}

void BitTorrentPeer::OnMessage(NodeId from, std::shared_ptr<AppPayload> payload) {
  auto* msg = dynamic_cast<BtMessage*>(payload.get());
  if (msg == nullptr) {
    return;
  }
  PeerLink* l = link(from);
  assert(l != nullptr);
  switch (msg->type) {
    case BtMessage::Type::kBitfield:
      l->remote_has = msg->bitfield;
      RequestMore(from);
      break;
    case BtMessage::Type::kHave:
      if (msg->piece < piece_count_) {
        l->remote_has[msg->piece] = true;
      }
      RequestMore(from);
      break;
    case BtMessage::Type::kRequest: {
      // Serve the piece if we hold it.
      if (msg->piece < piece_count_ && have_[msg->piece] && l->conn != nullptr) {
        auto reply = std::make_shared<BtMessage>();
        reply->type = BtMessage::Type::kPiece;
        reply->piece = msg->piece;
        node_->kernel().TouchMemory(swarm_->params().piece_bytes);
        l->conn->SendMessage(swarm_->params().piece_bytes, std::move(reply));
      }
      break;
    }
    case BtMessage::Type::kPiece:
      OnPieceReceived(from, msg->piece);
      break;
  }
}

void BitTorrentPeer::OnPieceReceived(NodeId from, uint32_t piece) {
  PeerLink* l = link(from);
  if (l != nullptr && l->outstanding > 0) {
    --l->outstanding;
  }
  const SimTime vnow = node_->kernel().GetTimeOfDay();
  if (from == swarm_->seeder()->node()->id()) {
    swarm_->seeder_upload_meter(node_->id()).Add(vnow, swarm_->params().piece_bytes);
  }
  if (piece < piece_count_ && !have_[piece]) {
    have_[piece] = true;
    ++pieces_held_;
    node_->kernel().TouchMemory(swarm_->params().piece_bytes);
    BroadcastHave(piece);
    if (complete()) {
      completion_time_ = vnow;
      swarm_->NotePieceComplete(this);
    }
  }
  RequestMore(from);
}

void BitTorrentPeer::RequestMore(NodeId from) {
  if (complete()) {
    return;
  }
  PeerLink* l = link(from);
  if (l == nullptr || l->conn == nullptr) {
    return;
  }
  while (l->outstanding < swarm_->params().pipeline_depth) {
    // Random-start linear probe for a needed piece the remote holds.
    const uint32_t start = static_cast<uint32_t>(rng_.NextUint64() % piece_count_);
    uint32_t chosen = piece_count_;
    for (uint32_t i = 0; i < piece_count_; ++i) {
      const uint32_t p = (start + i) % piece_count_;
      if (!have_[p] && !requested_[p] && l->remote_has[p]) {
        chosen = p;
        break;
      }
    }
    if (chosen == piece_count_) {
      return;  // nothing this peer can offer right now
    }
    requested_[chosen] = true;
    ++l->outstanding;
    auto msg = std::make_shared<BtMessage>();
    msg->type = BtMessage::Type::kRequest;
    msg->piece = chosen;
    l->conn->SendMessage(kControlMessageBytes, std::move(msg));
  }
}

namespace {

// Piece bitmaps are written one byte per piece: simple, and bit-stable.
void WriteBitmap(ArchiveWriter* w, const std::vector<bool>& bits) {
  w->Write<uint64_t>(bits.size());
  for (const bool b : bits) {
    w->Write<uint8_t>(b ? 1 : 0);
  }
}

std::vector<bool> ReadBitmap(ArchiveReader& r) {
  const uint64_t n = r.Read<uint64_t>();
  if (!r.ok() || n > r.remaining()) {
    return {};
  }
  std::vector<bool> bits(n, false);
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    bits[i] = r.Read<uint8_t>() != 0;
  }
  return bits;
}

}  // namespace

void BitTorrentPeer::Save(ArchiveWriter* w) const {
  WriteBitmap(w, have_);
  w->Write<uint64_t>(pieces_held_);
  WriteBitmap(w, requested_);
  w->Write<SimTime>(completion_time_);
  rng_.Save(w);
  // Per-link bookkeeping, in sorted peer order for bit-stable images.
  std::vector<NodeId> peer_ids;
  peer_ids.reserve(links_.size());
  for (const auto& [peer_id, l] : links_) {
    peer_ids.push_back(peer_id);
  }
  std::sort(peer_ids.begin(), peer_ids.end());
  w->Write<uint64_t>(peer_ids.size());
  for (const NodeId peer_id : peer_ids) {
    const PeerLink& l = links_.at(peer_id);
    w->Write<NodeId>(peer_id);
    WriteBitmap(w, l.remote_has);
    w->Write<uint32_t>(l.outstanding);
  }
}

void BitTorrentPeer::Restore(ArchiveReader& r) {
  have_ = ReadBitmap(r);
  pieces_held_ = static_cast<size_t>(r.Read<uint64_t>());
  requested_ = ReadBitmap(r);
  completion_time_ = r.Read<SimTime>();
  rng_.Restore(r);
  const uint64_t n_links = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_links && r.ok(); ++i) {
    const NodeId peer_id = r.Read<NodeId>();
    std::vector<bool> remote_has = ReadBitmap(r);
    const uint32_t outstanding = r.Read<uint32_t>();
    if (!r.ok()) {
      break;
    }
    // A link the fresh swarm did not re-create is skipped: its connection
    // cannot be rebuilt from here.
    if (PeerLink* l = link(peer_id); l != nullptr) {
      l->remote_has = std::move(remote_has);
      l->outstanding = outstanding;
    }
  }
}

// --- BitTorrentSwarm ------------------------------------------------------------

BitTorrentSwarm::BitTorrentSwarm(std::vector<ExperimentNode*> nodes, Params params)
    : params_(params),
      piece_count_(static_cast<uint32_t>(
          (params.file_bytes + params.piece_bytes - 1) / params.piece_bytes)),
      rng_(params.seed) {
  assert(nodes.size() >= 2);
  for (size_t i = 0; i < nodes.size(); ++i) {
    peers_.push_back(std::make_unique<BitTorrentPeer>(this, nodes[i], /*seeder=*/i == 0));
  }
}

void BitTorrentSwarm::Start(std::function<void()> all_done) {
  all_done_ = std::move(all_done);
  for (auto& peer : peers_) {
    peer->Listen();
  }
  // Full mesh: each peer dials every lower-indexed peer.
  for (size_t i = 1; i < peers_.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      peers_[i]->ConnectTo(peers_[j].get());
    }
  }
}

void BitTorrentSwarm::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(complete_clients_);
  rng_.Save(w);
  w->Write<uint64_t>(peers_.size());
  for (const auto& peer : peers_) {
    ArchiveWriter sub;
    peer->Save(&sub);
    w->WriteVector(sub.data());
  }
}

void BitTorrentSwarm::RestoreState(ArchiveReader& r) {
  complete_clients_ = static_cast<size_t>(r.Read<uint64_t>());
  rng_.Restore(r);
  const uint64_t n = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    ArchiveReader sub = r.ReadNested();
    if (!r.ok() || i >= peers_.size()) {
      continue;
    }
    peers_[i]->Restore(sub);
  }
}

void BitTorrentSwarm::NotePieceComplete(BitTorrentPeer* peer) {
  (void)peer;
  ++complete_clients_;
  if (complete_clients_ == peers_.size() - 1 && all_done_) {
    auto cb = std::move(all_done_);
    cb();
  }
}

}  // namespace tcsim
