#include "src/net/stack.h"

#include <cassert>
#include <utility>

namespace tcsim {

NetworkStack::NetworkStack(Simulator* sim, TimerHost* timers, NodeId addr)
    : sim_(sim), timers_(timers), addr_(addr) {}

Nic* NetworkStack::AddNic() {
  auto nic = std::make_unique<Nic>(sim_, addr_);
  Nic* raw = nic.get();
  raw->SetReceiver([this](const Packet& pkt) { OnReceive(pkt); });
  if (default_nic_ == nullptr) {
    default_nic_ = raw;
  }
  nics_.push_back(std::move(nic));
  return raw;
}

Nic* NetworkStack::RouteFor(NodeId dst) const {
  auto it = routes_.find(dst);
  if (it != routes_.end()) {
    return it->second;
  }
  return default_nic_;
}

void NetworkStack::BindUdp(uint16_t port, std::function<void(const Packet&)> handler) {
  udp_handlers_[port] = std::move(handler);
}

void NetworkStack::SendUdp(NodeId dst, uint16_t dst_port, uint16_t src_port,
                           uint32_t payload_bytes, std::shared_ptr<AppPayload> payload) {
  Packet pkt;
  pkt.src = addr_;
  pkt.dst = dst;
  pkt.src_port = src_port;
  pkt.dst_port = dst_port;
  pkt.proto = Protocol::kUdp;
  pkt.size_bytes = payload_bytes + kPacketHeaderBytes;
  pkt.payload = std::move(payload);
  SendPacket(std::move(pkt));
}

TcpConnection* NetworkStack::ConnectTcp(NodeId dst, uint16_t dst_port,
                                        TcpConnection::Params params,
                                        std::function<void()> on_connected) {
  const uint16_t local_port = next_ephemeral_port_++;
  auto conn = std::make_unique<TcpConnection>(this, timers_, dst, local_port, dst_port,
                                              params);
  TcpConnection* raw = conn.get();
  connections_[ConnKey{dst, dst_port, local_port}] = std::move(conn);
  raw->Connect(std::move(on_connected));
  return raw;
}

void NetworkStack::ListenTcp(uint16_t port, std::function<void(TcpConnection*)> on_accept,
                             TcpConnection::Params params) {
  tcp_listeners_[port] = Listener{std::move(on_accept), params};
}

void NetworkStack::SendPacket(Packet pkt) {
  pkt.id = next_packet_id_++;
  pkt.first_sent = sim_->Now();
  Nic* nic = RouteFor(pkt.dst);
  assert(nic != nullptr && "no route to destination");
  nic->Send(pkt);
}

void NetworkStack::OnReceive(const Packet& pkt) {
  if (pkt.dst != addr_) {
    return;  // not for us (stray switch flood)
  }
  if (pkt.proto == Protocol::kUdp) {
    auto it = udp_handlers_.find(pkt.dst_port);
    if (it != udp_handlers_.end()) {
      it->second(pkt);
    }
    return;
  }

  // TCP demux: exact endpoint match first, then listeners for SYNs.
  const ConnKey key{pkt.src, pkt.src_port, pkt.dst_port};
  auto conn_it = connections_.find(key);
  if (conn_it != connections_.end()) {
    conn_it->second->HandleSegment(pkt);
    return;
  }
  if (pkt.tcp.syn) {
    auto listener_it = tcp_listeners_.find(pkt.dst_port);
    if (listener_it != tcp_listeners_.end()) {
      auto conn = std::make_unique<TcpConnection>(this, timers_, pkt.src, pkt.dst_port,
                                                  pkt.src_port, listener_it->second.params);
      TcpConnection* raw = conn.get();
      connections_[key] = std::move(conn);
      listener_it->second.on_accept(raw);
      raw->AcceptSyn(pkt);
    }
  }
}

void NetworkStack::SaveState(ArchiveWriter* w) const {
  w->Write<uint16_t>(next_ephemeral_port_);
  w->Write<uint64_t>(next_packet_id_);
  w->Write<uint64_t>(connections_.size());
  for (const auto& [key, conn] : connections_) {
    w->Write<NodeId>(key.peer);
    w->Write<uint16_t>(key.peer_port);
    w->Write<uint16_t>(key.local_port);
    ArchiveWriter sub;
    conn->Save(&sub);
    w->WriteVector(sub.data());
  }
}

void NetworkStack::RestoreState(ArchiveReader& r) {
  next_ephemeral_port_ = r.Read<uint16_t>();
  next_packet_id_ = r.Read<uint64_t>();
  const uint64_t n = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    ConnKey key;
    key.peer = r.Read<NodeId>();
    key.peer_port = r.Read<uint16_t>();
    key.local_port = r.Read<uint16_t>();
    const std::vector<uint8_t> blob = r.ReadVector<uint8_t>();
    if (!r.ok()) {
      break;
    }
    auto it = connections_.find(key);
    if (it == connections_.end()) {
      continue;  // endpoint the fresh experiment did not re-create
    }
    ArchiveReader sub(blob);
    it->second->Restore(sub);
  }
}

std::vector<TcpConnection*> NetworkStack::Connections() const {
  std::vector<TcpConnection*> out;
  out.reserve(connections_.size());
  for (const auto& [key, conn] : connections_) {
    out.push_back(conn.get());
  }
  return out;
}

}  // namespace tcsim
