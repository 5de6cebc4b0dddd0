#include "src/net/packet.h"

#include "src/sim/archive.h"

namespace tcsim {

void SavePacket(ArchiveWriter* w, const Packet& pkt) {
  w->Write<uint64_t>(pkt.id);
  w->Write<NodeId>(pkt.src);
  w->Write<NodeId>(pkt.dst);
  w->Write<uint16_t>(pkt.src_port);
  w->Write<uint16_t>(pkt.dst_port);
  w->Write<uint8_t>(static_cast<uint8_t>(pkt.proto));
  w->Write<uint32_t>(pkt.size_bytes);
  w->Write<uint64_t>(pkt.tcp.seq);
  w->Write<uint64_t>(pkt.tcp.ack);
  w->Write<uint32_t>(pkt.tcp.payload_len);
  w->Write<uint32_t>(pkt.tcp.window);
  w->Write<uint8_t>(pkt.tcp.syn ? 1 : 0);
  w->Write<uint8_t>(pkt.tcp.fin ? 1 : 0);
  w->Write<uint8_t>(pkt.tcp.is_retransmit ? 1 : 0);
  w->Write<SimTime>(pkt.first_sent);
}

Packet LoadPacket(ArchiveReader& r) {
  Packet pkt;
  pkt.id = r.Read<uint64_t>();
  pkt.src = r.Read<NodeId>();
  pkt.dst = r.Read<NodeId>();
  pkt.src_port = r.Read<uint16_t>();
  pkt.dst_port = r.Read<uint16_t>();
  pkt.proto = static_cast<Protocol>(r.Read<uint8_t>());
  pkt.size_bytes = r.Read<uint32_t>();
  pkt.tcp.seq = r.Read<uint64_t>();
  pkt.tcp.ack = r.Read<uint64_t>();
  pkt.tcp.payload_len = r.Read<uint32_t>();
  pkt.tcp.window = r.Read<uint32_t>();
  pkt.tcp.syn = r.Read<uint8_t>() != 0;
  pkt.tcp.fin = r.Read<uint8_t>() != 0;
  pkt.tcp.is_retransmit = r.Read<uint8_t>() != 0;
  pkt.first_sent = r.Read<SimTime>();
  return pkt;
}

}  // namespace tcsim
