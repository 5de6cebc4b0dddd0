// Packets and addressing for the simulated experimental and control networks.

#ifndef TCSIM_SRC_NET_PACKET_H_
#define TCSIM_SRC_NET_PACKET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/time.h"

namespace tcsim {

// Identifies a node (experiment node, delay node, or Emulab server) on a
// network. Unique per testbed.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFF;

// Transport protocol carried by a packet.
enum class Protocol : uint8_t {
  kUdp,
  kTcp,
};

// TCP segment header fields carried on kTcp packets.
struct TcpHeader {
  uint64_t seq = 0;          // first byte sequence number of the payload
  uint64_t ack = 0;          // cumulative acknowledgement
  uint32_t payload_len = 0;  // bytes of application payload
  uint32_t window = 0;       // advertised receive window, bytes
  bool syn = false;
  bool fin = false;
  bool is_retransmit = false;  // diagnostic flag: set on retransmitted data
};

// Base class for application-level payloads riding on UDP datagrams (control
// messages, NFS requests, event notifications). Packets hold payloads by
// shared pointer, so copies of a Packet share one payload object.
struct AppPayload {
  virtual ~AppPayload() = default;

  // Timestamps embedded in the payload. Protocol-aware services (Section 5.2
  // of the paper) transduce these between real and virtual time at the
  // experiment boundary by mutating them in place.
  virtual std::vector<SimTime*> MutableTimestamps() { return {}; }
};

// A network packet. Value type; copies are cheap (payload is shared).
struct Packet {
  uint64_t id = 0;  // globally unique, assigned by the sending stack
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  Protocol proto = Protocol::kUdp;
  uint32_t size_bytes = 0;  // on-wire size including headers
  TcpHeader tcp;            // valid when proto == kTcp
  std::shared_ptr<AppPayload> payload;  // optional, UDP application data
  SimTime first_sent = 0;   // physical time of first transmission
};

class ArchiveWriter;
class ArchiveReader;

// The image layout of a packet, shared by every component whose checkpoint
// state holds packets: a wire's in-flight deliveries, a NIC's suspend log
// and a Dummynet pipe's queue, transmission and delay line. Fields are
// written one by one, because struct padding bytes are not deterministic
// and image bytes must be. The shared application payload is not
// serialized: a packet restored from an image carries headers and sizes.
void SavePacket(ArchiveWriter* w, const Packet& pkt);
Packet LoadPacket(ArchiveReader& r);

// Fixed protocol overheads used when sizing packets.
inline constexpr uint32_t kPacketHeaderBytes = 58;   // eth + ip + tcp headers
inline constexpr uint32_t kTcpMss = 1448;            // payload bytes per segment
inline constexpr uint32_t kAckPacketBytes = 64;      // pure ACK on the wire

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_PACKET_H_
