// A Reno-style TCP implementation over the simulated network.
//
// This is a real (if compact) TCP: slow start, congestion avoidance, fast
// retransmit on triple duplicate ACKs, RTO with Karn's algorithm and
// exponential backoff, receiver flow control, out-of-order reassembly, and a
// light message-framing layer for applications like BitTorrent.
//
// All connection timers run on a TimerHost — i.e. on guest virtual time — so
// a transparent checkpoint freezes them together with the rest of the guest.
// Whether a distributed checkpoint induces retransmissions, duplicate ACKs or
// window changes is therefore an emergent property the benchmarks measure,
// exactly as the paper does by inspecting a packet trace (Section 7.1).

#ifndef TCSIM_SRC_NET_TCP_H_
#define TCSIM_SRC_NET_TCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/packet.h"
#include "src/net/timer_host.h"
#include "src/sim/archive.h"
#include "src/sim/checkpointable.h"
#include "src/sim/time.h"

namespace tcsim {

class NetworkStack;

// Counters maintained by each connection endpoint.
struct TcpStats {
  uint64_t segments_sent = 0;
  uint64_t segments_received = 0;
  uint64_t retransmits = 0;        // total retransmitted data segments
  uint64_t fast_retransmits = 0;   // triggered by triple-dup-ACK
  uint64_t timeouts = 0;           // RTO firings that retransmitted
  uint64_t dup_acks_received = 0;
  uint64_t bytes_acked = 0;        // sender side
  uint64_t bytes_delivered = 0;    // receiver side, in-order to the app
  uint64_t window_changes = 0;     // peer advertised-window changes observed
};

// One endpoint of a TCP connection. Created via NetworkStack::ConnectTcp (an
// active open) or handed to a listen callback (passive open).
class TcpConnection {
 public:
  struct Params {
    uint32_t mss = kTcpMss;
    uint32_t recv_buffer_bytes = 256 * 1024;
    uint32_t initial_cwnd_segments = 10;
    SimTime min_rto = 200 * kMillisecond;
    SimTime initial_rto = 1 * kSecond;
    SimTime max_rto = 60 * kSecond;
  };

  // Observation of one arriving data segment on the receive side, stamped
  // with the receiver's virtual clock — the equivalent of a tcpdump trace
  // taken on the receiving node.
  struct TraceEntry {
    SimTime virtual_time = 0;
    uint64_t seq = 0;
    uint32_t len = 0;
    bool retransmit = false;
  };

  TcpConnection(NetworkStack* stack, TimerHost* timers, NodeId peer, uint16_t local_port,
                uint16_t peer_port, Params params);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- Application interface -----------------------------------------------

  // Begins an active open. `on_connected` fires when the handshake completes.
  void Connect(std::function<void()> on_connected);

  // Appends `bytes` of stream data to the send queue.
  void Send(uint64_t bytes);

  // Sends `bytes` as a framed message; the receiver's message callback fires
  // with `payload` when the last byte is delivered in order.
  void SendMessage(uint32_t bytes, std::shared_ptr<AppPayload> payload);

  // Receiver callback for in-order stream delivery (bytes newly delivered).
  void SetDeliveryCallback(std::function<void(uint64_t bytes)> cb) {
    delivery_cb_ = std::move(cb);
  }

  // Receiver callback for framed messages.
  void SetMessageCallback(std::function<void(std::shared_ptr<AppPayload>)> cb) {
    message_cb_ = std::move(cb);
  }

  // Fires when the peer closes its direction (FIN delivered in order).
  void SetPeerClosedCallback(std::function<void()> cb) { peer_closed_cb_ = std::move(cb); }

  // Half-closes: a FIN is queued after all pending data.
  void Close();

  bool established() const { return state_ == State::kEstablished; }
  NodeId peer() const { return peer_; }
  uint16_t local_port() const { return local_port_; }
  uint16_t peer_port() const { return peer_port_; }

  const TcpStats& stats() const { return stats_; }
  const Params& params() const { return params_; }

  // Enables receiver-side packet tracing.
  void EnableTrace() { trace_enabled_ = true; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

  // Approximate size of the protocol control block plus unacknowledged and
  // buffered data — the state a memory checkpoint must capture.
  uint64_t StateSizeBytes() const;

  // Serializes / restores the full protocol control block: sequence space,
  // congestion state, RTO machinery (re-armed at its absolute virtual
  // deadline), reassembly buffer and stats. Framed-message records keep only
  // their stream offsets — payload objects do not cross the image boundary.
  // The stack frames these per-connection blobs inside its own chunk.
  void Save(ArchiveWriter* w) const;
  void Restore(ArchiveReader& r);

  // --- Stack interface ------------------------------------------------------

  // Demultiplexed segment arrival (called by NetworkStack).
  void HandleSegment(const Packet& pkt);

  // Passive-open entry: reacts to the initial SYN.
  void AcceptSyn(const Packet& syn);

 private:
  enum class State { kClosed, kSynSent, kSynReceived, kEstablished, kFinished };

  // Framing record: message ends at stream offset `end_seq` (exclusive).
  struct FramedMessage {
    std::shared_ptr<AppPayload> payload;
  };

  struct InFlightSegment {
    uint64_t seq;
    uint32_t len;
    SimTime sent_vtime;
    bool retransmitted;
  };

  void TrySend();
  void SendDataSegment(uint64_t seq, uint32_t len, bool retransmit);
  void SendControl(bool syn, bool ack, bool fin, uint64_t seq);
  void SendAck();
  void OnAck(const Packet& pkt);
  void OnData(const Packet& pkt);
  void DeliverInOrder();
  void ArmRto();
  void OnRto();
  void RetransmitFirstUnacked();
  void UpdateRtt(SimTime sample);
  uint64_t BytesInFlight() const { return snd_nxt_ - snd_una_; }
  uint32_t AdvertisedWindow() const;

  NetworkStack* stack_;
  TimerHost* timers_;
  NodeId peer_;
  uint16_t local_port_;
  uint16_t peer_port_;
  Params params_;
  State state_ = State::kClosed;
  std::function<void()> on_connected_;

  // Sender state. Stream sequence space starts at 1 (SYN consumes 0).
  uint64_t snd_una_ = 1;
  uint64_t snd_nxt_ = 1;
  uint64_t stream_end_ = 1;  // end of data the app has queued
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  double cwnd_ = 0.0;        // bytes
  double ssthresh_ = 0.0;    // bytes
  uint32_t peer_window_ = 0xFFFFFFFF;
  uint32_t dup_ack_count_ = 0;
  // NewReno-style recovery: while snd_una_ < recovery_point_, each partial
  // ACK retransmits the next hole instead of waiting out an RTO.
  bool in_recovery_ = false;
  uint64_t recovery_point_ = 0;
  // Deque, not vector: cumulative ACKs retire segments from the front one at
  // a time, and a bulk transfer over a fat pipe keeps tens of thousands of
  // segments in flight — front-erasing a vector made each ACK O(window).
  std::deque<InFlightSegment> in_flight_;
  std::map<uint64_t, FramedMessage> outgoing_messages_;  // end_seq -> message

  // RTO machinery.
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  SimTime rto_;
  bool have_rtt_ = false;
  TimerHandle rto_timer_;
  // What rto_timer_ will do when it fires, and when (absolute virtual time);
  // tracked as data so a checkpoint image can re-arm the timer on restore.
  enum class RtoKind : uint8_t { kNone = 0, kRto = 1, kWindowProbe = 2 };
  RtoKind rto_kind_ = RtoKind::kNone;
  SimTime rto_deadline_v_ = 0;

  // Receiver state.
  uint64_t rcv_nxt_ = 1;
  uint64_t delivered_up_to_ = 1;  // stream offset handed to the app
  std::map<uint64_t, uint32_t> out_of_order_;  // seq -> len
  uint64_t ooo_bytes_ = 0;
  bool peer_fin_received_ = false;
  uint64_t peer_fin_seq_ = 0;
  std::map<uint64_t, FramedMessage> incoming_messages_;  // end_seq -> message

  std::function<void(uint64_t)> delivery_cb_;
  std::function<void(std::shared_ptr<AppPayload>)> message_cb_;
  std::function<void()> peer_closed_cb_;

  TcpStats stats_;
  uint32_t last_peer_window_seen_ = 0xFFFFFFFF;
  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_TCP_H_
