#include "src/net/tcp.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/net/stack.h"
#include "src/obs/metrics.h"

namespace {

// Process-wide TCP counters, resolved once on first use (the retransmit
// paths are rare enough that a function-local static suffices).
tcsim::obs::Counter* TcpCounter(const char* name) {
  return tcsim::obs::MetricsRegistry::Global().FindCounter(name);
}

}  // namespace

namespace tcsim {

namespace {

// Framing metadata carried on data segments: stream offsets (exclusive ends)
// of application messages whose final byte lies in the segment.
struct FramingPayload : public AppPayload {
  std::vector<std::pair<uint64_t, std::shared_ptr<AppPayload>>> messages;
};

constexpr double kInitialSsthresh = 1e15;  // "infinite": slow start until loss

}  // namespace

TcpConnection::TcpConnection(NetworkStack* stack, TimerHost* timers, NodeId peer,
                             uint16_t local_port, uint16_t peer_port, Params params)
    : stack_(stack),
      timers_(timers),
      peer_(peer),
      local_port_(local_port),
      peer_port_(peer_port),
      params_(params) {
  cwnd_ = static_cast<double>(params_.initial_cwnd_segments) * params_.mss;
  ssthresh_ = kInitialSsthresh;
  rto_ = params_.initial_rto;
}

void TcpConnection::Connect(std::function<void()> on_connected) {
  assert(state_ == State::kClosed);
  on_connected_ = std::move(on_connected);
  state_ = State::kSynSent;
  SendControl(/*syn=*/true, /*ack=*/false, /*fin=*/false, /*seq=*/0);
  ArmRto();
}

void TcpConnection::AcceptSyn(const Packet& syn) {
  assert(state_ == State::kClosed);
  assert(syn.tcp.syn && !syn.tcp.fin);
  state_ = State::kSynReceived;
  SendControl(/*syn=*/true, /*ack=*/true, /*fin=*/false, /*seq=*/0);
  ArmRto();
}

void TcpConnection::Send(uint64_t bytes) {
  stream_end_ += bytes;
  TrySend();
}

void TcpConnection::SendMessage(uint32_t bytes, std::shared_ptr<AppPayload> payload) {
  assert(bytes > 0);
  outgoing_messages_[stream_end_ + bytes] = FramedMessage{std::move(payload)};
  Send(bytes);
}

void TcpConnection::Close() {
  if (fin_queued_) {
    return;
  }
  fin_queued_ = true;
  TrySend();
}

uint64_t TcpConnection::StateSizeBytes() const {
  // Control block + unsent/unacked send-queue bytes + reassembly buffer.
  const uint64_t pcb = 512;
  return pcb + (stream_end_ - snd_una_) + ooo_bytes_;
}

uint32_t TcpConnection::AdvertisedWindow() const {
  // The application consumes in-order data immediately, so only out-of-order
  // bytes occupy the receive buffer.
  if (ooo_bytes_ >= params_.recv_buffer_bytes) {
    return 0;
  }
  return params_.recv_buffer_bytes - static_cast<uint32_t>(ooo_bytes_);
}

void TcpConnection::SendControl(bool syn, bool ack, bool fin, uint64_t seq) {
  Packet pkt;
  pkt.src = stack_->addr();
  pkt.dst = peer_;
  pkt.src_port = local_port_;
  pkt.dst_port = peer_port_;
  pkt.proto = Protocol::kTcp;
  pkt.size_bytes = kAckPacketBytes;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = rcv_nxt_;
  pkt.tcp.syn = syn;
  pkt.tcp.fin = fin;
  pkt.tcp.payload_len = 0;
  pkt.tcp.window = AdvertisedWindow();
  (void)ack;  // all our control segments carry a cumulative ACK
  ++stats_.segments_sent;
  stack_->SendPacket(std::move(pkt));
}

void TcpConnection::SendAck() { SendControl(false, true, false, snd_nxt_); }

void TcpConnection::SendDataSegment(uint64_t seq, uint32_t len, bool retransmit) {
  Packet pkt;
  pkt.src = stack_->addr();
  pkt.dst = peer_;
  pkt.src_port = local_port_;
  pkt.dst_port = peer_port_;
  pkt.proto = Protocol::kTcp;
  pkt.size_bytes = len + kPacketHeaderBytes;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = rcv_nxt_;
  pkt.tcp.payload_len = len;
  pkt.tcp.window = AdvertisedWindow();
  pkt.tcp.is_retransmit = retransmit;

  // Attach framing records for messages ending inside [seq, seq + len].
  auto lo = outgoing_messages_.upper_bound(seq);
  auto hi = outgoing_messages_.upper_bound(seq + len);
  if (lo != hi) {
    auto framing = std::make_shared<FramingPayload>();
    for (auto it = lo; it != hi; ++it) {
      framing->messages.emplace_back(it->first, it->second.payload);
    }
    pkt.payload = std::move(framing);
  }

  ++stats_.segments_sent;
  if (retransmit) {
    ++stats_.retransmits;
    static obs::Counter* const counter = TcpCounter("net.tcp.retransmits");
    counter->Increment();
  } else {
    in_flight_.push_back({seq, len, timers_->VirtualNow(), false});
  }
  stack_->SendPacket(std::move(pkt));
}

void TcpConnection::TrySend() {
  if (state_ != State::kEstablished) {
    return;
  }
  const uint64_t window = std::min<uint64_t>(static_cast<uint64_t>(cwnd_), peer_window_);
  while (snd_nxt_ < stream_end_ && BytesInFlight() < window) {
    const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
        {static_cast<uint64_t>(params_.mss), stream_end_ - snd_nxt_,
         window - BytesInFlight()}));
    if (len == 0) {
      break;
    }
    SendDataSegment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
  // Queue the FIN once all stream data has been transmitted.
  if (fin_queued_ && !fin_sent_ && snd_nxt_ == stream_end_) {
    fin_sent_ = true;
    in_flight_.push_back({snd_nxt_, 1, timers_->VirtualNow(), false});
    SendControl(/*syn=*/false, /*ack=*/true, /*fin=*/true, snd_nxt_);
    snd_nxt_ += 1;  // FIN consumes one sequence number
  }
  if (!in_flight_.empty() && !rto_timer_.pending()) {
    ArmRto();
  }
  // Zero-window deadlock avoidance: if the peer closed its window and we have
  // nothing in flight to clock us, probe periodically.
  if (peer_window_ == 0 && in_flight_.empty() && snd_nxt_ < stream_end_) {
    rto_timer_.Cancel();
    rto_kind_ = RtoKind::kWindowProbe;
    rto_deadline_v_ = timers_->VirtualNow() + rto_;
    rto_timer_ = timers_->ScheduleVirtual(rto_, [this] {
      SendAck();  // window probe
      TrySend();
    });
  }
}

void TcpConnection::ArmRto() {
  rto_timer_.Cancel();
  rto_kind_ = RtoKind::kRto;
  rto_deadline_v_ = timers_->VirtualNow() + rto_;
  rto_timer_ = timers_->ScheduleVirtual(rto_, [this] { OnRto(); });
}

void TcpConnection::UpdateRtt(SimTime sample) {
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_ = true;
  } else {
    const SimTime err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp<SimTime>(srtt_ + std::max<SimTime>(4 * rttvar_, 10 * kMillisecond),
                             params_.min_rto, params_.max_rto);
}

void TcpConnection::RetransmitFirstUnacked() {
  if (in_flight_.empty()) {
    return;
  }
  InFlightSegment& seg = in_flight_.front();
  seg.retransmitted = true;
  if (fin_sent_ && seg.seq == stream_end_) {
    ++stats_.retransmits;
    ++stats_.segments_sent;
    static obs::Counter* const counter = TcpCounter("net.tcp.retransmits");
    counter->Increment();
    SendControl(/*syn=*/false, /*ack=*/true, /*fin=*/true, seg.seq);
  } else {
    SendDataSegment(seg.seq, seg.len, /*retransmit=*/true);
  }
}

void TcpConnection::OnRto() {
  if (state_ == State::kSynSent) {
    SendControl(/*syn=*/true, /*ack=*/false, /*fin=*/false, 0);
    rto_ = std::min<SimTime>(rto_ * 2, params_.max_rto);
    ArmRto();
    return;
  }
  if (state_ == State::kSynReceived) {
    SendControl(/*syn=*/true, /*ack=*/true, /*fin=*/false, 0);
    rto_ = std::min<SimTime>(rto_ * 2, params_.max_rto);
    ArmRto();
    return;
  }
  if (in_flight_.empty()) {
    return;
  }
  ++stats_.timeouts;
  static obs::Counter* const counter = TcpCounter("net.tcp.timeouts");
  counter->Increment();
  ssthresh_ = std::max(static_cast<double>(BytesInFlight()) / 2.0,
                       2.0 * static_cast<double>(params_.mss));
  cwnd_ = params_.mss;
  dup_ack_count_ = 0;
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  RetransmitFirstUnacked();
  rto_ = std::min<SimTime>(rto_ * 2, params_.max_rto);
  ArmRto();
}

void TcpConnection::Save(ArchiveWriter* w) const {
  w->Write<uint8_t>(static_cast<uint8_t>(state_));
  w->Write<uint64_t>(snd_una_);
  w->Write<uint64_t>(snd_nxt_);
  w->Write<uint64_t>(stream_end_);
  w->Write<uint8_t>(fin_queued_ ? 1 : 0);
  w->Write<uint8_t>(fin_sent_ ? 1 : 0);
  w->Write<double>(cwnd_);
  w->Write<double>(ssthresh_);
  w->Write<uint32_t>(peer_window_);
  w->Write<uint32_t>(dup_ack_count_);
  w->Write<uint8_t>(in_recovery_ ? 1 : 0);
  w->Write<uint64_t>(recovery_point_);
  w->Write<uint64_t>(in_flight_.size());
  for (const InFlightSegment& seg : in_flight_) {
    w->Write<uint64_t>(seg.seq);
    w->Write<uint32_t>(seg.len);
    w->Write<SimTime>(seg.sent_vtime);
    w->Write<uint8_t>(seg.retransmitted ? 1 : 0);
  }
  w->Write<uint64_t>(outgoing_messages_.size());
  for (const auto& [end_seq, msg] : outgoing_messages_) {
    w->Write<uint64_t>(end_seq);
  }
  w->Write<SimTime>(srtt_);
  w->Write<SimTime>(rttvar_);
  w->Write<SimTime>(rto_);
  w->Write<uint8_t>(have_rtt_ ? 1 : 0);
  w->Write<uint8_t>(rto_timer_.pending() ? static_cast<uint8_t>(rto_kind_) : 0);
  w->Write<SimTime>(rto_deadline_v_);
  w->Write<uint64_t>(rcv_nxt_);
  w->Write<uint64_t>(delivered_up_to_);
  w->Write<uint64_t>(out_of_order_.size());
  for (const auto& [seq, len] : out_of_order_) {
    w->Write<uint64_t>(seq);
    w->Write<uint32_t>(len);
  }
  w->Write<uint64_t>(ooo_bytes_);
  w->Write<uint8_t>(peer_fin_received_ ? 1 : 0);
  w->Write<uint64_t>(peer_fin_seq_);
  w->Write<uint64_t>(incoming_messages_.size());
  for (const auto& [end_seq, msg] : incoming_messages_) {
    w->Write<uint64_t>(end_seq);
  }
  w->Write<uint64_t>(stats_.segments_sent);
  w->Write<uint64_t>(stats_.segments_received);
  w->Write<uint64_t>(stats_.retransmits);
  w->Write<uint64_t>(stats_.fast_retransmits);
  w->Write<uint64_t>(stats_.timeouts);
  w->Write<uint64_t>(stats_.dup_acks_received);
  w->Write<uint64_t>(stats_.bytes_acked);
  w->Write<uint64_t>(stats_.bytes_delivered);
  w->Write<uint64_t>(stats_.window_changes);
  w->Write<uint32_t>(last_peer_window_seen_);
}

void TcpConnection::Restore(ArchiveReader& r) {
  state_ = static_cast<State>(r.Read<uint8_t>());
  snd_una_ = r.Read<uint64_t>();
  snd_nxt_ = r.Read<uint64_t>();
  stream_end_ = r.Read<uint64_t>();
  fin_queued_ = r.Read<uint8_t>() != 0;
  fin_sent_ = r.Read<uint8_t>() != 0;
  cwnd_ = r.Read<double>();
  ssthresh_ = r.Read<double>();
  peer_window_ = r.Read<uint32_t>();
  dup_ack_count_ = r.Read<uint32_t>();
  in_recovery_ = r.Read<uint8_t>() != 0;
  recovery_point_ = r.Read<uint64_t>();
  in_flight_.clear();
  const uint64_t n_flight = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_flight && r.ok(); ++i) {
    InFlightSegment seg;
    seg.seq = r.Read<uint64_t>();
    seg.len = r.Read<uint32_t>();
    seg.sent_vtime = r.Read<SimTime>();
    seg.retransmitted = r.Read<uint8_t>() != 0;
    in_flight_.push_back(seg);
  }
  // Message records restore with their stream offsets only; the payload
  // objects lived on the saved timeline and are not reconstructable here.
  outgoing_messages_.clear();
  const uint64_t n_out = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_out && r.ok(); ++i) {
    outgoing_messages_[r.Read<uint64_t>()] = FramedMessage{nullptr};
  }
  srtt_ = r.Read<SimTime>();
  rttvar_ = r.Read<SimTime>();
  rto_ = r.Read<SimTime>();
  have_rtt_ = r.Read<uint8_t>() != 0;
  const auto rto_kind = static_cast<RtoKind>(r.Read<uint8_t>());
  rto_deadline_v_ = r.Read<SimTime>();
  rcv_nxt_ = r.Read<uint64_t>();
  delivered_up_to_ = r.Read<uint64_t>();
  out_of_order_.clear();
  const uint64_t n_ooo = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_ooo && r.ok(); ++i) {
    const uint64_t seq = r.Read<uint64_t>();
    out_of_order_[seq] = r.Read<uint32_t>();
  }
  ooo_bytes_ = r.Read<uint64_t>();
  peer_fin_received_ = r.Read<uint8_t>() != 0;
  peer_fin_seq_ = r.Read<uint64_t>();
  incoming_messages_.clear();
  const uint64_t n_in = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_in && r.ok(); ++i) {
    incoming_messages_[r.Read<uint64_t>()] = FramedMessage{nullptr};
  }
  stats_.segments_sent = r.Read<uint64_t>();
  stats_.segments_received = r.Read<uint64_t>();
  stats_.retransmits = r.Read<uint64_t>();
  stats_.fast_retransmits = r.Read<uint64_t>();
  stats_.timeouts = r.Read<uint64_t>();
  stats_.dup_acks_received = r.Read<uint64_t>();
  stats_.bytes_acked = r.Read<uint64_t>();
  stats_.bytes_delivered = r.Read<uint64_t>();
  stats_.window_changes = r.Read<uint64_t>();
  last_peer_window_seen_ = r.Read<uint32_t>();

  rto_timer_.Cancel();
  rto_kind_ = r.ok() ? rto_kind : RtoKind::kNone;
  if (r.ok() && rto_kind != RtoKind::kNone) {
    auto fire = rto_kind == RtoKind::kRto ? std::function<void()>([this] { OnRto(); })
                                          : std::function<void()>([this] {
                                              SendAck();
                                              TrySend();
                                            });
    rto_timer_ = timers_->RestoreTimerAtVirtual(rto_deadline_v_, std::move(fire));
  }
}

void TcpConnection::HandleSegment(const Packet& pkt) {
  ++stats_.segments_received;

  // Handshake transitions.
  if (state_ == State::kSynSent) {
    if (pkt.tcp.syn) {
      state_ = State::kEstablished;
      peer_window_ = pkt.tcp.window;
      last_peer_window_seen_ = pkt.tcp.window;
      rto_timer_.Cancel();
      rto_ = params_.initial_rto;
      SendAck();
      if (on_connected_) {
        on_connected_();
      }
      TrySend();
    }
    return;
  }
  if (state_ == State::kSynReceived) {
    if (pkt.tcp.syn) {
      // Duplicate SYN: re-answer.
      SendControl(/*syn=*/true, /*ack=*/true, /*fin=*/false, 0);
      return;
    }
    state_ = State::kEstablished;
    peer_window_ = pkt.tcp.window;
    last_peer_window_seen_ = pkt.tcp.window;
    rto_timer_.Cancel();
    rto_ = params_.initial_rto;
    // Data queued during the handshake (e.g. from the accept callback) can
    // flow now.
    TrySend();
    // Fall through: the packet may carry data or an ACK.
  }
  if (state_ != State::kEstablished && state_ != State::kFinished) {
    return;
  }

  OnAck(pkt);
  if (pkt.tcp.payload_len > 0 || pkt.tcp.fin) {
    OnData(pkt);
  }
}

void TcpConnection::OnAck(const Packet& pkt) {
  bool window_changed = false;
  if (pkt.tcp.window != last_peer_window_seen_) {
    ++stats_.window_changes;
    last_peer_window_seen_ = pkt.tcp.window;
    window_changed = true;
  }
  peer_window_ = pkt.tcp.window;
  if (window_changed && pkt.tcp.window > 0) {
    // A pure window update can unblock a window-limited sender.
    TrySend();
  }
  const uint64_t ack = pkt.tcp.ack;

  if (ack > snd_una_) {
    const uint64_t newly_acked = ack - snd_una_;
    stats_.bytes_acked += newly_acked;
    snd_una_ = ack;
    dup_ack_count_ = 0;

    // Drop fully-acked segments; take an RTT sample from the newest
    // non-retransmitted one (Karn's algorithm).
    SimTime sample_sent = -1;
    while (!in_flight_.empty() &&
           in_flight_.front().seq + in_flight_.front().len <= snd_una_) {
      if (!in_flight_.front().retransmitted) {
        sample_sent = in_flight_.front().sent_vtime;
      }
      in_flight_.pop_front();
    }
    if (sample_sent >= 0) {
      UpdateRtt(timers_->VirtualNow() - sample_sent);
    } else if (have_rtt_) {
      // Karn gave no sample, but forward progress means the path is alive:
      // undo exponential RTO backoff.
      rto_ = std::clamp<SimTime>(srtt_ + std::max<SimTime>(4 * rttvar_, 10 * kMillisecond),
                                 params_.min_rto, params_.max_rto);
    }

    if (in_recovery_) {
      if (snd_una_ >= recovery_point_) {
        // Recovery complete: deflate to ssthresh and resume normal growth.
        in_recovery_ = false;
        cwnd_ = std::max(ssthresh_, static_cast<double>(params_.mss));
      } else {
        // NewReno partial ACK: the next hole is lost too — retransmit it now
        // rather than waiting for a timeout.
        RetransmitFirstUnacked();
        ArmRto();
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += std::min<double>(static_cast<double>(newly_acked), params_.mss);
    } else {
      cwnd_ += static_cast<double>(params_.mss) * params_.mss / cwnd_;
    }

    // Reclaim framing records the peer has definitely delivered.
    outgoing_messages_.erase(outgoing_messages_.begin(),
                             outgoing_messages_.upper_bound(snd_una_));

    if (in_flight_.empty()) {
      rto_timer_.Cancel();
    } else {
      ArmRto();
    }
    TrySend();
    return;
  }

  // Duplicate ACK detection: same cumulative ACK, no payload, data in flight.
  if (ack == snd_una_ && pkt.tcp.payload_len == 0 && !pkt.tcp.fin && !in_flight_.empty()) {
    ++stats_.dup_acks_received;
    ++dup_ack_count_;
    if (dup_ack_count_ == 3) {
      ++stats_.fast_retransmits;
      static obs::Counter* const counter = TcpCounter("net.tcp.fast_retransmits");
      counter->Increment();
      ssthresh_ = std::max(static_cast<double>(BytesInFlight()) / 2.0,
                           2.0 * static_cast<double>(params_.mss));
      cwnd_ = ssthresh_ + 3.0 * params_.mss;
      in_recovery_ = true;
      recovery_point_ = snd_nxt_;
      RetransmitFirstUnacked();
    } else if (dup_ack_count_ > 3) {
      cwnd_ += params_.mss;  // inflate during recovery
      TrySend();
    }
  }
}

void TcpConnection::OnData(const Packet& pkt) {
  if (trace_enabled_ && pkt.tcp.payload_len > 0) {
    trace_.push_back(
        {timers_->VirtualNow(), pkt.tcp.seq, pkt.tcp.payload_len, pkt.tcp.is_retransmit});
  }

  // Stash framing records regardless of ordering; delivery happens when
  // rcv_nxt_ passes the message end. Records whose end the stream already
  // passed were delivered before (this segment is a retransmission).
  if (pkt.payload != nullptr) {
    if (auto* framing = dynamic_cast<FramingPayload*>(pkt.payload.get())) {
      for (const auto& [end_seq, payload] : framing->messages) {
        if (end_seq > rcv_nxt_) {
          incoming_messages_[end_seq] = FramedMessage{payload};
        }
      }
    }
  }

  if (pkt.tcp.fin) {
    peer_fin_received_ = true;
    peer_fin_seq_ = pkt.tcp.seq;
  }

  const uint64_t seq = pkt.tcp.seq;
  const uint32_t len = pkt.tcp.payload_len;
  if (len > 0) {
    if (seq + len <= rcv_nxt_) {
      // Entirely old data (a retransmission that raced an ACK): re-ACK.
      SendAck();
      return;
    }
    if (seq > rcv_nxt_) {
      // Out of order: buffer (bounded by the receive window) and dup-ACK.
      if (out_of_order_.find(seq) == out_of_order_.end() &&
          ooo_bytes_ + len <= params_.recv_buffer_bytes) {
        out_of_order_[seq] = len;
        ooo_bytes_ += len;
      }
      SendAck();
      return;
    }
    // In-order (possibly partially old): advance.
    rcv_nxt_ = seq + len;
  }
  DeliverInOrder();
  SendAck();
}

void TcpConnection::DeliverInOrder() {
  // Merge contiguous out-of-order segments.
  bool advanced = true;
  while (advanced) {
    advanced = false;
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && it->first <= rcv_nxt_) {
      const uint64_t end = it->first + it->second;
      ooo_bytes_ -= it->second;
      it = out_of_order_.erase(it);
      if (end > rcv_nxt_) {
        rcv_nxt_ = end;
        advanced = true;
      }
    }
  }

  // Deliver newly contiguous bytes to the application.
  if (rcv_nxt_ > delivered_up_to_) {
    const uint64_t newly = rcv_nxt_ - delivered_up_to_;
    delivered_up_to_ = rcv_nxt_;
    stats_.bytes_delivered += newly;
    if (delivery_cb_) {
      delivery_cb_(newly);
    }
  }

  // Deliver framed messages whose end has been reached, in order.
  while (!incoming_messages_.empty() && incoming_messages_.begin()->first <= rcv_nxt_) {
    auto node = incoming_messages_.begin();
    std::shared_ptr<AppPayload> payload = node->second.payload;
    incoming_messages_.erase(node);
    if (message_cb_) {
      message_cb_(std::move(payload));
    }
  }

  // Peer FIN: consumed once all preceding data has been delivered.
  if (peer_fin_received_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    peer_fin_received_ = false;
    state_ = State::kFinished;
    if (peer_closed_cb_) {
      peer_closed_cb_();
    }
  }
}

}  // namespace tcsim
