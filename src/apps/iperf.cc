#include "src/apps/iperf.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcsim {

IperfApp::IperfApp(ExperimentNode* sender, ExperimentNode* receiver, Params params)
    : sender_(sender), receiver_(receiver), params_(params),
      meter_(params.throughput_bucket) {}

void IperfApp::Start(std::function<void()> done) {
  done_ = std::move(done);

  TcpConnection::Params tcp_params;
  tcp_params.recv_buffer_bytes = params_.recv_buffer_bytes;

  receiver_->net().ListenTcp(
      params_.port,
      [this](TcpConnection* conn) {
        receiver_conn_ = conn;
        conn->EnableTrace();
        conn->SetDeliveryCallback([this](uint64_t bytes) {
          delivered_ += bytes;
          meter_.Add(receiver_->kernel().GetTimeOfDay(), bytes);
          TopUpSendQueue();
          if (delivered_ >= params_.total_bytes && done_) {
            auto cb = std::move(done_);
            cb();
          }
        });
      },
      tcp_params);

  sender_conn_ = sender_->net().ConnectTcp(receiver_->id(), params_.port, tcp_params,
                                           [this] { TopUpSendQueue(); });
}

void IperfApp::TopUpSendQueue() {
  // Keep a bounded amount of stream data queued in the connection; the
  // application writes more as acknowledged data drains, like a socket
  // write loop against a finite send buffer.
  constexpr uint64_t kHighWater = 8ull * 1024 * 1024;
  constexpr uint64_t kChunk = 4ull * 1024 * 1024;
  while (queued_ < params_.total_bytes && queued_ - delivered_ < kHighWater) {
    const uint64_t bytes = std::min<uint64_t>(kChunk, params_.total_bytes - queued_);
    sender_->kernel().TouchMemory(bytes / 8);  // stream generation dirties memory
    sender_conn_->Send(bytes);
    queued_ += bytes;
  }
}

const std::vector<TcpConnection::TraceEntry>& IperfApp::receiver_trace() const {
  assert(receiver_conn_ != nullptr);
  return receiver_conn_->trace();
}

const TcpStats& IperfApp::receiver_stats() const {
  assert(receiver_conn_ != nullptr);
  return receiver_conn_->stats();
}

Samples IperfApp::InterPacketGapsUs() const {
  Samples gaps;
  const auto& trace = receiver_trace();
  for (size_t i = 1; i < trace.size(); ++i) {
    gaps.Add(ToMicroseconds(trace[i].virtual_time - trace[i - 1].virtual_time));
  }
  return gaps;
}

}  // namespace tcsim
