// iperf-style TCP throughput workload (Figure 6).

#ifndef TCSIM_SRC_APPS_IPERF_H_
#define TCSIM_SRC_APPS_IPERF_H_

#include <functional>

#include "src/guest/node.h"
#include "src/net/tcp.h"
#include "src/sim/checkpointable.h"
#include "src/sim/stats.h"

namespace tcsim {

// One-directional TCP stream between two experiment nodes. The receiver
// captures a packet trace (in its own virtual time, like tcpdump on the
// receiving node) and a bucketed throughput series.
class IperfApp : public Checkpointable {
 public:
  struct Params {
    uint16_t port = 5001;
    uint64_t total_bytes = 3ull * 1024 * 1024 * 1024;
    SimTime throughput_bucket = 20 * kMillisecond;  // Figure 6 averaging window
    uint32_t recv_buffer_bytes = 256 * 1024;
  };

  IperfApp(ExperimentNode* sender, ExperimentNode* receiver, Params params);

  // Starts the transfer; `done` fires when the receiver has the full stream.
  void Start(std::function<void()> done = nullptr);

  // Receiver-side observations.
  const std::vector<TcpConnection::TraceEntry>& receiver_trace() const;
  TimeSeries ThroughputSeries() const { return meter_.Bucketize(); }
  uint64_t bytes_delivered() const { return delivered_; }

  // Sender-side protocol stats (retransmissions etc.).
  const TcpStats& sender_stats() const { return sender_conn_->stats(); }
  const TcpStats& receiver_stats() const;

  // Inter-packet arrival gaps at the receiver, microseconds of virtual time.
  Samples InterPacketGapsUs() const;

  // Checkpointable: stream progress. The connection's protocol state lives
  // in the net.stack chunk; this records how much the application has
  // queued and seen delivered, so a restored run's write loop continues
  // from the same high-water position.
  std::string checkpoint_id() const override { return "app.iperf"; }
  void SaveState(ArchiveWriter* w) const override {
    w->Write<uint64_t>(delivered_);
    w->Write<uint64_t>(queued_);
  }
  void RestoreState(ArchiveReader& r) override {
    delivered_ = r.Read<uint64_t>();
    queued_ = r.Read<uint64_t>();
  }

 private:
  // Keeps the send queue topped up without buffering the whole stream in
  // the connection (as a real iperf's write loop would).
  void TopUpSendQueue();

  ExperimentNode* sender_;
  ExperimentNode* receiver_;
  Params params_;
  TcpConnection* sender_conn_ = nullptr;
  TcpConnection* receiver_conn_ = nullptr;
  ThroughputMeter meter_;
  uint64_t delivered_ = 0;
  uint64_t queued_ = 0;
  std::function<void()> done_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_APPS_IPERF_H_
