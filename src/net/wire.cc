#include "src/net/wire.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/archive.h"
#include "src/net/boundary.h"

namespace tcsim {

void Wire::BindCrossPartition(PartitionBoundary* boundary, uint32_t stream) {
  assert(delay_ > 0 && "cross-partition links need positive latency "
                       "(it bounds the scheduler lookahead)");
  boundary_ = boundary;
  stream_ = stream;
}

SimTime Wire::SerializationTime(uint32_t bytes) const {
  if (bandwidth_bps_ == 0) {
    return 0;
  }
  return static_cast<SimTime>(static_cast<double>(bytes) * 8.0 * 1e9 /
                              static_cast<double>(bandwidth_bps_));
}

void Wire::InjectLinkFault(SimTime until, double loss) {
  fault_until_ = until;
  fault_loss_ = loss;
}

void Wire::Transmit(const Packet& pkt) {
  const SimTime start = std::max(sim_->Now(), busy_until_);
  const SimTime tx_done = start + SerializationTime(pkt.size_bytes);
  busy_until_ = tx_done;
  ++packets_sent_;
  bytes_sent_ += pkt.size_bytes;
  // An armed link fault overrides the configured loss rate until it expires.
  // A dead link (loss >= 1) drops without consuming an rng draw, so the loss
  // stream past the fault window stays aligned with a fault-free run.
  const bool faulted = sim_->Now() < fault_until_;
  const double loss = faulted ? fault_loss_ : loss_rate_;
  if (loss >= 1.0 || (loss > 0.0 && rng_.Bernoulli(loss))) {
    ++packets_dropped_;
    bytes_dropped_ += pkt.size_bytes;
    return;
  }
  if (boundary_ != nullptr) {
    // Cross-partition delivery: the packet leaves this wire's accounting at
    // the hand-off (in-flight bytes stay 0 so the conservation audit holds
    // without the destination thread writing these counters), and the
    // sink's HandlePacket runs inside the destination partition.
    bytes_delivered_ += pkt.size_bytes;
    boundary_->Emit(stream_, pkt, tx_done + delay_);
    return;
  }
  bytes_in_flight_ += pkt.size_bytes;
  const bool idle = in_flight_.empty();
  in_flight_.push_back(
      InFlightPacket{tx_done + delay_, sim_->ReserveSeq(), pkt});
  if (idle) {
    ArmHead();
  }
}

void Wire::ArmHead() {
  const InFlightPacket& head = in_flight_.front();
  sim_->ScheduleReserved(head.deliver_at, head.seq, [this] { DeliverHead(); });
}

void Wire::DeliverHead() {
  assert(!in_flight_.empty());
  InFlightPacket entry = std::move(in_flight_.front());
  in_flight_.pop_front();
  // Arm the next delivery before the sink runs: a sink that transmits on
  // this wire must find it armed iff it holds packets.
  if (!in_flight_.empty()) {
    ArmHead();
  }
  bytes_in_flight_ -= entry.pkt.size_bytes;
  bytes_delivered_ += entry.pkt.size_bytes;
  sink_->HandlePacket(entry.pkt);
}

void Wire::RegisterInvariants(InvariantRegistry* reg, const std::string& name) {
  RegisterConservationAudit(reg, name, [this] {
    return ConservationCounts{bytes_sent_, bytes_delivered_, bytes_dropped_,
                              bytes_in_flight_};
  });
}

void Wire::SaveState(ArchiveWriter* w) const {
  w->Write<int64_t>(busy_until_);
  w->Write<int64_t>(fault_until_);
  w->Write<double>(fault_loss_);
  w->Write<uint64_t>(packets_sent_);
  w->Write<uint64_t>(packets_dropped_);
  w->Write<uint64_t>(bytes_sent_);
  w->Write<uint64_t>(bytes_delivered_);
  w->Write<uint64_t>(bytes_dropped_);
  w->Write<uint64_t>(bytes_in_flight_);
  rng_.Save(w);
  w->Write<uint32_t>(static_cast<uint32_t>(in_flight_.size()));
  for (uint64_t i = in_flight_.front_index(); i < in_flight_.end_index(); ++i) {
    const InFlightPacket& e = in_flight_.at_index(i);
    w->Write<int64_t>(e.deliver_at);
    SavePacket(w, e.pkt);
  }
}

void Wire::RestoreState(ArchiveReader& r) {
  busy_until_ = r.Read<int64_t>();
  fault_until_ = r.Read<int64_t>();
  fault_loss_ = r.Read<double>();
  packets_sent_ = r.Read<uint64_t>();
  packets_dropped_ = r.Read<uint64_t>();
  bytes_sent_ = r.Read<uint64_t>();
  bytes_delivered_ = r.Read<uint64_t>();
  bytes_dropped_ = r.Read<uint64_t>();
  bytes_in_flight_ = r.Read<uint64_t>();
  rng_.Restore(r);
  in_flight_.clear();
  const uint32_t n = r.Read<uint32_t>();
  // Each entry reserves a fresh sequence number, in FIFO order, where the
  // delivery event it stands for would have been scheduled.
  for (uint32_t i = 0; i < n; ++i) {
    InFlightPacket e;
    e.deliver_at = r.Read<int64_t>();
    e.seq = sim_->ReserveSeq();
    e.pkt = LoadPacket(r);
    in_flight_.push_back(std::move(e));
  }
  // Re-arm the delivery the restore wiped out with the event queue — the
  // DMTCP-style closure re-registration step. Restore runs with the clock at
  // or before every deliver_at (checkpoints only capture future
  // deliveries), so the deliveries fire at their original instants.
  if (!in_flight_.empty()) {
    ArmHead();
  }
}

}  // namespace tcsim
