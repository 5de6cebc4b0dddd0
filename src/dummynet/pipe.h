// Dummynet-style traffic shaping pipe.
//
// Emulab implements link characteristics (bandwidth, latency, loss, queue
// size) by interposing delay nodes running FreeBSD Dummynet on the path
// between experiment nodes (Section 2). The paper checkpoints the *network
// core* — the set of delay nodes — instead of implementing per-endpoint
// replay: in-flight bandwidth-delay-product packets are exactly the packets
// sitting in these pipes, so serializing the pipe hierarchy captures them
// (Section 4.4).
//
// A Pipe supports live suspension: pending transmissions and the delay line
// are frozen with their *remaining* times, and on resume are rescheduled so
// packets experience exactly the delay they would have without the
// checkpoint — the "virtualize time to account for the time spent in the
// checkpoint" step of the paper's Dummynet modifications.

#ifndef TCSIM_SRC_DUMMYNET_PIPE_H_
#define TCSIM_SRC_DUMMYNET_PIPE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/net/wire.h"
#include "src/sim/archive.h"
#include "src/sim/event_queue.h"
#include "src/sim/invariants.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcsim {

// Shaping parameters of one pipe direction.
struct PipeConfig {
  uint64_t bandwidth_bps = 100'000'000;  // 0 = unlimited
  SimTime delay = 0;                     // one-way added latency
  double loss_rate = 0.0;
  size_t queue_limit_packets = 100;      // Dummynet default queue size
};

// One direction of a shaped link.
class Pipe : public PacketHandler {
 public:
  Pipe(Simulator* sim, Rng rng, PipeConfig config, PacketHandler* sink);

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  // Ingress: queue the packet for shaping (tail-drop if the queue is full).
  void HandlePacket(const Packet& pkt) override;

  // Freezes the pipe: cancels all pending transmit/delivery events, recording
  // remaining times. Arriving packets are logged while suspended.
  void Suspend();

  // Unfreezes: reschedules every frozen packet with its remaining time and
  // ingests packets that arrived during the suspension.
  void Resume();

  bool suspended() const { return suspended_; }

  // Serializes the pipe state (config + queued and in-flight packet
  // metadata + shaping rng and counters). This is the delay-node
  // checkpoint image.
  void Save(ArchiveWriter* w) const;

  // Restores a state saved by Save() into an idle (or reset) pipe. Packets
  // resume with the remaining delays they had at save time. While the pipe
  // is suspended, remaining times are stored without scheduling events —
  // Resume() arms them. `credit_ingress` credits the reconstructed packets
  // to the ingress counter; pass false when restoring in place over state
  // this pipe already counted (the delay-node resume-from-image path),
  // true when populating a fresh pipe.
  void Restore(ArchiveReader& r, bool credit_ingress = true);

  // Clears the shaping stages (queue, transmission, delay line) so a held
  // image can be re-applied in place. The suspend-time ingress log and the
  // counters are preserved: packets logged during the suspension were
  // already counted, and will be ingested by Resume() after the restore.
  void ResetForRestore();

  const PipeConfig& config() const { return config_; }
  void set_sink(PacketHandler* sink) { sink_ = sink; }

  // Number of packets currently held (queued + in transmission + in the
  // delay line) — the bandwidth-delay-product state a checkpoint captures.
  size_t PacketsHeld() const;

  uint64_t forwarded() const { return forwarded_; }
  uint64_t queue_drops() const { return queue_drops_; }
  uint64_t loss_drops() const { return loss_drops_; }

  // Total packets accepted at ingress (including those logged while
  // suspended, and those reconstructed by Restore()). Conservation:
  // ingress == forwarded + drops + held + pending suspend-log ingest.
  uint64_t ingress_total() const { return ingress_total_; }

  // Registers the packet-conservation audit under `name`: every packet that
  // entered the pipe was forwarded, dropped (loss or queue tail-drop), is
  // still held in the shaping stages, or awaits ingest after a resume.
  void RegisterInvariants(InvariantRegistry* reg, const std::string& name);

 private:
  struct InTransit {
    uint64_t id;
    Packet pkt;
    SimTime due;        // absolute delivery time while running
    SimTime remaining;  // remaining delay while suspended
    EventHandle event;
  };

  // Shaping-path entry without the ingress count — used by Resume() to
  // re-inject logged packets that were already counted on arrival.
  void Ingest(const Packet& pkt);

  void StartTransmissionIfIdle();
  void OnTransmitDone();
  void ScheduleDelivery(const Packet& pkt, SimTime delay);
  void Deliver(uint64_t transit_id);
  SimTime SerializationTime(uint32_t bytes) const;

  Simulator* sim_;
  Rng rng_;
  PipeConfig config_;
  PacketHandler* sink_;

  std::deque<Packet> queue_;        // awaiting bandwidth
  bool tx_active_ = false;
  Packet tx_packet_;
  SimTime tx_done_at_ = 0;          // absolute, while running
  SimTime tx_remaining_ = 0;        // while suspended
  EventHandle tx_event_;
  std::vector<InTransit> delay_line_;
  uint64_t next_transit_id_ = 1;

  bool suspended_ = false;
  std::deque<Packet> suspend_ingress_log_;

  uint64_t forwarded_ = 0;
  uint64_t queue_drops_ = 0;
  uint64_t loss_drops_ = 0;
  uint64_t ingress_total_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_DUMMYNET_PIPE_H_
