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
// A packet passes three stages: the queue (awaiting bandwidth), the one
// transmission (its serialization time), and the delay line (the link
// latency). The delay line is a FIFO stream like a Wire's in-flight
// packets (DESIGN.md §8): the transmit-done event reserves the delivery's
// event sequence number and queues the packet with its deadline, and only
// the head delivery is scheduled, so a pipe holds at most two pending
// events however many packets it carries.
//
// A Pipe supports live suspension: Suspend cancels the two events and
// records the suspend instant, and Resume shifts the transmission and
// every deadline by the downtime and re-arms them, so packets experience
// exactly the delay they would have without the checkpoint — the
// "virtualize time to account for the time spent in the checkpoint" step
// of the paper's Dummynet modifications. Images store each remaining time
// from one anchor: the suspend instant while suspended, otherwise now.

#ifndef TCSIM_SRC_DUMMYNET_PIPE_H_
#define TCSIM_SRC_DUMMYNET_PIPE_H_

#include <cstdint>
#include <string>

#include "src/net/packet.h"
#include "src/net/wire.h"
#include "src/sim/archive.h"
#include "src/sim/event_queue.h"
#include "src/sim/fifo.h"
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

  // Freezes the pipe: cancels the pending transmit-done and delivery events
  // and records the suspend instant. Arriving packets are logged while
  // suspended.
  void Suspend();

  // Unfreezes: shifts the transmission and every delivery deadline by the
  // downtime, re-arms them, and ingests packets that arrived during the
  // suspension.
  void Resume();

  bool suspended() const { return suspended_; }

  // Serializes the pipe state (config + queued and in-flight packet
  // metadata + shaping rng and counters). This is the delay-node
  // checkpoint image.
  void Save(ArchiveWriter* w) const;

  // Restores a state saved by Save() into an idle (or reset) pipe. Packets
  // resume with the remaining delays they had at save time. While the pipe
  // is suspended, nothing is scheduled and no sequence number is reserved —
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
  // A packet in the delay line: it leaves the pipe at `deliver_at`, under
  // the event sequence number reserved when it entered the line.
  struct InTransit {
    SimTime deliver_at = 0;
    uint64_t seq = 0;
    Packet pkt;
  };

  // Shaping-path entry without the ingress count — used by Resume() to
  // re-inject logged packets that were already counted on arrival.
  void Ingest(const Packet& pkt);

  void StartTransmissionIfIdle();
  void OnTransmitDone();
  // Schedules the delay line's head under its reserved number.
  void ArmHead();
  // Forwards the delay line's head and arms the next entry. The line is
  // FIFO: transmissions end in order and the delay is constant, so each
  // entry's (deliver_at, seq) is later than its predecessor's.
  void DeliverHead();
  // What remaining times in an image count from: the suspend instant while
  // suspended, otherwise now.
  SimTime Anchor() const { return suspended_ ? suspended_at_ : sim_->Now(); }
  SimTime SerializationTime(uint32_t bytes) const;

  Simulator* sim_;
  Rng rng_;
  PipeConfig config_;
  PacketHandler* sink_;

  Fifo<Packet> queue_;  // awaiting bandwidth
  bool tx_active_ = false;
  Packet tx_packet_;
  SimTime tx_done_at_ = 0;
  EventHandle tx_event_;
  Fifo<InTransit> delay_line_;
  EventHandle head_event_;  // the delay line's head delivery

  bool suspended_ = false;
  SimTime suspended_at_ = 0;
  Fifo<Packet> suspend_ingress_log_;

  uint64_t forwarded_ = 0;
  uint64_t queue_drops_ = 0;
  uint64_t loss_drops_ = 0;
  uint64_t ingress_total_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_DUMMYNET_PIPE_H_
