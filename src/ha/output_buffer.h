// Output commit for the HA subsystem (the Remus / qemu-MC discipline).
//
// A micro-checkpointed system may lose everything after its last committed
// epoch, so output that has escaped to the outside world must never depend on
// uncommitted state: external output is *buffered* until the epoch covering
// it is committed, then released. Here the "outside world" boundary is
// cross-partition (zone-boundary) wire egress — which is also the Emulab
// external-observer boundary (src/emulab/external_observer.h).
//
// The buffer installs itself as the WireEgressTap of every cross-partition
// wire and holds each packet with the send-side clock reading and its
// logical position in the source's emission stream. Release is a
// deterministic function of epochs only: at an epoch barrier B with
// committed-epoch cutoff T_c, every held packet with send_time <= T_c is
// released, its delivery injected at max(deliver_at, T_B). Nothing about
// release depends on wall-clock commit timing, so a faulty run and a
// fault-free run release identical packet sequences at identical instants —
// the property the transparency tests diff. Released deliveries are ordered
// by (deliver_at, source partition, emission position).
//
// Held output is kept per tapped wire (a stream). One wire emits in
// (deliver_at, position) order — its serializer clock is monotone and its
// delay constant — so release merges the streams' releasable prefixes
// instead of sorting them. A source partition's whole emission stream is
// not in deliver_at order (its wires have different delays), which is why
// the streams are per wire and not per partition.
//
// Emission positions are what make failover exactly-once. A restore rewinds
// the victim's position counter to the target epoch's watermark, so the
// deterministic replay re-emits the victim's post-capture output under the
// original positions. Positions still below the partition's released floor
// have already escaped (released before the kill — possible because
// deliveries injected at a barrier fire after that barrier's capture, so
// output they trigger postdates the restorable image yet is releasable one
// epoch later); those re-emissions are suppressed at the tap. Positions at or
// above the floor were still held at the kill, were discarded then, and are
// re-held exactly once.
//
// Each released delivery is appended to its destination partition's replay
// log with the event sequence number it reserves on that partition's
// simulator, and its injected event names the entry by (destination
// partition, absolute index) instead of carrying a copy of the packet. The
// entries one barrier releases into one log form a batch, in (inject_at,
// seq) order. Only a batch's first entry is scheduled at release; each
// delivery schedules the next entry of its batch under its reserved number,
// so the destination's event queue holds one entry per batch, not one per
// packet, and every delivery fires where a per-packet event would have.
//
// The log doubles as the failover replay log: a restored partition lost
// every released delivery still pending in its event queue (the queue is
// wiped, and injected events are not component state), so ReplayInbound
// re-injects the entries of the victim's log the restored timeline still
// needs, arming the first re-injected entry of each batch.
// DiscardUnreleasedFrom drops a victim's held output — its replay
// regenerates exactly those sends, which is what makes duplication
// impossible: output escapes the buffer only once, after commit.
//
// Lifetime: injected events point into the replay logs, so the buffer must
// outlive every run of the topology it taps (MicroCheckpointer owns both the
// buffer and the runs).
//
// Threading: OnCrossEgress runs on whichever worker thread drives the source
// partition, so each stream and each partition's emission counters have a
// single writer (like the scheduler's outboxes); injected events read only
// their destination's replay log; everything else runs on the coordinator
// thread between windows, synchronized by the scheduler's phase barriers.

#ifndef TCSIM_SRC_HA_OUTPUT_BUFFER_H_
#define TCSIM_SRC_HA_OUTPUT_BUFFER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/emulab/external_observer.h"
#include "src/net/packet.h"
#include "src/net/topology.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/sim/fifo.h"
#include "src/sim/time.h"

namespace tcsim {
namespace ha {

class OutputCommitBuffer : public WireEgressTap {
 public:
  // Installs this buffer as the egress tap of every cross-partition interior
  // wire of `topo`, one stream per wire. Does not own `topo`; the buffer must
  // outlive the taps (detached in the destructor) and every event it injects.
  explicit OutputCommitBuffer(GeneratedTopology* topo);
  ~OutputCommitBuffer() override;

  OutputCommitBuffer(const OutputCommitBuffer&) = delete;
  OutputCommitBuffer& operator=(const OutputCommitBuffer&) = delete;

  // Released packets are also reported to `obs` (the facility-side view of
  // the experiment). Not owned; null detaches.
  void SetObserver(emulab::ExternalObserver* obs) { observer_ = obs; }

  // WireEgressTap: holds the packet. Always returns true — while the buffer
  // is installed, no cross-partition packet escapes before commit. Each
  // emission takes the source partition's next logical stream position as
  // its sequence; a position below the partition's released floor is a
  // replaying victim re-emitting output that already escaped (e.g.
  // re-forwarding a re-injected delivery whose original forward was released
  // before the kill), and is dropped instead of held — output escapes exactly
  // once.
  bool OnCrossEgress(uint32_t stream, const Packet& pkt,
                     SimTime deliver_at) override;

  // Releases every held packet with send_time <= `cutoff` (the committed
  // epoch's instant), injecting each delivery into its destination partition
  // at max(deliver_at, barrier). Deliveries are injected in (deliver_at,
  // src partition, seq) order, merged from the streams. Coordinator thread,
  // between windows, at most once per barrier and with barriers increasing:
  // one call's deliveries into one partition are one batch. Returns the
  // number released.
  size_t ReleaseUpTo(SimTime cutoff, SimTime barrier);

  // Epoch bookkeeping: records every source partition's emission position
  // as the watermark of `epoch`. Called at the epoch's barrier, after the
  // capture and before the system resumes, so the watermark splits each
  // partition's emission stream exactly at the capture instant: emissions
  // below it happened before the image was taken, emissions at or above it
  // after.
  void MarkEpoch(uint64_t epoch);

  // Failover: drops the victim's held output emitted after `epoch`'s
  // capture — the victim's replay re-emits exactly those sends — and rewinds
  // the victim's emission position to the epoch's watermark, so replayed
  // emissions reclaim their original stream positions (which is what lets
  // OnCrossEgress recognise and suppress re-emissions of already-released
  // output). The split is the emission watermark, not a timestamp: output
  // forwarded at the barrier instant by a released delivery carries the
  // barrier's own send time but postdates the capture. Entries below the
  // watermark stay held (their transmission is in the restored image and
  // will not re-execute; normally the release cutoff has already drained
  // them, so the kept set is non-empty only under durable-commit gating).
  // Returns the number discarded.
  size_t DiscardUnreleasedFrom(uint32_t victim, uint64_t epoch);

  // Failover: re-injects the entries of `victim`'s replay log that the
  // restore wiped from its event queue — entries with inject_at strictly
  // after `restored_to`, plus entries released at the `restored_to` barrier
  // itself (those fired after the epoch capture, so their effect is not in
  // the image). Each reserves a fresh sequence number, in log order, and the
  // first re-injected entry of each batch is armed: the entries a batch
  // skips are a prefix (inject_at is non-decreasing along it), so its chain
  // delivers the rest. Call with the victim's simulator already reset to
  // `restored_to`. Returns the number re-injected.
  size_t ReplayInbound(uint32_t victim, SimTime restored_to);

  // Drops replay-log entries no future restore can need: any restore
  // targets an epoch at or after `floor` (the newest committed epoch), so
  // entries whose delivery effect is inside every such image are dead (and
  // their injected events have fired).
  void PruneReplayLog(SimTime floor);

  // Held packets not yet released.
  size_t held_count() const;

  uint64_t released_total() const { return released_total_; }
  uint64_t discarded_total() const { return discarded_total_; }
  uint64_t replayed_total() const { return replayed_total_; }
  uint64_t suppressed_total() const { return suppressed_total_; }

 private:
  struct Held {
    SimTime send_time = 0;   // source partition clock at Transmit
    SimTime deliver_at = 0;  // arrival instant at the sink, pre-buffering
    uint64_t seq = 0;  // logical emission position in the source's stream
    Packet pkt;
  };

  // One tapped wire's held output, in (deliver_at, seq) order. Written only
  // by the thread running the source partition; aligned so neighbouring
  // streams driven by different workers do not share a cache line.
  struct alignas(64) Stream {
    uint32_t src_partition = 0;
    uint32_t dst_partition = 0;
    PacketHandler* sink = nullptr;
    Fifo<Held> held;
  };

  // A stream's front in ReleaseUpTo's merge, keyed by release order:
  // (deliver_at, src partition, seq) — a strict order, as one partition's
  // positions are distinct.
  struct MergeKey {
    SimTime deliver_at = 0;
    uint32_t src_partition = 0;
    uint32_t stream = 0;
    uint64_t seq = 0;
  };
  // merge_heap_'s order: true if `a` releases after `b` (a min-heap).
  struct ReleasesAfter {
    bool operator()(const MergeKey& a, const MergeKey& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      if (a.src_partition != b.src_partition)
        return a.src_partition > b.src_partition;
      return a.seq > b.seq;
    }
  };

  struct Released {
    SimTime inject_at = 0;        // when the delivery was scheduled to fire
    SimTime release_barrier = 0;  // the barrier that released it
    uint64_t seq = 0;  // its event's sequence number on the destination
    PacketHandler* sink = nullptr;
    Packet pkt;
  };
  using ReplayLog = Fifo<Released>;

  // Schedules the delivery of entry `index` of partition `dst`'s replay log
  // at the entry's (inject_at, seq).
  void Arm(uint32_t dst, uint64_t index);
  // The injected event: arms the next entry of the same batch, then hands
  // entry `index` to its sink.
  void Deliver(uint32_t dst, uint64_t index);
  // Stream `s`'s front as a merge key, or false if it is empty or was sent
  // after `cutoff`.
  bool DueKey(uint32_t s, SimTime cutoff, MergeKey* key) const;

  GeneratedTopology* topo_;
  emulab::ExternalObserver* observer_ = nullptr;
  std::vector<Stream> streams_;
  // Per source partition logical emission position. Rewound to the restore
  // epoch's watermark on failover: a replaying victim re-emits its
  // post-capture output under the original positions, making "already
  // escaped" a simple position test against released_floor_.
  std::vector<uint64_t> emit_pos_;
  // Per source partition: one past the highest released position. Releases
  // take each stream's send-time prefix, and send times are monotone in
  // position across a partition's streams, so every position below the
  // floor has escaped to the outside world and must never escape again.
  std::vector<uint64_t> released_floor_;
  // Per-epoch emission watermarks (epoch -> emit_pos_ at its capture).
  // Restores only ever target the newest committed epoch (or the epoch-0
  // bootstrap early on), so old entries are pruned aggressively.
  std::map<uint64_t, std::vector<uint64_t>> epoch_seq_;
  // Per destination partition, in release order. Injected events name
  // their entry by (partition, absolute index).
  std::vector<ReplayLog> replay_logs_;
  SimTime last_barrier_ = -1;  // ReleaseUpTo's latest barrier
  std::vector<MergeKey> merge_heap_;  // ReleaseUpTo's heap, reused
  uint64_t released_total_ = 0;
  uint64_t discarded_total_ = 0;
  uint64_t replayed_total_ = 0;
  uint64_t suppressed_total_ = 0;

  // Hot-path tallies per source partition: OnCrossEgress runs on worker
  // threads concurrently, so it must never touch the shared obs counters
  // directly. FlushShardTelemetry() folds the deltas into the registry on the
  // coordinator thread at each barrier (workers are parked, the phase barrier
  // orders the accesses).
  struct alignas(64) ShardStats {
    uint64_t held_packets = 0;
    uint64_t held_bytes = 0;
    uint64_t suppressed = 0;
  };
  std::vector<ShardStats> shard_stats_;
  void FlushShardTelemetry();

  // Telemetry handles (hot-path cost: pointer chase + add; never serialized,
  // never perturbing).
  obs::Counter* held_packets_counter_;
  obs::Counter* held_bytes_counter_;
  obs::Counter* released_counter_;
  obs::Counter* discarded_counter_;
  obs::Counter* replayed_counter_;
  obs::Counter* suppressed_counter_;
  obs::Histogram* hold_time_us_;
};

}  // namespace ha
}  // namespace tcsim

#endif  // TCSIM_SRC_HA_OUTPUT_BUFFER_H_
