// Output commit for the HA subsystem (the Remus / qemu-MC discipline).
//
// A micro-checkpointed system may lose everything after its last committed
// epoch, so output that has escaped to the outside world must never depend on
// uncommitted state: external output is *buffered* until the epoch covering
// it is committed, then released. Here the "outside world" boundary is
// cross-partition (zone-boundary) wire egress — which is also the Emulab
// external-observer boundary (src/emulab/external_observer.h).
//
// Every packet that crosses a partition cut already waits in the topology's
// partition boundary (src/net/boundary.h); the buffer is a hold policy on it.
// It holds the boundary, so windows release nothing, and releases at epoch
// barriers instead, as a function of epochs only: at barrier B with
// committed-epoch cutoff T_c, every held packet with send_time <= T_c is
// released, its delivery injected at max(deliver_at, T_B). Nothing depends on
// wall-clock commit timing, so a faulty and a fault-free run release
// identical packet sequences at identical instants — the property the
// transparency tests diff.
//
// Emission positions make failover exactly-once. A restore rewinds the
// victim's position to the target epoch's watermark, so the replay re-emits
// its post-capture output under the original positions. Positions below the
// partition's released floor already escaped (a delivery injected at a
// barrier fires after that barrier's capture, so output it triggers
// postdates the image yet is releasable one epoch later), and the boundary
// suppresses their re-emissions; positions at or above it were still held
// at the kill, are discarded then, and are held again exactly once. The
// boundary's delivery logs double as the replay log.
//
// The buffer owns the epoch watermarks, the observer and hold-time histogram
// (its release hook), the `output_release` ledger stamp and the `ha.buffer.*`
// counters; it keeps no packets. Everything here runs on the coordinator
// thread between windows.

#ifndef TCSIM_SRC_HA_OUTPUT_BUFFER_H_
#define TCSIM_SRC_HA_OUTPUT_BUFFER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/emulab/external_observer.h"
#include "src/net/boundary.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace tcsim {
namespace ha {

class OutputCommitBuffer {
 public:
  // Holds `boundary` until destroyed. Does not own it.
  explicit OutputCommitBuffer(PartitionBoundary* boundary);
  ~OutputCommitBuffer();

  OutputCommitBuffer(const OutputCommitBuffer&) = delete;
  OutputCommitBuffer& operator=(const OutputCommitBuffer&) = delete;

  // Released packets are also reported to `obs` (the facility-side view of
  // the experiment). Not owned; null detaches.
  void SetObserver(emulab::ExternalObserver* obs) { observer_ = obs; }

  // Releases every held packet with send_time <= `cutoff` (the committed
  // epoch's instant), injecting each delivery into its destination partition
  // at max(deliver_at, barrier) (PartitionBoundary::Release). At most once
  // per barrier, with barriers increasing. Returns the number released.
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
  // emissions reclaim their original positions. The split is the emission
  // watermark, not a timestamp: output forwarded at the barrier instant by a
  // released delivery carries the barrier's own send time but postdates the
  // capture. Entries below the watermark stay held (their transmission is in
  // the restored image; normally the release cutoff has already drained
  // them, so the kept set is non-empty only under durable-commit gating).
  // Returns the number discarded.
  size_t DiscardUnreleasedFrom(uint32_t victim, uint64_t epoch);

  // Failover: re-arms the victim's replay log, which the restore wiped from
  // its event queue (PartitionBoundary::Replay). Entries whose delivery the
  // restored image already holds are skipped: PruneReplayLog drops them only
  // from the log's front, so one can outlive the prune behind an older
  // release that a slower wire delivers later. Call with the victim's
  // simulator already reset to `restored_to`. Returns the number re-injected.
  size_t ReplayInbound(uint32_t victim, SimTime restored_to);

  // Drops replay-log entries no future restore can need: any restore
  // targets an epoch at or after `floor` (the newest committed epoch), so
  // entries whose delivery effect is inside every such image are dead (and
  // their injected events have fired).
  void PruneReplayLog(SimTime floor);

  // Held packets not yet released.
  size_t held_count() const { return boundary_->held_count(); }

  uint64_t released_total() const { return released_total_; }
  uint64_t discarded_total() const { return discarded_total_; }
  uint64_t replayed_total() const { return replayed_total_; }
  uint64_t suppressed_total() const { return suppressed_total_; }

 private:
  // The boundary's release hook: the observer and the hold-time samples.
  void OnRelease(const Packet& pkt, SimTime send_time, SimTime inject_at,
                 uint32_t src, uint32_t dst);
  // Folds the boundary's hot-path tallies into the registry.
  void FlushTallies();

  PartitionBoundary* boundary_;
  emulab::ExternalObserver* observer_ = nullptr;
  // Per-epoch emission watermarks (epoch -> every partition's position at
  // its capture). Restores only ever target the newest committed epoch (or
  // the epoch-0 bootstrap early on), so old entries are pruned aggressively.
  std::map<uint64_t, std::vector<uint64_t>> epoch_seq_;
  // Simulated hold times of the release in progress (ledger args).
  double hold_us_max_ = 0.0;
  double hold_us_sum_ = 0.0;
  uint64_t released_total_ = 0;
  uint64_t discarded_total_ = 0;
  uint64_t replayed_total_ = 0;
  uint64_t suppressed_total_ = 0;

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
