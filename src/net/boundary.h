// The partition boundary: the one path a packet takes across a partition cut.
//
// A cross-partition Wire keeps its serializer, loss draw and counters in its
// source partition and hands each surviving packet to the boundary as data,
// appended to that wire's stream. After each window the scheduler's step
// merges the streams into per-destination delivery logs. A stream is written
// only by its source partition's thread, the logs only by the coordinator
// between windows, and a log's delivery events run on its destination's
// thread: no thread touches another partition's event queue.
//
// Release order is (deliver_at, source partition, emission position), where
// a partition's position counts its emissions over all its wires. Each wire
// emits in that order (monotone serializer, constant delay), so a k-way
// merge of the stream fronts sorts the release. Each entry reserves its
// destination's next sequence number in merge order, and only the first
// entry of each release's batch into a log is scheduled; each delivery
// schedules the next, so a destination holds one pending event per batch
// (DESIGN.md §8). Unheld, the step releases everything after each window
// with the window's bound as cutoff and barrier; lookahead puts every
// deliver_at after the bound, so each fires at its deliver_at (DESIGN.md
// §11). A holder (HA's output commit) releases at its own barriers and
// drives failover with Discard, Replay and Prune (DESIGN.md §14).
//
// Delivery events point into the logs, so the boundary must outlive every
// run of the partitions it joins (GeneratedTopology owns both).

#ifndef TCSIM_SRC_NET_BOUNDARY_H_
#define TCSIM_SRC_NET_BOUNDARY_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/net/wire.h"
#include "src/sim/fifo.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

class PartitionBoundary {
 public:
  // Sees each packet a held boundary releases, with its source clock at
  // emission and its injection instant. Coordinator thread.
  using ReleaseHook =
      std::function<void(const Packet& pkt, SimTime send_time,
                         SimTime inject_at, uint32_t src, uint32_t dst)>;

  // Since the last TakeTallies: packets (and bytes) kept in a stream, and
  // re-emissions suppressed below the released floor.
  struct Tallies {
    uint64_t held_packets = 0;
    uint64_t held_bytes = 0;
    uint64_t suppressed = 0;
  };

  // `sims[p]` is partition p's simulator. Not owned.
  explicit PartitionBoundary(std::vector<Simulator*> sims);

  PartitionBoundary(const PartitionBoundary&) = delete;
  PartitionBoundary& operator=(const PartitionBoundary&) = delete;

  // Adds the stream of one cross-partition wire, driven from partition `src`
  // and delivering to `sink` in partition `dst`. Returns its index, which the
  // wire names in Emit. Call before running.
  uint32_t AddStream(uint32_t src, uint32_t dst, PacketHandler* sink);

  // Source side: keeps `pkt`, arriving at the sink at `deliver_at`, in
  // `stream`. Runs on the thread driving the stream's source partition.
  void Emit(uint32_t stream, const Packet& pkt, SimTime deliver_at);

  // The scheduler's between-window step (PartitionScheduler::SetBoundary):
  // unless held, prunes what the window delivered and releases everything
  // with `bound` as cutoff and barrier. Returns the number released since
  // the previous step, by this step or by a holder's Release in between.
  uint64_t Step(SimTime bound);

  // Holds every packet until Release; `on_release` (may be empty) sees each
  // released one. Unhold returns the releases to the window step.
  void Hold(ReleaseHook on_release) {
    held_ = true;
    on_release_ = std::move(on_release);
  }
  void Unhold() {
    held_ = false;
    on_release_ = nullptr;
  }

  // Releases every held packet sent at or before `cutoff`, injecting its
  // delivery at max(deliver_at, barrier), in (deliver_at, source partition,
  // position) order. Coordinator thread, between windows, with `barrier`
  // increasing from call to call: one call's entries into one log are one
  // batch. Returns the number released.
  size_t Release(SimTime cutoff, SimTime barrier);

  // Emission position of partition `src`'s next packet.
  uint64_t position(uint32_t src) const { return sources_[src].next_pos; }

  // Drops `src`'s held packets at or after position `watermark` and rewinds
  // its position to `watermark`, so a replay re-emits under the original
  // positions. Returns the number dropped.
  size_t Discard(uint32_t src, uint64_t watermark);

  // Re-arms `dst`'s log after `dst`'s simulator was reset to `restored_to`,
  // skipping entries whose delivery is in the restored image (delivered at
  // or before `restored_to` by a release before it): each other entry
  // reserves a fresh sequence number, in log order, and the first of each
  // batch is scheduled. Returns the number re-armed.
  size_t Replay(uint32_t dst, SimTime restored_to);

  // Drops, from the front of each log, the entries that Replay at `floor` or
  // later would skip; their events have fired. An entry behind the first
  // kept one stays until the entries ahead of it go.
  void Prune(SimTime floor);

  // Packets held in the streams.
  size_t held_count() const;

  // Sums and clears the per-source tallies. Coordinator thread.
  Tallies TakeTallies();

  size_t partition_count() const { return sims_.size(); }

 private:
  struct Held {
    SimTime send_time = 0;   // source partition clock at Emit
    SimTime deliver_at = 0;  // arrival instant at the sink
    uint64_t pos = 0;        // emission position in the source partition
    Packet pkt;
  };

  // One wire's packets, in (deliver_at, pos) order. Aligned so streams
  // driven by different workers do not share a cache line.
  struct alignas(64) Stream {
    uint32_t src = 0;
    uint32_t dst = 0;
    PacketHandler* sink = nullptr;
    Fifo<Held> held;
  };

  // A source partition's emission state.
  struct alignas(64) Source {
    uint64_t next_pos = 0;
    // One past the highest released position. Releases take send-time
    // prefixes, so every position below the floor has escaped.
    uint64_t released_floor = 0;
    Tallies tallies;
  };

  struct Delivery {
    SimTime inject_at = 0;        // when the delivery fires
    SimTime release_barrier = 0;  // the barrier that released it
    uint64_t seq = 0;  // its event's sequence number on the destination
    PacketHandler* sink = nullptr;
    Packet pkt;
  };
  using Log = Fifo<Delivery>;

  // A stream's front in Release's merge. (deliver_at, src, pos) is a strict
  // order: one partition's positions are distinct.
  struct MergeKey {
    SimTime deliver_at = 0;
    uint32_t src = 0;
    uint32_t stream = 0;
    uint64_t pos = 0;
  };
  // merge_heap_'s order: true if `a` releases after `b` (a min-heap).
  struct ReleasesAfter {
    bool operator()(const MergeKey& a, const MergeKey& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      if (a.src != b.src) return a.src > b.src;
      return a.pos > b.pos;
    }
  };

  // Schedules entry `index` of `dst`'s log at its (inject_at, seq).
  void Arm(uint32_t dst, uint64_t index);
  // The delivery event: arms the next entry of the same batch, then hands
  // entry `index` to its sink.
  void Deliver(uint32_t dst, uint64_t index);
  // Stream `s`'s front as a merge key, or false if it is empty or was sent
  // after `cutoff`.
  bool DueKey(uint32_t s, SimTime cutoff, MergeKey* key) const;

  std::vector<Simulator*> sims_;
  std::vector<Stream> streams_;
  std::vector<Source> sources_;
  std::vector<Log> logs_;  // per destination partition, in release order
  std::vector<MergeKey> merge_heap_;  // Release's heap, reused
  SimTime last_barrier_ = -1;
  uint64_t released_since_step_ = 0;
  bool held_ = false;
  ReleaseHook on_release_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_BOUNDARY_H_
