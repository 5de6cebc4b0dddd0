// A cancellable priority queue of timed events.
//
// Events with equal timestamps fire in sequence-number order, which keeps
// whole-simulation runs deterministic and reproducible — a requirement for
// the transparency property tests, which compare two runs event for event.
// A sequence number is consumed when it is reserved: Push reserves and
// schedules at once, and a FIFO stream of events (a wire's in-flight
// packets, a release batch) reserves each entry's number when the entry is
// created but keeps only its head scheduled, arming the next entry with
// PushReserved when the head fires. Every event keeps the (time, seq) it
// would have had if all had been pushed at once, so dispatch order and the
// digest do not depend on when an event was armed, and the heap holds one
// entry per stream instead of one per packet.
//
// Storage layout (the hot path of every benchmark in this tree):
//  - Callbacks live in a slab of reusable slots; a freed slot goes on a free
//    list and its storage (including the EventFn inline capture buffer) is
//    reused by the next Push. After warm-up, steady-state scheduling and
//    dispatch perform no heap allocations.
//  - Handles address slots as {index, generation}. Cancellation bumps the
//    slot's generation and frees it immediately; the matching heap entry
//    becomes stale and is skipped when it surfaces. A reused slot invalidates
//    old handles by construction (their generation no longer matches).
//  - The queue counts its stale entries. Once they outnumber the live ones,
//    Cancel rebuilds the heap from the live entries (erase + make_heap): the
//    rebuild is paid for by the cancels since the last one, so a cancel
//    costs amortised O(1), and right after a cancel the heap holds at most
//    twice the live events. (time, seq) is a strict order, so the heap's
//    shape never changes which event pops next.
//  - The binary heap is a plain std::vector of POD entries ordered with
//    push_heap/pop_heap, so Pop moves the callback out of its slot directly —
//    no const_cast move from priority_queue::top().
//  - Pop leaves the dispatched entry at the root, where it reads as stale
//    once its slot is freed. Most callbacks schedule a follow-up event, and
//    the first push after a Pop takes the stale root's place and sifts down
//    from there: a near-future event stops after a level or two, where a
//    pop_heap plus push_heap would have walked the heap's height twice. If
//    nothing is pushed, the next NextTime or Pop drops the stale root.

#ifndef TCSIM_SRC_SIM_EVENT_QUEUE_H_
#define TCSIM_SRC_SIM_EVENT_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/digest.h"
#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace tcsim {

class EventQueue;

// Cross-thread ownership guard for the partitioned kernel (see
// src/sim/scheduler.h). The queue itself stays single-threaded; the guard
// only *detects* violations of that contract. While `*executing` is true a
// window of the parallel scheduler is in flight and only the thread whose tag
// is stored in `owner` may touch the queue (owner == 0 means the partition is
// not claimed by any worker this window, so any touch is foreign). Outside an
// execution window the coordinator thread may do anything. Violations are
// counted, not trapped: TimerHost::Cancel through a stale handle from another
// partition must be *harmless* (the slot generation check already makes the
// cancel a no-op), but it must also be *visible* so tests can assert the
// partitioning never routes live handles across threads.
struct QueueGuard {
  std::atomic<bool>* executing = nullptr;
  std::atomic<uint64_t> owner{0};
};

// Tag identifying the calling thread for QueueGuard ownership checks
// (a hash of std::thread::id, never 0).
uint64_t CurrentThreadTag();

// Restores a heap ordered by `after` (a min-heap: no element is `after` its
// parent) whose root was just replaced: one sift from the root, where a
// pop_heap plus push_heap would sift twice. The event queue and the HA
// release merge use it.
template <typename T, typename After>
void SiftDownRoot(std::vector<T>& heap, After after) {
  const size_t n = heap.size();
  const T key = heap[0];
  size_t i = 0;
  for (size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && after(heap[child], heap[child + 1])) {
      ++child;
    }
    if (!after(key, heap[child])) {
      break;
    }
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = key;
}

// A handle to a scheduled event that allows cancellation. Handles are cheap
// to copy; a default-constructed handle refers to nothing. A handle must not
// outlive the EventQueue it came from (in this tree, component handles always
// die before the simulator that owns the queue).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not yet fired. Safe to call repeatedly and on
  // empty handles.
  void Cancel();

  // True if the event is still scheduled to fire.
  bool pending() const;

 private:
  friend class EventQueue;

  EventHandle(EventQueue* queue, uint32_t slot, uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

// Time-ordered queue of callbacks. Not thread-safe: the simulator is a
// single-threaded discrete-event kernel by design.
class EventQueue {
 public:
  // Enqueues `fn` to fire at absolute time `t`.
  EventHandle Push(SimTime t, EventFn&& fn) {
    return PushReserved(t, next_seq_++, std::move(fn));
  }

  // Consumes the next sequence number without scheduling anything. The
  // caller later schedules the event it stands for with PushReserved.
  uint64_t ReserveSeq() {
    CheckGuard();
    return next_seq_++;
  }

  // Enqueues `fn` to fire at absolute time `t` under `seq`, a number taken
  // from ReserveSeq and not used before. The caller must push it before any
  // event ordered after (t, seq) is popped; it then fires exactly where a
  // Push at reservation time would have.
  EventHandle PushReserved(SimTime t, uint64_t seq, EventFn&& fn);

  // True if no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  // Time of the earliest live event. Must not be called when Empty().
  SimTime NextTime() const;

  // Removes and returns the earliest live event's callback, recording its
  // timestamp in `t`. Must not be called when Empty().
  EventFn Pop(SimTime* t);

  // Number of live events currently queued.
  size_t Size() const { return live_; }

  // Discards every pending event (marking outstanding handles as cancelled).
  // Used when a fresh simulator state is installed from a checkpoint image:
  // components re-arm their own events during restore. The sequence counter
  // and digest are NOT reset — they keep fingerprinting the whole run.
  void Clear();

  // Determinism digest over every dispatched event's (time, sequence) pair,
  // in dispatch order. Two same-seed runs of one scenario must agree on this
  // value after any equal number of steps (see src/sim/digest.h).
  uint64_t digest() const { return digest_.value(); }

  // --- Pool diagnostics (tests and micro-benchmarks) -------------------------

  // Slots ever allocated. Flat across steady-state churn: every Push after
  // warm-up reuses a freed slot instead of growing the slab.
  size_t slot_capacity() const { return slots_.size(); }

  // Pushes served by reusing a freed slot (pool hits).
  uint64_t slot_reuses() const { return slot_reuses_; }

  // Heap entries, live and stale. Right after any Cancel this is at most
  // 2 * Size(): the stale-entry rebuild sees to it.
  size_t heap_entries() const { return heap_.size(); }

  // Largest live-event population ever reached — the queue-depth high-water
  // mark exported as "sim.queue.depth_high_water". Maintained inline in
  // PushReserved (one compare); the telemetry layer only reads it, keeping
  // the dispatch hot path free of any metric lookup.
  size_t live_high_water() const { return live_high_water_; }

  // --- Partition ownership guard ---------------------------------------------

  // Installs (or removes, with nullptr) the cross-thread ownership guard.
  // Queues without a guard — every single-threaded simulation — pay one
  // null-pointer compare per operation.
  void set_guard(QueueGuard* guard) { guard_ = guard; }

  // Operations performed during an execution window by a thread that did not
  // own this queue's partition. Any nonzero value is a partitioning bug.
  uint64_t guard_violations() const {
    return guard_violations_.load(std::memory_order_relaxed);
  }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    EventFn fn;
    uint32_t generation = 0;
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  // POD heap entry; ordering is (time, seq) min-first. `seq` alone breaks
  // ties, so dispatch order is exactly the legacy priority_queue order.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  // The heap comparator, a function object so push_heap/pop_heap inline it.
  struct After {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  bool Stale(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return !s.live || s.generation != e.generation;
  }

  // Drops stale (cancelled) entries from the top of the heap.
  void DropStale() const;

  // Rebuilds the heap from its live entries.
  void PurgeStale();

  // Returns the slot to the free list and invalidates outstanding handles.
  void ReleaseSlot(uint32_t index);

  void CancelSlot(uint32_t index, uint32_t generation);
  bool SlotPending(uint32_t index, uint32_t generation) const;

  // Counts a violation if a window is executing and the caller is not the
  // owning worker. The slow path is out of line so the common unguarded case
  // inlines to a single branch.
  void CheckGuard() const {
    if (guard_ != nullptr) {
      CheckGuardSlow();
    }
  }
  void CheckGuardSlow() const;

  QueueGuard* guard_ = nullptr;
  mutable std::atomic<uint64_t> guard_violations_{0};
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  mutable std::vector<HeapEntry> heap_;
  mutable size_t stale_ = 0;  // heap_ entries cancelled or dispatched
  size_t live_ = 0;
  size_t live_high_water_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t slot_reuses_ = 0;
  Fnv1aDigest digest_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_EVENT_QUEUE_H_
