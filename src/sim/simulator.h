// The discrete-event simulation kernel.
//
// Everything in this repository — links, disks, guest kernels, the Xen
// hypervisor model, the Emulab control plane — runs as callbacks scheduled on
// one Simulator instance. The simulator's clock is the *physical* time of the
// modelled testbed; per-node hardware clocks (src/clock) and guest virtual
// time (src/xen) are derived views of it.

#ifndef TCSIM_SRC_SIM_SIMULATOR_H_
#define TCSIM_SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace tcsim {

// Returned by Simulator::NextEventTime when no events are pending. Larger
// than every reachable simulation instant, so `min` folds over partitions
// treat an empty partition as "never".
inline constexpr SimTime kNoPendingEvent = INT64_MAX;

// Single-threaded discrete-event simulator. Not thread-safe: a partitioned
// run (src/sim/scheduler.h) gives each partition its own Simulator and only
// ever drives one from one thread at a time.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated physical time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Negative delays are clamped to 0
  // (fires "immediately", after already-queued events at the current time).
  // EventFn converts implicitly from any void() callable; small captures stay
  // in the event slot's inline buffer (no allocation). The callable is built
  // once, at the call site, and moved once, into its slot.
  EventHandle Schedule(SimTime delay, EventFn&& fn);

  // Schedules `fn` at absolute time `t`; `t` in the past is clamped to now.
  EventHandle ScheduleAt(SimTime t, EventFn&& fn);

  // Reserves the sequence number of an event to be scheduled later with
  // ScheduleReserved: the event's place among same-instant events is fixed
  // now, where a ScheduleAt would have fixed it. A FIFO of future events
  // reserves one number per entry and keeps only its head scheduled (see
  // EventQueue).
  uint64_t ReserveSeq() { return queue_.ReserveSeq(); }

  // Schedules `fn` at absolute time `t` under the reserved number `seq`.
  // `t` must not be in the past: unlike ScheduleAt, nothing is clamped,
  // because a clamped event would no longer fire at its reserved place.
  EventHandle ScheduleReserved(SimTime t, uint64_t seq, EventFn&& fn);

  // Runs events until the queue is exhausted.
  void Run();

  // Runs all events with time <= `t`, then advances the clock to exactly `t`.
  void RunUntil(SimTime t);

  // Runs a single event if one is pending. Returns false if the queue is
  // empty.
  bool Step();

  // Time of the earliest pending event, or kNoPendingEvent when idle. The
  // partition scheduler folds this across partitions to pick the next
  // conservative window.
  SimTime NextEventTime() const {
    return queue_.Empty() ? kNoPendingEvent : queue_.NextTime();
  }

  // Installs the partition-ownership guard on the event queue (nullptr to
  // remove). See QueueGuard in src/sim/event_queue.h.
  void InstallQueueGuard(QueueGuard* guard) { queue_.set_guard(guard); }

  // Guard violations observed on this simulator's queue (must stay 0).
  uint64_t queue_guard_violations() const { return queue_.guard_violations(); }

  // Total number of events executed so far (diagnostics / micro-benchmarks).
  uint64_t events_processed() const { return events_processed_; }

  // Number of events currently pending.
  size_t pending_events() const { return queue_.Size(); }

  // Event-kernel diagnostics surfaced to the telemetry layer (gauges
  // "sim.queue.*"; see obs::CaptureSimulatorMetrics).
  size_t pending_high_water() const { return queue_.live_high_water(); }
  size_t slot_capacity() const { return queue_.slot_capacity(); }
  uint64_t slot_reuses() const { return queue_.slot_reuses(); }

  // Prepares the simulator to receive a checkpoint image captured at time
  // `t`: discards every pending event and jumps the clock to `t` (forward or
  // backward). Components re-arm their own events while restoring; see
  // Checkpointable. The event digest keeps accumulating across the reset —
  // it fingerprints the whole process run, not one timeline.
  void ResetForRestore(SimTime t);

  // Running determinism digest: an FNV-1a hash over every event dispatched so
  // far (its time and queue sequence number, in dispatch order). Running the
  // same scenario twice with the same seed must yield identical digests; any
  // difference pinpoints nondeterminism. Compared by tests and printed by the
  // fig-bench harnesses.
  uint64_t Digest() const { return queue_.digest(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_processed_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_SIMULATOR_H_
