// Per-node hardware clock with drift, offset and NTP-style disciplining.
//
// Section 4.3 of the paper schedules distributed checkpoints by local clock
// ("checkpoint at time t"), so the precision of the coordinated suspend is
// bounded by the residual clock synchronization error. Emulab runs NTP over
// its dedicated control LAN, which the paper quotes at ~200 us worst-case
// error. This model reproduces that error process: each node's oscillator
// drifts (ppm), an NTP loop periodically measures the offset against the true
// (simulator) time with sampling jitter, and slews a correction. The residual
// error — what the checkpoint scheduler actually experiences — is an emergent
// property of drift, poll interval, jitter and loop gain.

#ifndef TCSIM_SRC_CLOCK_HARDWARE_CLOCK_H_
#define TCSIM_SRC_CLOCK_HARDWARE_CLOCK_H_

#include <functional>
#include <string>

#include "src/sim/checkpointable.h"
#include "src/sim/event_queue.h"
#include "src/sim/invariants.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace tcsim {

// Tunables for one node's clock and its NTP discipline loop.
struct ClockParams {
  // Frequency error of the free-running oscillator, in parts per million.
  // Typical PC quartz is within +/-50 ppm.
  double drift_ppm = 10.0;

  // Initial phase error relative to true time.
  SimTime initial_offset = 0;

  // Additional per-clock random initial phase error, sampled uniformly in
  // [-jitter, +jitter] at construction. Models machines booting with
  // differently-wrong CMOS clocks before NTP converges.
  SimTime initial_offset_jitter = 0;

  // Standard deviation of a single NTP offset measurement. On a quiet
  // dedicated control LAN this is dominated by interrupt/stack jitter;
  // ~50-100 us reproduces the paper's ~200 us worst-case error.
  SimTime ntp_jitter = 45 * kMicrosecond;

  // NTP poll interval.
  SimTime ntp_poll_interval = 4 * kSecond;

  // Fraction of the measured offset corrected per poll.
  double ntp_gain = 0.7;
};

// A disciplined per-node clock. LocalNow() is what gettimeofday-style reads
// on the node's *host* (hypervisor) return; guest virtual time is layered on
// top of this by the Xen model.
class HardwareClock : public Checkpointable {
 public:
  HardwareClock(Simulator* sim, Rng rng, ClockParams params);

  HardwareClock(const HardwareClock&) = delete;
  HardwareClock& operator=(const HardwareClock&) = delete;

  // Local time corresponding to the current simulated physical time.
  SimTime LocalNow() const { return LocalAt(sim_->Now()); }

  // Local time corresponding to physical time `phys`.
  SimTime LocalAt(SimTime phys) const;

  // Physical time at which this clock will read `local`. Inverse of LocalAt.
  SimTime PhysicalAt(SimTime local) const;

  // Signed error of this clock versus true time, local - physical.
  SimTime CurrentError() const { return LocalNow() - sim_->Now(); }

  // Schedules `fn` to run when this clock reads `local_time` — the primitive
  // used for "checkpoint at time t" scheduling.
  EventHandle ScheduleAtLocal(SimTime local_time, std::function<void()> fn);

  // Starts the periodic NTP discipline loop. Idempotent.
  void StartNtp();

  // Stops the discipline loop; the clock free-runs (and drifts) afterwards.
  void StopNtp();

  // Registers the local-time monotonicity audit under `name`: successive
  // LocalNow() reads must never go backwards, even across NTP slews and
  // checkpoint rebases.
  void RegisterInvariants(InvariantRegistry* reg, const std::string& name);

  // Error samples (in microseconds) recorded at each NTP poll, for
  // convergence analysis.
  const Samples& error_history() const { return error_history_; }

  const ClockParams& params() const { return params_; }

  // Checkpointable: the discipline state (offset, drift, slew, rebase anchor)
  // and the NTP rng round-trip; the poll event is re-armed at its saved
  // absolute deadline on restore.
  std::string checkpoint_id() const override { return "clock"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  void NtpPoll();

  // Folds drift accumulated so far into offset_ and re-anchors ref_ at now;
  // keeps LocalAt piecewise-linear and the inverse exact.
  void Rebase();

  Simulator* sim_;
  Rng rng_;
  ClockParams params_;
  double drift_ = 0.0;      // fractional frequency error (ppm * 1e-6)
  double slew_rate_ = 0.0;  // NTP correction rate, applied like extra drift
  SimTime offset_ = 0;      // phase error at ref_
  SimTime ref_ = 0;         // physical time of last rebase
  bool ntp_running_ = false;
  SimTime ntp_next_poll_ = 0;  // absolute physical time of the pending poll
  EventHandle ntp_event_;
  Samples error_history_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_CLOCK_HARDWARE_CLOCK_H_
