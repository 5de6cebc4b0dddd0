// A paravirtualized Xen domain: virtual time, runstate, dirty memory.
//
// Xen exposes wall-clock time, system time and run-time state statistics to
// the guest through shared memory regions, which the guest interpolates with
// the hardware TSC (Section 4.2). To conceal a checkpoint, the paper (a)
// stops the hypervisor's time-page updates, (b) restricts the guest's TSC
// access, and (c) suspends runstate accounting; at resume, the accumulated
// downtime is folded into the virtual TSC offset so guest time is continuous.
// This class models exactly those mechanisms: VirtualNow() is the guest's
// gettimeofday; FreezeTime()/UnfreezeTime(compensate) implement the
// transparent and the baseline (non-compensated) behaviours.

#ifndef TCSIM_SRC_XEN_DOMAIN_H_
#define TCSIM_SRC_XEN_DOMAIN_H_

#include <cstdint>
#include <string>

#include "src/clock/hardware_clock.h"
#include "src/sim/checkpointable.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

// Static configuration of a domain.
struct DomainConfig {
  std::string name = "domU";
  uint64_t memory_bytes = 256ull * 1024 * 1024;  // paper's VM size

  // Rate at which the guest kernel dirties memory when otherwise idle
  // (page cache turnover, kernel housekeeping).
  uint64_t background_dirty_rate_bytes_per_sec = 2 * 1024 * 1024;
};

// Cumulative scheduler runstate statistics (the four states Xen reports).
struct RunstateCounters {
  SimTime running = 0;
  SimTime runnable = 0;
  SimTime blocked = 0;
  SimTime offline = 0;
};

class Domain : public Checkpointable {
 public:
  Domain(Simulator* sim, HardwareClock* host_clock, DomainConfig config);

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  const DomainConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }

  // --- Virtual time -----------------------------------------------------------

  // The guest's view of time: time-page value interpolated via the virtual
  // TSC. Continuous across transparent checkpoints; jumps across baseline
  // checkpoints.
  SimTime VirtualNow() const;

  bool time_frozen() const { return time_frozen_; }

  // Timestamp transduction helpers (Section 5.2): services at the experiment
  // boundary convert embedded protocol timestamps between the guest's
  // virtual time and actual (host) time.
  SimTime RealFromVirtual(SimTime v) const {
    return v + (host_clock_->LocalNow() - VirtualNow());
  }
  SimTime VirtualFromReal(SimTime r) const {
    return r - (host_clock_->LocalNow() - VirtualNow());
  }

  // Host-local time at which the (running) domain's virtual clock will read
  // `v` — the mapping guest timer hardware uses to arm one-shot timers so
  // they fire exactly at virtual deadlines.
  SimTime LocalFromVirtual(SimTime v) const { return v + virtual_offset_; }

  // Stops time-page updates and restricts TSC access (checkpoint entry).
  void FreezeTime();

  // Restarts time. With `compensate` (transparent mode) the downtime is
  // added to the virtual TSC offset, so VirtualNow continues from the frozen
  // value; without it (baseline) the guest observes the downtime as a jump.
  void UnfreezeTime(bool compensate);

  // --- Runstate accounting ----------------------------------------------------

  // Runstate counters as the *guest* sees them. While accounting is
  // suspended (during a checkpoint) the counters do not advance, concealing
  // the stolen time from guest scheduling decisions.
  RunstateCounters GuestVisibleRunstate() const;

  void SuspendRunstateAccounting();
  void ResumeRunstateAccounting();

  // Records that the physical CPU was taken from this domain (Dom0 work);
  // visible to the guest only while accounting is active.
  void ChargeStolenTime(SimTime amount);

  // --- Memory dirty-page tracking (drives live-checkpoint cost) ---------------

  // Marks `bytes` of guest memory dirty (apps and the kernel call this).
  void TouchMemory(uint64_t bytes);

  // Dirty bytes including background dirtying accrued since the last clear.
  uint64_t DirtyBytes() const;

  // Consumes `bytes` of the dirty set (a pre-copy round copied them).
  void ClearDirtyBytes(uint64_t bytes);

  uint64_t memory_bytes() const { return config_.memory_bytes; }

  HardwareClock* host_clock() { return host_clock_; }

  // Checkpointable: the time page (frozen flag, TSC offset, frozen value),
  // runstate counters and the raw dirty-tracking words. Raw fields are saved
  // — DirtyBytes() would fold background accrual in and mutate state.
  std::string checkpoint_id() const override { return "xen.domain"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  // Folds background dirtying into dirty_bytes_ up to now.
  void AccrueBackgroundDirtying() const;

  Simulator* sim_;
  HardwareClock* host_clock_;
  DomainConfig config_;

  bool time_frozen_ = false;
  SimTime virtual_offset_ = 0;   // host local time - guest virtual time
  SimTime frozen_virtual_ = 0;   // VirtualNow value while frozen

  bool runstate_active_ = true;
  RunstateCounters runstate_;
  mutable SimTime last_runstate_update_ = 0;

  mutable uint64_t dirty_bytes_ = 0;
  mutable SimTime last_dirty_accrual_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_XEN_DOMAIN_H_
