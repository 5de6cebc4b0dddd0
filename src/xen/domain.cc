#include "src/xen/domain.h"

#include <algorithm>

namespace tcsim {

Domain::Domain(Simulator* sim, HardwareClock* host_clock, DomainConfig config)
    : sim_(sim), host_clock_(host_clock), config_(config) {
  // Guest system time starts at zero at domain boot.
  virtual_offset_ = host_clock_->LocalNow();
  last_runstate_update_ = sim_->Now();
  last_dirty_accrual_ = sim_->Now();
}

SimTime Domain::VirtualNow() const {
  if (time_frozen_) {
    return frozen_virtual_;
  }
  return host_clock_->LocalNow() - virtual_offset_;
}

void Domain::FreezeTime() {
  if (time_frozen_) {
    return;
  }
  frozen_virtual_ = VirtualNow();
  time_frozen_ = true;
}

void Domain::UnfreezeTime(bool compensate) {
  if (!time_frozen_) {
    return;
  }
  time_frozen_ = false;
  if (compensate) {
    // Fold the downtime into the virtual TSC offset: guest time continues
    // seamlessly from the frozen value.
    virtual_offset_ = host_clock_->LocalNow() - frozen_virtual_;
  }
  // Without compensation the old offset stands and the guest observes the
  // downtime as a forward jump.
}

RunstateCounters Domain::GuestVisibleRunstate() const {
  if (runstate_active_) {
    const SimTime elapsed = sim_->Now() - last_runstate_update_;
    RunstateCounters out = runstate_;
    out.running += elapsed;
    return out;
  }
  return runstate_;
}

void Domain::SuspendRunstateAccounting() {
  if (!runstate_active_) {
    return;
  }
  runstate_.running += sim_->Now() - last_runstate_update_;
  runstate_active_ = false;
}

void Domain::ResumeRunstateAccounting() {
  if (runstate_active_) {
    return;
  }
  runstate_active_ = true;
  last_runstate_update_ = sim_->Now();
}

void Domain::ChargeStolenTime(SimTime amount) {
  if (!runstate_active_) {
    return;  // concealed during a checkpoint
  }
  runstate_.running += sim_->Now() - last_runstate_update_;
  last_runstate_update_ = sim_->Now();
  runstate_.running -= std::min(runstate_.running, amount);
  runstate_.runnable += amount;
}

void Domain::AccrueBackgroundDirtying() const {
  const SimTime elapsed = sim_->Now() - last_dirty_accrual_;
  last_dirty_accrual_ = sim_->Now();
  const uint64_t accrued = static_cast<uint64_t>(
      ToSeconds(elapsed) * static_cast<double>(config_.background_dirty_rate_bytes_per_sec));
  dirty_bytes_ = std::min(dirty_bytes_ + accrued, config_.memory_bytes);
}

void Domain::TouchMemory(uint64_t bytes) {
  AccrueBackgroundDirtying();
  dirty_bytes_ = std::min(dirty_bytes_ + bytes, config_.memory_bytes);
}

uint64_t Domain::DirtyBytes() const {
  AccrueBackgroundDirtying();
  return dirty_bytes_;
}

void Domain::ClearDirtyBytes(uint64_t bytes) {
  AccrueBackgroundDirtying();
  dirty_bytes_ -= std::min(dirty_bytes_, bytes);
}

void Domain::SaveState(ArchiveWriter* w) const {
  w->Write<uint8_t>(time_frozen_ ? 1 : 0);
  w->Write<SimTime>(virtual_offset_);
  w->Write<SimTime>(frozen_virtual_);
  w->Write<uint8_t>(runstate_active_ ? 1 : 0);
  w->Write<SimTime>(runstate_.running);
  w->Write<SimTime>(runstate_.runnable);
  w->Write<SimTime>(runstate_.blocked);
  w->Write<SimTime>(runstate_.offline);
  w->Write<SimTime>(last_runstate_update_);
  w->Write<uint64_t>(dirty_bytes_);
  w->Write<SimTime>(last_dirty_accrual_);
}

void Domain::RestoreState(ArchiveReader& r) {
  time_frozen_ = r.Read<uint8_t>() != 0;
  virtual_offset_ = r.Read<SimTime>();
  frozen_virtual_ = r.Read<SimTime>();
  runstate_active_ = r.Read<uint8_t>() != 0;
  runstate_.running = r.Read<SimTime>();
  runstate_.runnable = r.Read<SimTime>();
  runstate_.blocked = r.Read<SimTime>();
  runstate_.offline = r.Read<SimTime>();
  last_runstate_update_ = r.Read<SimTime>();
  dirty_bytes_ = r.Read<uint64_t>();
  last_dirty_accrual_ = r.Read<SimTime>();
}

}  // namespace tcsim
