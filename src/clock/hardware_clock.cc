#include "src/clock/hardware_clock.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace tcsim {

HardwareClock::HardwareClock(Simulator* sim, Rng rng, ClockParams params)
    : sim_(sim), rng_(rng), params_(params) {
  drift_ = params_.drift_ppm * 1e-6;
  offset_ = params_.initial_offset;
  if (params_.initial_offset_jitter > 0) {
    offset_ += static_cast<SimTime>(
        rng_.Uniform(-static_cast<double>(params_.initial_offset_jitter),
                     static_cast<double>(params_.initial_offset_jitter)));
  }
  ref_ = sim_->Now();
}

SimTime HardwareClock::LocalAt(SimTime phys) const {
  const double elapsed = static_cast<double>(phys - ref_);
  // A runaway discipline loop (an absurd NTP gain) can push the reading past
  // the SimTime range; pin it at the edge instead of overflowing. Readings
  // in range are unchanged.
  constexpr double kBelow2To63 = 0x1.fffffffffffffp62;  // largest double < 2^63
  const double slewed =
      std::clamp((drift_ + slew_rate_) * elapsed, -0x1p63, kBelow2To63);
  const auto add = [](SimTime a, SimTime b) {
    SimTime sum = 0;
    if (!__builtin_add_overflow(a, b, &sum)) {
      return sum;
    }
    return b > 0 ? std::numeric_limits<SimTime>::max()
                 : std::numeric_limits<SimTime>::min();
  };
  return add(add(phys, offset_), static_cast<SimTime>(slewed));
}

SimTime HardwareClock::PhysicalAt(SimTime local) const {
  // local = phys + offset + rate * (phys - ref)
  //       = phys * (1 + rate) + offset - rate * ref
  const double rate = drift_ + slew_rate_;
  const double phys =
      (static_cast<double>(local - offset_) + rate * static_cast<double>(ref_)) /
      (1.0 + rate);
  return static_cast<SimTime>(std::llround(phys));
}

EventHandle HardwareClock::ScheduleAtLocal(SimTime local_time, std::function<void()> fn) {
  return sim_->ScheduleAt(PhysicalAt(local_time), std::move(fn));
}

void HardwareClock::Rebase() {
  const SimTime now = sim_->Now();
  offset_ = LocalAt(now) - now;
  ref_ = now;
}

void HardwareClock::StartNtp() {
  if (ntp_running_) {
    return;
  }
  ntp_running_ = true;
  ntp_next_poll_ = sim_->Now() + params_.ntp_poll_interval;
  ntp_event_ = sim_->Schedule(params_.ntp_poll_interval, [this] { NtpPoll(); });
}

void HardwareClock::StopNtp() {
  if (!ntp_running_) {
    return;
  }
  ntp_running_ = false;
  ntp_event_.Cancel();
  // The slew is a *temporary* rate correction whose lifetime is one poll
  // interval; with the discipline loop stopped nothing would ever retire it,
  // and the clock would keep slewing forever (e.g. across a stateful
  // swap-out). Fold the correction applied so far into the offset and
  // free-run on oscillator drift alone.
  Rebase();
  slew_rate_ = 0.0;
}

void HardwareClock::RegisterInvariants(InvariantRegistry* reg,
                                       const std::string& name) {
  RegisterMonotonicAudit(reg, name, [this] { return LocalNow(); });
}

void HardwareClock::NtpPoll() {
  if (!ntp_running_) {
    return;
  }
  Rebase();
  // A single NTP exchange observes the true offset plus sampling noise from
  // network and interrupt jitter on the control LAN. The correction is
  // applied as a *slew* — a temporary rate adjustment spread over the next
  // poll interval — never as a step, so local time stays monotone (adjtime
  // semantics). Overlaid virtual clocks therefore never jump.
  const SimTime measured =
      offset_ + static_cast<SimTime>(rng_.Normal(0.0, static_cast<double>(params_.ntp_jitter)));
  slew_rate_ = -params_.ntp_gain * static_cast<double>(measured) /
               static_cast<double>(params_.ntp_poll_interval);
  error_history_.Add(ToMicroseconds(CurrentError()));
  ntp_next_poll_ = sim_->Now() + params_.ntp_poll_interval;
  ntp_event_ = sim_->Schedule(params_.ntp_poll_interval, [this] { NtpPoll(); });
}

void HardwareClock::SaveState(ArchiveWriter* w) const {
  w->Write<double>(drift_);
  w->Write<double>(slew_rate_);
  w->Write<SimTime>(offset_);
  w->Write<SimTime>(ref_);
  w->Write<uint8_t>(ntp_running_ ? 1 : 0);
  w->Write<SimTime>(ntp_next_poll_);
  rng_.Save(w);
}

void HardwareClock::RestoreState(ArchiveReader& r) {
  drift_ = r.Read<double>();
  slew_rate_ = r.Read<double>();
  offset_ = r.Read<SimTime>();
  ref_ = r.Read<SimTime>();
  ntp_running_ = r.Read<uint8_t>() != 0;
  ntp_next_poll_ = r.Read<SimTime>();
  rng_.Restore(r);
  ntp_event_.Cancel();
  if (ntp_running_ && r.ok()) {
    // Re-arm the discipline loop at its saved absolute deadline so the
    // restored timeline polls (and draws jitter) at the instants the
    // original would have.
    ntp_event_ = sim_->ScheduleAt(ntp_next_poll_, [this] { NtpPoll(); });
  }
}

}  // namespace tcsim
