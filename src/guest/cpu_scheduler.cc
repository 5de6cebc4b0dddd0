#include "src/guest/cpu_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace tcsim {

void CpuScheduler::Run(SimTime work, std::function<void()> done) {
  assert(work >= 0);
  ChargeProgress();
  jobs_.push_back({work, std::move(done)});
  Reschedule();
}

void CpuScheduler::SetCapacity(double capacity) {
  assert(capacity > 0.0 && capacity <= 1.0);
  ChargeProgress();
  capacity_ = capacity;
  Reschedule();
}

void CpuScheduler::Suspend() {
  ChargeProgress();
  suspended_ = true;
  completion_event_.Cancel();
}

void CpuScheduler::Resume() {
  assert(suspended_);
  suspended_ = false;
  last_update_ = sim_->Now();
  Reschedule();
}

void CpuScheduler::ChargeProgress() {
  const SimTime now = sim_->Now();
  if (suspended_ || jobs_.empty()) {
    last_update_ = now;
    return;
  }
  const double per_job_rate = capacity_ / static_cast<double>(jobs_.size());
  const SimTime elapsed = now - last_update_;
  const SimTime progress = static_cast<SimTime>(per_job_rate * static_cast<double>(elapsed));
  for (Job& job : jobs_) {
    job.remaining = std::max<SimTime>(0, job.remaining - progress);
  }
  last_update_ = now;
}

void CpuScheduler::Reschedule() {
  completion_event_.Cancel();
  if (suspended_ || jobs_.empty()) {
    return;
  }
  const double per_job_rate = capacity_ / static_cast<double>(jobs_.size());
  SimTime min_remaining = jobs_.front().remaining;
  for (const Job& job : jobs_) {
    min_remaining = std::min(min_remaining, job.remaining);
  }
  const SimTime until_done = static_cast<SimTime>(
      std::ceil(static_cast<double>(min_remaining) / per_job_rate));
  completion_event_ = sim_->Schedule(until_done, [this] { OnCompletion(); });
}

std::vector<SimTime> CpuScheduler::JobRemainders() const {
  std::vector<SimTime> out;
  out.reserve(jobs_.size());
  for (const Job& job : jobs_) {
    out.push_back(job.remaining);
  }
  return out;
}

void CpuScheduler::SaveState(ArchiveWriter* w) const {
  w->Write<double>(capacity_);
  w->Write<uint8_t>(suspended_ ? 1 : 0);
  w->Write<SimTime>(last_update_);
}

void CpuScheduler::RestoreState(ArchiveReader& r) {
  capacity_ = r.Read<double>();
  suspended_ = r.Read<uint8_t>() != 0;
  last_update_ = r.Read<SimTime>();
  completion_event_.Cancel();
  jobs_.clear();
}

void CpuScheduler::OnCompletion() {
  ChargeProgress();
  // Complete every job that has (numerically) finished.
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->remaining <= 0) {
      auto done = std::move(it->done);
      it = jobs_.erase(it);
      if (done) {
        done();
      }
    } else {
      ++it;
    }
  }
  Reschedule();
}

}  // namespace tcsim
