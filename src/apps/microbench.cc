#include "src/apps/microbench.h"

#include <cmath>
#include <utility>

namespace tcsim {

void SleepLoopApp::Start(std::function<void()> done) {
  done_ = std::move(done);
  remaining_ = params_.iterations;
  last_wakeup_ = node_->kernel().GetTimeOfDay();
  Iterate();
}

void SleepLoopApp::Iterate() {
  if (remaining_ == 0) {
    wakeup_pending_ = false;
    if (done_) {
      done_();
    }
    return;
  }
  GuestKernel& kernel = node_->kernel();
  // usleep(): the kernel rounds the wakeup up to the next timer tick after
  // sleep expiry, then delivers with a small dispatch latency.
  const SimTime vnow = kernel.GetTimeOfDay();
  const SimTime expiry = vnow + params_.sleep;
  const SimTime tick = params_.timer_tick;
  const SimTime quantized = ((expiry / tick) + 1) * tick;
  // Wakeup dispatch is never instantaneous: floor the latency at 1 us.
  const SimTime jitter = std::max<SimTime>(
      kMicrosecond, std::abs(static_cast<SimTime>(rng_.Normal(
                        0.0, static_cast<double>(params_.dispatch_jitter)))));
  wakeup_pending_ = true;
  next_wakeup_vdeadline_ = quantized + jitter;
  kernel.Usleep(next_wakeup_vdeadline_ - vnow, [this] { OnWakeup(); });
}

void SleepLoopApp::OnWakeup() {
  wakeup_pending_ = false;
  const SimTime now = node_->kernel().GetTimeOfDay();
  const double iteration_ms = ToMilliseconds(now - last_wakeup_);
  iterations_ms_.Add(iteration_ms);
  trace_.Record(now, "iter", iteration_ms);
  last_wakeup_ = now;
  --remaining_;
  Iterate();
}

void SleepLoopApp::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(remaining_);
  w->Write<uint8_t>(wakeup_pending_ ? 1 : 0);
  w->Write<SimTime>(next_wakeup_vdeadline_);
  w->Write<SimTime>(last_wakeup_);
  rng_.Save(w);
}

void SleepLoopApp::RestoreState(ArchiveReader& r) {
  remaining_ = static_cast<size_t>(r.Read<uint64_t>());
  wakeup_pending_ = r.Read<uint8_t>() != 0;
  next_wakeup_vdeadline_ = r.Read<SimTime>();
  last_wakeup_ = r.Read<SimTime>();
  rng_.Restore(r);
  if (wakeup_pending_ && r.ok()) {
    node_->kernel().RestoreTimerAtVirtual(next_wakeup_vdeadline_,
                                          [this] { OnWakeup(); });
  }
}

void CpuLoopApp::Start(std::function<void()> done) {
  done_ = std::move(done);
  remaining_ = params_.iterations;
  Iterate();
}

void CpuLoopApp::Iterate() {
  if (remaining_ == 0) {
    job_active_ = false;
    if (done_) {
      done_();
    }
    return;
  }
  GuestKernel& kernel = node_->kernel();
  iter_start_v_ = kernel.GetTimeOfDay();
  kernel.TouchMemory(params_.touched_bytes_per_iteration);
  SubmitWork(params_.work);
}

void CpuLoopApp::SubmitWork(SimTime work) {
  job_active_ = true;
  node_->kernel().RunCpu(work, [this] { OnIterationDone(); });
}

void CpuLoopApp::OnIterationDone() {
  job_active_ = false;
  const SimTime now = node_->kernel().GetTimeOfDay();
  const double iteration_ms = ToMilliseconds(now - iter_start_v_);
  iterations_ms_.Add(iteration_ms);
  trace_.Record(now, "cpu-iter", iteration_ms);
  --remaining_;
  Iterate();
}

void CpuLoopApp::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(remaining_);
  w->Write<uint8_t>(job_active_ ? 1 : 0);
  w->Write<SimTime>(iter_start_v_);
  // Remaining work of the in-flight job, read back from the scheduler (the
  // completion closure itself never crosses the image boundary).
  SimTime job_remaining = 0;
  if (job_active_) {
    const std::vector<SimTime> jobs = node_->kernel().cpu().JobRemainders();
    if (!jobs.empty()) {
      job_remaining = jobs.front();
    }
  }
  w->Write<SimTime>(job_remaining);
}

void CpuLoopApp::RestoreState(ArchiveReader& r) {
  remaining_ = static_cast<size_t>(r.Read<uint64_t>());
  const bool job_active = r.Read<uint8_t>() != 0;
  iter_start_v_ = r.Read<SimTime>();
  const SimTime job_remaining = r.Read<SimTime>();
  if (!r.ok()) {
    return;
  }
  if (job_active) {
    // Re-submit the remainder; the suspended scheduler enqueues it and the
    // resume pass starts the clock.
    SubmitWork(job_remaining);
  } else {
    job_active_ = false;
  }
}

}  // namespace tcsim
