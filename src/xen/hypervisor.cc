#include "src/xen/hypervisor.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcsim {

Hypervisor::Hypervisor(Simulator* sim, HardwareClock* host_clock, std::string node_name)
    : sim_(sim), host_clock_(host_clock), node_name_(std::move(node_name)) {}

Domain* Hypervisor::CreateDomain(DomainConfig config) {
  assert(domain_ == nullptr && "one guest domain per node in this testbed model");
  domain_ = std::make_unique<Domain>(sim_, host_clock_, config);
  return domain_.get();
}

double Hypervisor::GuestCpuCapacity() const {
  return std::max(0.05, 1.0 - active_demand_);
}

void Hypervisor::RecomputeCapacity() {
  if (capacity_listener_) {
    capacity_listener_(GuestCpuCapacity());
  }
}

void Hypervisor::RunDom0Job(const std::string& name, double cpu_fraction, SimTime duration) {
  (void)name;
  ++dom0_jobs_run_;
  const uint64_t id = next_job_id_++;
  active_jobs_.push_back(Dom0Job{id, cpu_fraction, sim_->Now() + duration});
  active_demand_ += cpu_fraction;
  RecomputeCapacity();
  if (domain_ != nullptr) {
    domain_->ChargeStolenTime(
        static_cast<SimTime>(cpu_fraction * static_cast<double>(duration)));
  }
  sim_->Schedule(duration, [this, id] { FinishJob(id); });
}

void Hypervisor::FinishJob(uint64_t id) {
  for (auto it = active_jobs_.begin(); it != active_jobs_.end(); ++it) {
    if (it->id == id) {
      active_demand_ -= it->fraction;
      active_jobs_.erase(it);
      break;
    }
  }
  if (active_demand_ < 1e-12) {
    active_demand_ = 0.0;
  }
  RecomputeCapacity();
}

void Hypervisor::SaveState(ArchiveWriter* w) const {
  w->Write<double>(active_demand_);
  w->Write<uint64_t>(dom0_jobs_run_);
  w->Write<uint64_t>(next_job_id_);
  w->Write<uint64_t>(active_jobs_.size());
  for (const Dom0Job& job : active_jobs_) {
    w->Write<uint64_t>(job.id);
    w->Write<double>(job.fraction);
    w->Write<SimTime>(job.end_time);
  }
}

void Hypervisor::RestoreState(ArchiveReader& r) {
  active_demand_ = r.Read<double>();
  dom0_jobs_run_ = r.Read<uint64_t>();
  next_job_id_ = r.Read<uint64_t>();
  const uint64_t n = r.Read<uint64_t>();
  active_jobs_.clear();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    Dom0Job job;
    job.id = r.Read<uint64_t>();
    job.fraction = r.Read<double>();
    job.end_time = r.Read<SimTime>();
    if (!r.ok()) {
      break;
    }
    active_jobs_.push_back(job);
    // Re-arm only the job's retirement; its stolen-time charge already
    // happened on the timeline the image captured.
    sim_->ScheduleAt(job.end_time, [this, id = job.id] { FinishJob(id); });
  }
  RecomputeCapacity();
}

void LiveMemorySaver::PreCopy(std::function<void(uint64_t)> done) {
  last_image_bytes_ = 0;
  PreCopyRound(params_.precopy_rounds, std::move(done));
}

void LiveMemorySaver::PreCopyRound(int rounds_left, std::function<void(uint64_t)> done) {
  Domain* dom = hv_->domain();
  const uint64_t dirty = dom->DirtyBytes();
  if (rounds_left <= 0 || dirty == 0) {
    done(dirty);
    return;
  }
  const SimTime duration = static_cast<SimTime>(
      static_cast<double>(dirty) * 1e9 / static_cast<double>(params_.copy_rate_bytes_per_sec));
  hv_->RunDom0Job("ckpt-precopy", params_.precopy_cpu_fraction, duration);
  sim_->Schedule(duration, [this, dirty, rounds_left, done = std::move(done)]() mutable {
    // The copied pages leave the dirty set; pages re-dirtied while copying
    // (workload writes + background dirtying) remain for the next round.
    hv_->domain()->ClearDirtyBytes(dirty);
    last_image_bytes_ += dirty;
    PreCopyRound(rounds_left - 1, std::move(done));
  });
}

void LiveMemorySaver::StopCopy(uint64_t residual_bytes, std::function<void()> done) {
  const SimTime duration =
      static_cast<SimTime>(static_cast<double>(residual_bytes) * 1e9 /
                           static_cast<double>(params_.copy_rate_bytes_per_sec));
  last_image_bytes_ += residual_bytes;
  hv_->domain()->ClearDirtyBytes(residual_bytes);
  sim_->Schedule(duration, std::move(done));
}

void LiveMemorySaver::BackgroundWriteback(uint64_t image_bytes, std::function<void()> done) {
  const SimTime duration =
      static_cast<SimTime>(static_cast<double>(image_bytes) * 1e9 /
                           static_cast<double>(params_.writeback_rate_bytes_per_sec));
  hv_->RunDom0Job("ckpt-writeback", params_.writeback_cpu_fraction, duration);
  sim_->Schedule(duration, std::move(done));
}

}  // namespace tcsim
