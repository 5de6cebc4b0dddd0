#include "src/timetravel/basic_run.h"

namespace tcsim {

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

// --- BasicExperimentRun -------------------------------------------------------

BasicExperimentRun::BasicExperimentRun(Params params)
    : params_(params), workload_rng_(params.seed) {
  NodeConfig cfg;
  cfg.name = "tt-node";
  cfg.id = 1;
  cfg.domain.memory_bytes = 128ull * 1024 * 1024;
  node_ = std::make_unique<ExperimentNode>(&sim_, Rng(params_.seed ^ 0xABCD), cfg);
  CheckpointPolicy policy;
  policy.resume_timer_latency = 0;  // digests must be reproducible
  engine_ = std::make_unique<LocalCheckpointEngine>(&sim_, node_.get(), policy);
  engine_->AddCheckpointable(this);  // workload progress rides in the image
  Tick();
}

void BasicExperimentRun::Tick() {
  const SimTime delay = static_cast<SimTime>(
      workload_rng_.Exponential(static_cast<double>(params_.mean_tick))) + kMicrosecond;
  next_tick_vdeadline_ = node_->kernel().GetTimeOfDay() + delay;
  node_->kernel().Usleep(delay, [this] { TickBody(); });
}

void BasicExperimentRun::TickBody() {
  ++counter_;
  node_->kernel().TouchMemory(64 * 1024);
  std::vector<uint64_t> contents(params_.blocks_per_tick, counter_);
  ++writes_issued_;
  node_->kernel().block().Write(next_block_, contents, [this] {
    ++io_completions_;
  });
  next_block_ += params_.blocks_per_tick;
  Tick();
}

uint64_t BasicExperimentRun::StateDigest() const {
  uint64_t h = 0xCBF29CE484222325ull;
  h = HashCombine(h, counter_);
  h = HashCombine(h, next_block_);
  h = HashCombine(h, writes_issued_);
  h = HashCombine(h, io_completions_);
  h = HashCombine(h, static_cast<uint64_t>(node_->domain().VirtualNow()));
  h = HashCombine(h, node_->store().current_delta_blocks());
  return h;
}

void BasicExperimentRun::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(counter_);
  w->Write<uint64_t>(next_block_);
  w->Write<uint64_t>(writes_issued_);
  w->Write<uint64_t>(io_completions_);
  w->Write<SimTime>(next_tick_vdeadline_);
  workload_rng_.Save(w);
}

void BasicExperimentRun::RestoreState(ArchiveReader& r) {
  counter_ = r.Read<uint64_t>();
  next_block_ = r.Read<uint64_t>();
  writes_issued_ = r.Read<uint64_t>();
  io_completions_ = r.Read<uint64_t>();
  next_tick_vdeadline_ = r.Read<SimTime>();
  workload_rng_.Restore(r);
  if (!r.ok()) {
    return;
  }
  // The tick chain is always armed; re-create it as a frozen guest timer at
  // its saved virtual deadline (the kernel's resume pass arms it).
  node_->kernel().RestoreTimerAtVirtual(next_tick_vdeadline_, [this] { TickBody(); });
  // Completion callbacks for writes that were deferred behind the firewall
  // at capture; Unquiesce() delivers them at resume.
  for (uint64_t i = io_completions_; i < writes_issued_; ++i) {
    node_->kernel().block().RestoreDeferredCompletion([this] { ++io_completions_; });
  }
}

CheckpointCapture BasicExperimentRun::CaptureCheckpoint() {
  CheckpointCapture cap;
  bool done = false;
  engine_->CheckpointNow([&](const LocalCheckpointRecord& rec) {
    // This fires at the end of the atomic resume, at the saved instant —
    // the same instant a restored run's post-resume digest measures.
    cap.image_bytes = rec.image_bytes;
    cap.captured_at = rec.saved_at;
    cap.digest = StateDigest();
    cap.image = engine_->last_image();
    done = true;
  });
  // Drive the run forward until the checkpoint completes (bounded).
  const SimTime deadline = sim_.Now() + 60 * kSecond;
  while (!done && sim_.Now() < deadline) {
    sim_.RunUntil(sim_.Now() + 10 * kMillisecond);
  }
  return cap;
}

std::optional<uint64_t> BasicExperimentRun::RestoreFromImage(
    const std::vector<uint8_t>& image_bytes) {
  if (!engine_->RestoreImage(image_bytes)) {
    return std::nullopt;
  }
  engine_->ResumeRestored();
  return StateDigest();
}

void BasicExperimentRun::Perturb(uint64_t seed) {
  if (seed == 0) {
    return;
  }
  // Relaxed-determinism replay: reseed the workload's randomness from the
  // branch point on (the "non-determinism knob" of Section 6).
  workload_rng_ = Rng(seed);
}

// --- CpuExperimentRun ---------------------------------------------------------

CpuExperimentRun::CpuExperimentRun(Params params)
    : params_(params), workload_rng_(params.seed) {
  NodeConfig cfg;
  cfg.name = "tt-cpu-node";
  cfg.id = 1;
  cfg.domain.memory_bytes = 128ull * 1024 * 1024;
  node_ = std::make_unique<ExperimentNode>(&sim_, Rng(params_.seed ^ 0xC4D7), cfg);
  CheckpointPolicy policy;
  policy.resume_timer_latency = 0;
  engine_ = std::make_unique<LocalCheckpointEngine>(&sim_, node_.get(), policy);
  engine_->AddCheckpointable(this);
  StartBurst();
}

void CpuExperimentRun::StartBurst() {
  const SimTime work = static_cast<SimTime>(workload_rng_.Exponential(
                           static_cast<double>(params_.mean_burst))) +
                       kMicrosecond;
  node_->kernel().TouchMemory(params_.touched_bytes);
  SubmitBurst(work);
}

void CpuExperimentRun::SubmitBurst(SimTime work) {
  burst_active_ = true;
  node_->kernel().RunCpu(work, [this] { OnBurstDone(); });
}

void CpuExperimentRun::OnBurstDone() {
  burst_active_ = false;
  ++iterations_;
  const SimTime gap = static_cast<SimTime>(workload_rng_.Exponential(
                          static_cast<double>(params_.mean_gap))) +
                      kMicrosecond;
  next_burst_vdeadline_ = node_->kernel().GetTimeOfDay() + gap;
  node_->kernel().Usleep(gap, [this] { StartBurst(); });
}

uint64_t CpuExperimentRun::StateDigest() const {
  uint64_t h = 0xCBF29CE484222325ull;
  h = HashCombine(h, iterations_);
  h = HashCombine(h, burst_active_ ? 1u : 0u);
  h = HashCombine(h, static_cast<uint64_t>(next_burst_vdeadline_));
  h = HashCombine(h, static_cast<uint64_t>(node_->domain().VirtualNow()));
  SimTime queued = 0;
  for (SimTime rem : node_->kernel().cpu().JobRemainders()) {
    queued += rem;
  }
  h = HashCombine(h, static_cast<uint64_t>(queued));
  return h;
}

void CpuExperimentRun::SaveState(ArchiveWriter* w) const {
  w->Write<uint64_t>(iterations_);
  w->Write<uint8_t>(burst_active_ ? 1 : 0);
  w->Write<SimTime>(next_burst_vdeadline_);
  // Remaining work of the in-flight burst, read back from the scheduler
  // (the burst is this node's only CPU job; its closure never crosses the
  // image boundary).
  SimTime burst_remaining = 0;
  if (burst_active_) {
    const std::vector<SimTime> jobs = node_->kernel().cpu().JobRemainders();
    if (!jobs.empty()) {
      burst_remaining = jobs.front();
    }
  }
  w->Write<SimTime>(burst_remaining);
  workload_rng_.Save(w);
}

void CpuExperimentRun::RestoreState(ArchiveReader& r) {
  iterations_ = r.Read<uint64_t>();
  const bool burst_active = r.Read<uint8_t>() != 0;
  next_burst_vdeadline_ = r.Read<SimTime>();
  const SimTime burst_remaining = r.Read<SimTime>();
  workload_rng_.Restore(r);
  if (!r.ok()) {
    return;
  }
  if (burst_active) {
    // The suspended scheduler enqueues the remainder; resume starts it.
    SubmitBurst(burst_remaining);
  } else {
    burst_active_ = false;
    node_->kernel().RestoreTimerAtVirtual(next_burst_vdeadline_,
                                          [this] { StartBurst(); });
  }
}

CheckpointCapture CpuExperimentRun::CaptureCheckpoint() {
  CheckpointCapture cap;
  bool done = false;
  engine_->CheckpointNow([&](const LocalCheckpointRecord& rec) {
    cap.image_bytes = rec.image_bytes;
    cap.captured_at = rec.saved_at;
    cap.digest = StateDigest();
    cap.image = engine_->last_image();
    done = true;
  });
  const SimTime deadline = sim_.Now() + 60 * kSecond;
  while (!done && sim_.Now() < deadline) {
    sim_.RunUntil(sim_.Now() + 10 * kMillisecond);
  }
  return cap;
}

std::optional<uint64_t> CpuExperimentRun::RestoreFromImage(
    const std::vector<uint8_t>& image_bytes) {
  if (!engine_->RestoreImage(image_bytes)) {
    return std::nullopt;
  }
  engine_->ResumeRestored();
  return StateDigest();
}

void CpuExperimentRun::Perturb(uint64_t seed) {
  if (seed == 0) {
    return;
  }
  workload_rng_ = Rng(seed);
}

}  // namespace tcsim
