#include "src/checkpoint/local_checkpoint.h"

#include <cassert>
#include <chrono>
#include <utility>

namespace tcsim {

namespace {

// Wall-clock microseconds between two steady_clock samples. The frozen
// histogram measures real work done at one simulated instant, so sim-time is
// useless here — this is the one place the engine reads the host clock.
double WallMicros(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

LocalCheckpointEngine::LocalCheckpointEngine(Simulator* sim, ExperimentNode* node,
                                             CheckpointPolicy policy)
    : sim_(sim),
      node_(node),
      policy_(policy),
      saver_(sim, &node->hypervisor(), policy.saver),
      rng_(0x9E3779B9u ^ node->id()),
      captures_counter_(
          obs::MetricsRegistry::Global().FindCounter("checkpoint.engine.captures")),
      restores_counter_(
          obs::MetricsRegistry::Global().FindCounter("checkpoint.engine.restores")),
      image_bytes_counter_(
          obs::MetricsRegistry::Global().FindCounter("checkpoint.engine.image_bytes")),
      serialized_bytes_counter_(obs::MetricsRegistry::Global().FindCounter(
          "checkpoint.engine.serialized_bytes")),
      frozen_wall_us_hist_(obs::MetricsRegistry::Global().FindHistogram(
          "checkpoint.engine.frozen_us")) {
  node_->kernel().SetResumeTimerLatency(policy_.resume_timer_latency,
                                        0xC0FFEEull ^ node->id());
}

void LocalCheckpointEngine::CheckpointNow(
    std::function<void(const LocalCheckpointRecord&)> done) {
  assert(!in_progress_);
  in_progress_ = true;
  hold_after_save_ = false;
  saved_cb_ = std::move(done);
  current_ = LocalCheckpointRecord{};
  current_.participant = node_->name();
  current_.request_time = sim_->Now();
  BeginPreCopy(/*suspend_at_physical=*/-1);
}

void LocalCheckpointEngine::CheckpointAtLocal(
    SimTime local_time, std::function<void(const LocalCheckpointRecord&)> saved) {
  assert(!in_progress_);
  in_progress_ = true;
  hold_after_save_ = true;
  saved_cb_ = std::move(saved);
  current_ = LocalCheckpointRecord{};
  current_.participant = node_->name();
  current_.request_time = sim_->Now();
  BeginPreCopy(node_->clock().PhysicalAt(local_time));
}

void LocalCheckpointEngine::BeginPreCopy(SimTime suspend_at_physical) {
  precopy_span_ =
      obs::TraceSession::Global().BeginSpan(node_->name(), "ckpt.precopy", sim_->Now());
  if (policy_.live_precopy) {
    // For a scheduled checkpoint the suspend event fires at the appointed
    // instant; pre-copy merely shrinks the dirty set before it.
    saver_.PreCopy([this, suspend_at_physical](uint64_t /*residual*/) {
      if (suspend_at_physical < 0) {
        AtomicSuspend();
      }
    });
    if (suspend_at_physical >= 0) {
      sim_->ScheduleAt(suspend_at_physical, [this] { AtomicSuspend(); });
    }
    return;
  }
  // Non-live baseline: the whole dirty set is stop-copied during downtime.
  saver_.ResetImage();
  if (suspend_at_physical >= 0) {
    sim_->ScheduleAt(suspend_at_physical, [this] { AtomicSuspend(); });
  } else {
    AtomicSuspend();
  }
}

void LocalCheckpointEngine::AtomicSuspend() {
  assert(in_progress_);
  current_.suspended_at = sim_->Now();

  obs::TraceSession& trace = obs::TraceSession::Global();
  trace.EndSpan(precopy_span_, sim_->Now());
  precopy_span_ = 0;
  frozen_span_ = trace.BeginSpan(node_->name(), "ckpt.frozen", sim_->Now());
  save_span_ = trace.BeginSpan(node_->name(), "ckpt.save", sim_->Now());

  // The instant the suspend thread (outside the firewall) commits the
  // suspension: every inside activity stops, the time page freezes, the TSC
  // is restricted, runstate accounting pauses, and the NICs begin logging.
  node_->kernel().StopInsideActivities();
  if (policy_.transparent_time) {
    node_->domain().FreezeTime();
  }
  node_->domain().SuspendRunstateAccounting();
  node_->experimental_nic()->Suspend();
  node_->control_nic()->Suspend();

  residual_dirty_ = node_->domain().DirtyBytes();
  DrainAndSave();
}

void LocalCheckpointEngine::DrainAndSave() {
  // Block IRQ handlers run outside the firewall so queued disk requests can
  // complete before device connections are torn down.
  node_->kernel().block().Quiesce([this] {
    saver_.StopCopy(residual_dirty_, [this] {
      sim_->Schedule(policy_.device_serialize_time, [this] { OnStateSaved(); });
    });
  });
}

const std::vector<Checkpointable*>& LocalCheckpointEngine::Components() {
  if (!components_built_) {
    components_built_ = true;
    node_->AppendCheckpointables(&components_);
    components_.insert(components_.end(), extra_components_.begin(),
                       extra_components_.end());
    extra_components_.clear();
  }
  return components_;
}

void LocalCheckpointEngine::AddCheckpointable(Checkpointable* component) {
  if (components_built_) {
    components_.push_back(component);
  } else {
    extra_components_.push_back(component);
  }
}

void LocalCheckpointEngine::Capture() {
  staged_.Reset();

  // All bytes land back to back in one pinned buffer; after the first few
  // captures its capacity covers the steady state and staging performs no
  // allocation for payload bytes.
  //
  // Engine metadata first: the saved instant plus the record and accounting
  // a restore target needs to continue exactly where the original paused.
  ArchiveWriter w(std::move(staged_.buffer));
  StagedEntry meta;
  meta.id = "sim.time";
  meta.offset = w.size();
  w.Write<SimTime>(current_.saved_at);
  w.Write<SimTime>(current_.request_time);
  w.Write<SimTime>(current_.suspended_at);
  w.Write<uint64_t>(current_.image_bytes);
  w.Write<uint64_t>(residual_dirty_);
  w.Write<uint64_t>(saver_.last_image_bytes());
  rng_.Save(&w);
  meta.size = w.size() - meta.offset;
  staged_.entries.push_back(std::move(meta));
  staged_.buffer = w.Take();

  StageComponents(Components(), &staged_);
  const size_t staged_bytes = staged_.buffer.size();
  last_image_ =
      std::make_shared<const std::vector<uint8_t>>(SerializeStagedImage(staged_));
  const size_t serialized_bytes = last_image_->size();

  captures_counter_->Increment();
  serialized_bytes_counter_->Add(serialized_bytes);
  obs::TraceSession::Global().Instant(
      node_->name(), "ckpt.capture", sim_->Now(),
      {{"staged_bytes", static_cast<double>(staged_bytes)},
       {"serialized_bytes", static_cast<double>(serialized_bytes)}});
}

bool LocalCheckpointEngine::RestoreImage(const std::vector<uint8_t>& image_bytes) {
  assert(!in_progress_);
  CheckpointImageView view(image_bytes);
  if (!view.ok() || !view.HasChunk("sim.time")) {
    return false;
  }
  ArchiveReader meta(view.Chunk("sim.time"));
  const SimTime saved_at = meta.Read<SimTime>();
  const SimTime request_time = meta.Read<SimTime>();
  const SimTime suspended_at = meta.Read<SimTime>();
  const uint64_t recorded_image_bytes = meta.Read<uint64_t>();
  const uint64_t residual = meta.Read<uint64_t>();
  const uint64_t saver_bytes = meta.Read<uint64_t>();
  if (!meta.ok()) {
    return false;
  }

  // Rewind: every event the freshly booted experiment scheduled is dropped;
  // components re-arm their own events (at absolute saved deadlines) as
  // they restore, and the resume pass arms the frozen guest timers.
  sim_->ResetForRestore(saved_at);
  for (Checkpointable* component : Components()) {
    view.RestoreInto(*component);
  }
  rng_.Restore(meta);

  current_ = LocalCheckpointRecord{};
  current_.participant = node_->name();
  current_.request_time = request_time;
  current_.suspended_at = suspended_at;
  current_.saved_at = saved_at;
  current_.image_bytes = recorded_image_bytes;
  residual_dirty_ = residual;
  saver_.RestoreImageBytes(saver_bytes);
  last_image_ = std::make_shared<const std::vector<uint8_t>>(image_bytes);

  in_progress_ = true;
  hold_after_save_ = true;  // a restored run has no saved-callback to fire
  held_ = true;
  saved_cb_ = nullptr;
  restores_counter_->Increment();
  obs::TraceSession& trace = obs::TraceSession::Global();
  trace.Instant(node_->name(), "ckpt.restore_image", saved_at,
                {{"bytes", static_cast<double>(image_bytes.size())}});
  // The restored run sits frozen from the saved instant until ResumeRestored.
  frozen_span_ = trace.BeginSpan(node_->name(), "ckpt.frozen", saved_at);
  return true;
}

void LocalCheckpointEngine::ResumeRestored() { ResumeNow(); }

void LocalCheckpointEngine::OnStateSaved() {
  current_.saved_at = sim_->Now();
  current_.image_bytes = saver_.last_image_bytes() + node_->kernel().StateSizeBytes();
  image_bytes_counter_->Add(current_.image_bytes);
  obs::TraceSession& trace = obs::TraceSession::Global();
  trace.AddSpanArg(save_span_, "image_bytes", static_cast<double>(current_.image_bytes));
  trace.AddSpanArg(save_span_, "residual_dirty", static_cast<double>(residual_dirty_));
  trace.EndSpan(save_span_, sim_->Now());
  save_span_ = 0;
  // Capture point: inside the suspended window, after the memory image is
  // saved and before any resume.
  const auto t0 = std::chrono::steady_clock::now();
  Capture();
  frozen_wall_us_hist_->Observe(WallMicros(t0, std::chrono::steady_clock::now()));
  if (hold_after_save_) {
    held_ = true;
    if (saved_cb_) {
      auto cb = std::move(saved_cb_);
      saved_cb_ = nullptr;
      cb(current_);
    }
    return;
  }
  AtomicResume();
}

void LocalCheckpointEngine::ResumeAtLocal(SimTime local_time) {
  node_->clock().ScheduleAtLocal(local_time, [this] { ResumeNow(); });
}

void LocalCheckpointEngine::ResumeNow() {
  assert(held_);
  held_ = false;
  AtomicResume();
}

void LocalCheckpointEngine::AtomicResume() {
  // Mirror image of AtomicSuspend. With transparent time the virtual TSC is
  // compensated by exactly the downtime; otherwise the guest sees the jump.
  node_->domain().UnfreezeTime(/*compensate=*/policy_.transparent_time);
  node_->domain().ResumeRunstateAccounting();
  node_->kernel().ResumeInsideActivities();
  node_->kernel().block().Unquiesce();
  node_->experimental_nic()->Resume();
  node_->control_nic()->Resume();

  current_.resumed_at = sim_->Now();
  history_.push_back(current_);
  in_progress_ = false;
  obs::TraceSession::Global().EndSpan(frozen_span_, sim_->Now());
  frozen_span_ = 0;

  // Flush the captured image to the snapshot disk in the background; the
  // Dom0 CPU and disk activity is the post-checkpoint perturbation the
  // paper observes in Figures 5 and 6.
  saver_.BackgroundWriteback(current_.image_bytes, nullptr);

  if (!hold_after_save_ && saved_cb_) {
    // Consume the callback (the pattern FinishRound uses): a stale callback
    // left behind here could be re-fired into a dead frame by a later misuse
    // of the engine.
    auto cb = std::move(saved_cb_);
    saved_cb_ = nullptr;
    cb(history_.back());
  }
}

}  // namespace tcsim
