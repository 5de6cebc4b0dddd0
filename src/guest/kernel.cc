#include "src/guest/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcsim {

// --- BlockFrontend -----------------------------------------------------------

void BlockFrontend::Read(uint64_t block, uint32_t nblocks,
                         std::function<void(std::vector<uint64_t>)> done) {
  assert(!quiesced_ && "guest I/O submitted while device is quiesced");
  ++in_flight_;
  backend_->Read(block, nblocks,
                 [this, done = std::move(done)](std::vector<uint64_t> contents) mutable {
                   OnCompletion([done = std::move(done),
                                 contents = std::move(contents)]() mutable {
                     if (done) {
                       done(std::move(contents));
                     }
                   });
                 });
}

void BlockFrontend::Write(uint64_t block, const std::vector<uint64_t>& contents,
                          std::function<void()> done) {
  assert(!quiesced_ && "guest I/O submitted while device is quiesced");
  ++in_flight_;
  backend_->Write(block, contents, [this, done = std::move(done)]() mutable {
    OnCompletion(std::move(done));
  });
}

void BlockFrontend::OnCompletion(std::function<void()> deliver) {
  // The completion IRQ itself runs outside the firewall (kBlockIrqDrain):
  // it must, so in-flight requests can drain during a checkpoint.
  kernel_->NoteActivityRun(ActivityClass::kBlockIrqDrain);
  --in_flight_;
  if (kernel_->firewall().engaged()) {
    // The application-visible completion is inside-firewall work: defer it.
    if (deliver) {
      deferred_completions_.push_back(std::move(deliver));
    }
  } else if (deliver) {
    deliver();
  }
  if (quiescing_ && in_flight_ == 0) {
    quiescing_ = false;
    quiesced_ = true;
    if (drained_cb_) {
      auto cb = std::move(drained_cb_);
      cb();
    }
  }
}

void BlockFrontend::Quiesce(std::function<void()> drained) {
  if (in_flight_ == 0) {
    quiesced_ = true;
    if (drained) {
      drained();
    }
    return;
  }
  quiescing_ = true;
  drained_cb_ = std::move(drained);
}

void BlockFrontend::Unquiesce() {
  quiesced_ = false;
  std::deque<std::function<void()>> deferred;
  deferred.swap(deferred_completions_);
  for (auto& cb : deferred) {
    cb();
  }
}

// --- GuestKernel --------------------------------------------------------------

GuestKernel::GuestKernel(Simulator* sim, Domain* domain, std::string name)
    : sim_(sim), domain_(domain), name_(std::move(name)), cpu_(sim) {}

GuestKernel::~GuestKernel() {
  // Handles may outlive the kernel (their owners die after it); unlink them
  // so a late Cancel only sets the flag.
  for (auto& [id, timer] : timers_) {
    timer.state->host = nullptr;
  }
}

NetworkStack* GuestKernel::CreateNetworkStack(NodeId addr) {
  assert(net_ == nullptr);
  net_ = std::make_unique<NetworkStack>(sim_, this, addr);
  return net_.get();
}

void GuestKernel::AttachBlockDevice(BlockDevice* backend) {
  if (block_frontend_ == nullptr) {
    block_frontend_ = std::make_unique<BlockFrontend>(this, backend);
  } else {
    block_frontend_->set_backend(backend);
  }
}

void GuestKernel::RunCpu(SimTime work, std::function<void()> done) {
  cpu_.Run(work, [this, done = std::move(done)]() {
    Dispatch(ActivityClass::kUserThread, done);
  });
}

TimerHandle GuestKernel::ScheduleActivity(SimTime delay, ActivityClass cls,
                                          std::function<void()> fn) {
  assert(delay >= 0);
  return AddTimer(VirtualNow() + delay, cls, std::move(fn), /*arm=*/true);
}

TimerHandle GuestKernel::AddTimer(SimTime virtual_deadline, ActivityClass cls,
                                  std::function<void()> fn, bool arm) {
  const uint64_t id = next_timer_id_++;
  GuestTimer timer;
  timer.virtual_deadline = virtual_deadline;
  timer.cls = cls;
  timer.fn = std::move(fn);
  timer.state = std::make_shared<TimerState>();
  timer.state->host = this;
  timer.state->id = id;
  TimerHandle handle(timer.state);
  if (arm) {
    timer.sim_event = ScheduleAtVirtualDeadline(virtual_deadline, id);
  }
  timers_.emplace(id, std::move(timer));
  return handle;
}

void GuestKernel::CancelTimer(uint64_t id) {
  // Every path that lets go of a timer clears its link first, so a linked
  // handle always finds its timer here.
  auto it = timers_.find(id);
  assert(it != timers_.end());
  it->second.sim_event.Cancel();
  timers_.erase(it);
}

EventHandle GuestKernel::ScheduleAtVirtualDeadline(SimTime deadline, uint64_t id) {
  // One-shot timers are armed against the virtual clock: convert the virtual
  // deadline through the (possibly slewing) host clock so the wakeup lands
  // at-or-after the deadline, never before it.
  if (domain_->time_frozen()) {
    // Rare: a timer armed mid-checkpoint by outside-firewall code. Fire it
    // after its plain delay; the resume pass re-anchors inside timers.
    return sim_->Schedule(std::max<SimTime>(0, deadline - VirtualNow()),
                          [this, id] { FireTimer(id); });
  }
  const SimTime physical =
      domain_->host_clock()->PhysicalAt(domain_->LocalFromVirtual(deadline));
  return sim_->ScheduleAt(std::max(physical, sim_->Now()), [this, id] { FireTimer(id); });
}

void GuestKernel::FireTimer(uint64_t id) {
  // A timer armed while time was frozen gets a second event when the resume
  // pass re-arms it; whichever of the two fires second finds it gone.
  auto it = timers_.find(id);
  if (it == timers_.end()) {
    return;
  }
  GuestTimer& timer = it->second;
  if (!firewall_.MayRun(timer.cls)) {
    // The timer tick is suppressed inside the firewall; the job stays queued
    // with its virtual deadline and is rescheduled at resume.
    timer.deferred = true;
    return;
  }
  NoteActivityRun(timer.cls);
  timer.state->fired = true;
  timer.state->host = nullptr;
  auto fn = std::move(timer.fn);
  timers_.erase(it);
  fn();
}

void GuestKernel::Dispatch(ActivityClass cls, std::function<void()> fn) {
  if (!firewall_.MayRun(cls)) {
    deferred_dispatches_.emplace_back(cls, std::move(fn));
    return;
  }
  NoteActivityRun(cls);
  fn();
}

void GuestKernel::NoteActivityRun(ActivityClass cls) {
  ++activity_counter_;
  if (!RunsOutsideFirewall(cls)) {
    ++inside_activity_counter_;
  }
  if (firewall_.engaged()) {
    ++engaged_runs_[cls];
  }
}

uint64_t GuestKernel::activities_run_while_engaged(ActivityClass cls) const {
  auto it = engaged_runs_.find(cls);
  return it == engaged_runs_.end() ? 0 : it->second;
}

void GuestKernel::StopInsideActivities() {
  assert(!suspended_);
  suspended_ = true;
  firewall_.Engage();
  cpu_.Suspend();
  // Cancel the simulator events backing inside-firewall timers; virtual
  // deadlines are retained. (With time frozen, jiffies/xtime do not advance
  // and no timer job can become due.)
  for (auto& [id, timer] : timers_) {
    if (!RunsOutsideFirewall(timer.cls)) {
      timer.sim_event.Cancel();
    }
  }
}

void GuestKernel::ResumeInsideActivities() {
  assert(suspended_);
  suspended_ = false;
  firewall_.Disengage();

  // Reschedule frozen and deferred timers against the current virtual clock.
  // Transparent mode: virtual time did not advance, so every timer keeps its
  // full remaining delay. Baseline mode: virtual time jumped, so overdue
  // timers fire immediately (late, as the guest observes).
  const SimTime vnow = VirtualNow();
  for (auto& [id, timer] : timers_) {
    if (RunsOutsideFirewall(timer.cls) && !timer.deferred) {
      continue;  // kept running during the checkpoint
    }
    timer.deferred = false;
    SimTime deadline = std::max(timer.virtual_deadline, vnow);
    if (resume_timer_latency_ > 0) {
      // Bounded per-checkpoint resume-path latency; it does not accumulate.
      deadline += std::abs(static_cast<SimTime>(resume_latency_rng_.Normal(
          static_cast<double>(resume_timer_latency_),
          static_cast<double>(resume_timer_latency_) / 2.0)));
    }
    timer.sim_event = ScheduleAtVirtualDeadline(deadline, id);
  }

  cpu_.Resume();

  std::deque<std::pair<ActivityClass, std::function<void()>>> deferred;
  deferred.swap(deferred_dispatches_);
  for (auto& [cls, fn] : deferred) {
    Dispatch(cls, std::move(fn));
  }
}

TimerHandle GuestKernel::RestoreFrozenTimer(SimTime virtual_deadline,
                                            ActivityClass cls,
                                            std::function<void()> fn) {
  // No simulator event: the restored kernel is suspended, and the resume
  // pass schedules every frozen inside-firewall timer.
  return AddTimer(virtual_deadline, cls, std::move(fn), /*arm=*/false);
}

void GuestKernel::SaveState(ArchiveWriter* w) const {
  w->Write<uint8_t>(suspended_ ? 1 : 0);
  w->Write<uint8_t>(firewall_.engaged() ? 1 : 0);
  w->Write<uint64_t>(firewall_.deferred_count());
  w->Write<uint64_t>(next_timer_id_);
  w->Write<uint64_t>(activity_counter_);
  w->Write<uint64_t>(inside_activity_counter_);
  w->Write<uint64_t>(engaged_runs_.size());
  for (const auto& [cls, runs] : engaged_runs_) {
    w->Write<uint8_t>(static_cast<uint8_t>(cls));
    w->Write<uint64_t>(runs);
  }
  w->Write<SimTime>(resume_timer_latency_);
  resume_latency_rng_.Save(w);
  w->Write<uint8_t>(block_frontend_ != nullptr ? 1 : 0);
  if (block_frontend_ != nullptr) {
    w->Write<uint64_t>(block_frontend_->in_flight_);
    w->Write<uint8_t>(block_frontend_->quiescing_ ? 1 : 0);
    w->Write<uint8_t>(block_frontend_->quiesced_ ? 1 : 0);
  }
}

void GuestKernel::RestoreState(ArchiveReader& r) {
  suspended_ = r.Read<uint8_t>() != 0;
  const bool engaged = r.Read<uint8_t>() != 0;
  const uint64_t deferred = r.Read<uint64_t>();
  firewall_.RestoreForCheckpoint(engaged, deferred);
  next_timer_id_ = r.Read<uint64_t>();
  activity_counter_ = r.Read<uint64_t>();
  inside_activity_counter_ = r.Read<uint64_t>();
  engaged_runs_.clear();
  const uint64_t n_classes = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n_classes && r.ok(); ++i) {
    const auto cls = static_cast<ActivityClass>(r.Read<uint8_t>());
    engaged_runs_[cls] = r.Read<uint64_t>();
  }
  resume_timer_latency_ = r.Read<SimTime>();
  resume_latency_rng_.Restore(r);
  // The freshly built experiment booted its own timers and queues; every
  // entry is replaced by what the owners re-register during their restores.
  for (auto& [id, timer] : timers_) {
    timer.sim_event.Cancel();
    timer.state->host = nullptr;
  }
  timers_.clear();
  deferred_dispatches_.clear();
  if (r.Read<uint8_t>() != 0 && block_frontend_ != nullptr) {
    block_frontend_->in_flight_ = r.Read<uint64_t>();
    block_frontend_->quiescing_ = r.Read<uint8_t>() != 0;
    block_frontend_->quiesced_ = r.Read<uint8_t>() != 0;
    block_frontend_->deferred_completions_.clear();
    block_frontend_->drained_cb_ = nullptr;
  }
}

uint64_t GuestKernel::StateSizeBytes() const {
  uint64_t bytes = 4096;  // static kernel control state
  bytes += timers_.size() * 64;
  if (net_ != nullptr) {
    for (const TcpConnection* conn : net_->Connections()) {
      bytes += conn->StateSizeBytes();
    }
  }
  return bytes;
}

}  // namespace tcsim
