// The paravirtualized guest kernel model.
//
// Provides the execution surface applications run on — virtual-time clocks
// and timers (gettimeofday/usleep), a CPU scheduler, a network stack whose
// protocol timers run on virtual time, and a block-device frontend — and the
// suspend/resume protocol the checkpoint engine drives. Every activity
// dispatch consults the temporal firewall, mirroring the paper's
// modifications to schedule(), the IRQ and soft-IRQ dispatchers, and the
// timer tick.

#ifndef TCSIM_SRC_GUEST_KERNEL_H_
#define TCSIM_SRC_GUEST_KERNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/guest/cpu_scheduler.h"
#include "src/guest/firewall.h"
#include "src/net/stack.h"
#include "src/net/timer_host.h"
#include "src/sim/checkpointable.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"
#include "src/xen/domain.h"

namespace tcsim {

class GuestKernel;

// Guest-side block device: counts in-flight requests so the checkpoint can
// drain them (the block IRQ handlers run outside the firewall for exactly
// this purpose), and defers application completion callbacks that would
// otherwise run inside the firewall during a checkpoint.
class BlockFrontend : public BlockDevice {
 public:
  BlockFrontend(GuestKernel* kernel, BlockDevice* backend)
      : kernel_(kernel), backend_(backend) {}

  void Read(uint64_t block, uint32_t nblocks,
            std::function<void(std::vector<uint64_t>)> done) override;
  void Write(uint64_t block, const std::vector<uint64_t>& contents,
             std::function<void()> done) override;
  uint64_t size_blocks() const override { return backend_->size_blocks(); }

  // Waits for all in-flight requests to complete (device quiesce step of the
  // local checkpoint), then fires `drained`.
  void Quiesce(std::function<void()> drained);

  // Reopens the device and delivers completion callbacks deferred during the
  // suspension.
  void Unquiesce();

  uint64_t in_flight() const { return in_flight_; }
  bool quiesced() const { return quiesced_; }

  void set_backend(BlockDevice* backend) { backend_ = backend; }

  // Re-registers a completion callback that was deferred behind the firewall
  // when the image was captured. Owners call this during restore (deferred
  // closures are not serialized); Unquiesce() delivers them at resume.
  void RestoreDeferredCompletion(std::function<void()> deliver) {
    deferred_completions_.push_back(std::move(deliver));
  }

 private:
  friend class GuestKernel;
  void OnCompletion(std::function<void()> deliver);

  GuestKernel* kernel_;
  BlockDevice* backend_;
  uint64_t in_flight_ = 0;
  bool quiescing_ = false;
  bool quiesced_ = false;
  std::function<void()> drained_cb_;
  std::deque<std::function<void()>> deferred_completions_;
};

class GuestKernel : public TimerHost, public Checkpointable {
 public:
  GuestKernel(Simulator* sim, Domain* domain, std::string name);
  ~GuestKernel() override;

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  const std::string& name() const { return name_; }
  Domain* domain() { return domain_; }
  Simulator* sim() { return sim_; }

  // --- Syscall surface for applications --------------------------------------

  // gettimeofday(): the guest's (virtualized) wall-clock time.
  SimTime GetTimeOfDay() const { return domain_->VirtualNow(); }

  // usleep()-style timer (a kTimer activity inside the firewall).
  TimerHandle Usleep(SimTime delay, std::function<void()> fn) {
    return ScheduleActivity(delay, ActivityClass::kTimer, std::move(fn));
  }

  // Runs `work` of CPU-bound computation, then `done` (a user thread).
  void RunCpu(SimTime work, std::function<void()> done);

  // Marks guest memory dirty (workloads call this to drive checkpoint cost).
  void TouchMemory(uint64_t bytes) { domain_->TouchMemory(bytes); }

  // Creates the node's network stack (TCP timers run on this kernel's
  // virtual time). Inbound packets are dispatched as soft-IRQ activity.
  NetworkStack* CreateNetworkStack(NodeId addr);

  NetworkStack& net() { return *net_; }
  BlockFrontend& block() { return *block_frontend_; }
  CpuScheduler& cpu() { return cpu_; }
  TemporalFirewall& firewall() { return firewall_; }

  // Attaches the block backend (the node's logical disk).
  void AttachBlockDevice(BlockDevice* backend);

  // --- TimerHost ---------------------------------------------------------------

  SimTime VirtualNow() const override { return domain_->VirtualNow(); }

  TimerHandle ScheduleVirtual(SimTime delay, std::function<void()> fn) override {
    return ScheduleActivity(delay, ActivityClass::kTimer, std::move(fn));
  }

  TimerHandle RestoreTimerAtVirtual(SimTime deadline, std::function<void()> fn) override {
    return RestoreFrozenTimer(deadline, ActivityClass::kTimer, std::move(fn));
  }

  // Schedules a timer with an explicit activity class (outside-firewall
  // classes keep running during a checkpoint).
  TimerHandle ScheduleActivity(SimTime delay, ActivityClass cls, std::function<void()> fn);

  // Runs `fn` immediately if the firewall admits `cls`; otherwise defers it
  // until the firewall disengages. Dispatch point for IRQ/soft-IRQ-like
  // activity (e.g. network receive processing).
  void Dispatch(ActivityClass cls, std::function<void()> fn);

  // --- Suspend protocol (driven by the checkpoint engine) ---------------------

  // Engages the firewall and stops all inside activity: user/kernel threads
  // (CPU scheduler), timer jobs (their virtual deadlines are preserved).
  void StopInsideActivities();

  // Disengages the firewall, reschedules frozen timers against the (possibly
  // compensated) virtual clock, resumes the CPU scheduler and runs deferred
  // dispatches.
  void ResumeInsideActivities();

  bool suspended() const { return suspended_; }

  // Activities that executed while the firewall was engaged, by class —
  // used by tests to prove checkpoint atomicity.
  uint64_t activities_run_while_engaged(ActivityClass cls) const;

  // Total activities executed since boot (timers fired + dispatches run).
  // The idle monitor diffs this to detect quiet experiments.
  uint64_t activity_counter() const { return activity_counter_; }

  // Like activity_counter(), restricted to inside-firewall classes. Must be
  // flat while the guest is suspended: outside-firewall drain work (block
  // IRQs) legitimately continues, inside work must not.
  uint64_t inside_activity_counter() const { return inside_activity_counter_; }

  // Configures the small extra latency frozen timers experience when they
  // are rescheduled at resume (suspend/resume bookkeeping in the resume
  // path). This bounded, per-checkpoint effect is the empirical limit on
  // timer transparency the paper measures (~80 us, Figure 4).
  void SetResumeTimerLatency(SimTime mean, uint64_t seed) {
    resume_timer_latency_ = mean;
    resume_latency_rng_ = Rng(seed);
  }

  // Approximate kernel state size for checkpoint image accounting.
  uint64_t StateSizeBytes() const;

  // Re-creates a frozen timer from a checkpoint image: the entry carries its
  // saved virtual deadline but no simulator event — ResumeInsideActivities
  // arms it exactly as it does the original frozen timers. Owners call this
  // during restore (timer closures are not serialized).
  TimerHandle RestoreFrozenTimer(SimTime virtual_deadline, ActivityClass cls,
                                 std::function<void()> fn);

  // Checkpointable: firewall + suspension flags, activity accounting and the
  // block-frontend drain state. Timer entries, deferred dispatches and
  // deferred completions are dropped and re-registered by their owners.
  std::string checkpoint_id() const override { return "guest.kernel"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  friend class BlockFrontend;

  struct GuestTimer {
    SimTime virtual_deadline;
    ActivityClass cls;
    std::function<void()> fn;
    std::shared_ptr<TimerState> state;
    EventHandle sim_event;
    bool deferred = false;
  };

  // TimerHost: a cancelled handle erases its timer and simulator event.
  void CancelTimer(uint64_t id) override;

  TimerHandle AddTimer(SimTime virtual_deadline, ActivityClass cls,
                       std::function<void()> fn, bool arm);
  void FireTimer(uint64_t id);
  void NoteActivityRun(ActivityClass cls);
  EventHandle ScheduleAtVirtualDeadline(SimTime deadline, uint64_t id);

  Simulator* sim_;
  Domain* domain_;
  std::string name_;
  TemporalFirewall firewall_;
  CpuScheduler cpu_;
  std::unique_ptr<NetworkStack> net_;
  std::unique_ptr<BlockFrontend> block_frontend_;
  std::map<uint64_t, GuestTimer> timers_;
  uint64_t next_timer_id_ = 1;
  bool suspended_ = false;
  std::deque<std::pair<ActivityClass, std::function<void()>>> deferred_dispatches_;
  std::map<ActivityClass, uint64_t> engaged_runs_;
  SimTime resume_timer_latency_ = 0;
  Rng resume_latency_rng_{0};
  uint64_t activity_counter_ = 0;
  uint64_t inside_activity_counter_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_GUEST_KERNEL_H_
