// Processor-sharing CPU model for one guest.
//
// CPU-bound guest work progresses at the capacity the hypervisor currently
// grants (1 minus Dom0 demand), shared equally among runnable guest jobs.
// When the temporal firewall engages, all jobs freeze with their remaining
// work intact and resume bit-exact afterwards — the guest-side half of
// checkpoint atomicity. Because guest virtual time is also frozen during the
// suspension, a CPU-bound benchmark observes no lost time across a
// transparent checkpoint; what it *does* observe is the capacity dip from
// Dom0 checkpoint activity before suspend and after resume (Figure 5).

#ifndef TCSIM_SRC_GUEST_CPU_SCHEDULER_H_
#define TCSIM_SRC_GUEST_CPU_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <vector>

#include "src/guest/firewall.h"
#include "src/sim/checkpointable.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

class CpuScheduler : public Checkpointable {
 public:
  explicit CpuScheduler(Simulator* sim) : sim_(sim) {}

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  // Enqueues a job needing `work` of CPU time at full speed; `done` fires
  // when it completes. Jobs share the CPU processor-style.
  void Run(SimTime work, std::function<void()> done);

  // Hypervisor capacity grant (0, 1]; updated when Dom0 demand changes.
  void SetCapacity(double capacity);

  // Firewall engagement: freezes all jobs / resumes them.
  void Suspend();
  void Resume();

  bool suspended() const { return suspended_; }
  size_t runnable_jobs() const { return jobs_.size(); }
  double capacity() const { return capacity_; }

  // Remaining work (at full speed) of each queued job, in queue order. Job
  // owners persist these in their own chunks and re-submit via Run() during
  // restore — completion closures never cross the image boundary.
  std::vector<SimTime> JobRemainders() const;

  // Checkpointable: scheduler bookkeeping only. RestoreState drops any jobs
  // the freshly built experiment enqueued; owners re-register theirs.
  std::string checkpoint_id() const override { return "guest.cpu"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  struct Job {
    SimTime remaining;  // at full CPU speed
    std::function<void()> done;
  };

  // Charges progress since last_update_ to every job, then reschedules the
  // next completion event.
  void Reschedule();
  void ChargeProgress();
  void OnCompletion();

  Simulator* sim_;
  std::list<Job> jobs_;
  double capacity_ = 1.0;
  bool suspended_ = false;
  SimTime last_update_ = 0;
  EventHandle completion_event_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_GUEST_CPU_SCHEDULER_H_
