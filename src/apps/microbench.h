// The two synthetic microbenchmarks of Section 7.1: a usleep loop (time
// transparency, Figure 4) and a CPU-intensive loop (CPU-allocation
// transparency, Figure 5). Both measure from inside the guest with
// gettimeofday, exactly as the paper does.

#ifndef TCSIM_SRC_APPS_MICROBENCH_H_
#define TCSIM_SRC_APPS_MICROBENCH_H_

#include <functional>

#include "src/guest/node.h"
#include "src/sim/checkpointable.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace tcsim {

// usleep(10ms) in a loop. The Linux timer tick quantizes a 10 ms sleep to
// two ticks, giving the paper's nominal 20 ms iteration; a small dispatch
// jitter models hardware timer accuracy (97% of iterations within 28 us).
class SleepLoopApp : public Checkpointable {
 public:
  struct Params {
    SimTime sleep = 10 * kMillisecond;
    SimTime timer_tick = 10 * kMillisecond;  // HZ=100 kernel
    size_t iterations = 6000;
    SimTime dispatch_jitter = 9 * kMicrosecond;  // stddev of wakeup latency
    uint64_t seed = 42;
  };

  SleepLoopApp(ExperimentNode* node, Params params)
      : node_(node), params_(params), rng_(params.seed) {}

  // Runs the loop; `done` fires after the last iteration.
  void Start(std::function<void()> done = nullptr);

  // Per-iteration measured times, milliseconds (Figure 4's y-axis).
  const Samples& iteration_times_ms() const { return iterations_ms_; }

  // Guest-observable trace for transparency comparisons.
  const TraceLog& trace() const { return trace_; }

  // Checkpointable: loop progress and the pending wakeup's virtual
  // deadline. Measurement series (samples, trace) are observations, not
  // state the loop needs to continue, and are not serialized. Restore
  // re-registers the pending sleep as a frozen guest timer; the kernel's
  // resume pass arms it.
  std::string checkpoint_id() const override { return "app.sleep_loop"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  void Iterate();
  void OnWakeup();

  ExperimentNode* node_;
  Params params_;
  Rng rng_;
  size_t remaining_ = 0;
  bool wakeup_pending_ = false;
  SimTime next_wakeup_vdeadline_ = 0;  // virtual-time deadline of the sleep
  SimTime last_wakeup_ = 0;
  Samples iterations_ms_;
  TraceLog trace_;
  std::function<void()> done_;
};

// A fixed CPU-bound job in a loop. Nominal iteration time is the work
// divided by the CPU capacity; Dom0 activity (including checkpoint pre-copy
// and writeback) stretches iterations.
class CpuLoopApp : public Checkpointable {
 public:
  struct Params {
    SimTime work = 236'600 * kMicrosecond;  // the paper's 236.6 ms job
    size_t iterations = 600;
    uint64_t touched_bytes_per_iteration = 4 * 1024 * 1024;  // working set churn
  };

  CpuLoopApp(ExperimentNode* node, Params params) : node_(node), params_(params) {}

  void Start(std::function<void()> done = nullptr);

  // Per-iteration measured times, milliseconds (Figure 5's y-axis).
  const Samples& iteration_times_ms() const { return iterations_ms_; }

  const TraceLog& trace() const { return trace_; }

  // Checkpointable: loop progress plus the in-flight job's remaining work,
  // read from the CPU scheduler at save time (the loop is the only CPU job
  // the microbenchmark node runs). Restore re-submits the remainder while
  // the scheduler is suspended; the resume pass starts it.
  std::string checkpoint_id() const override { return "app.cpu_loop"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  void Iterate();
  void OnIterationDone();
  void SubmitWork(SimTime work);

  ExperimentNode* node_;
  Params params_;
  size_t remaining_ = 0;
  bool job_active_ = false;
  SimTime iter_start_v_ = 0;  // virtual time the current iteration began
  Samples iterations_ms_;
  TraceLog trace_;
  std::function<void()> done_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_APPS_MICROBENCH_H_
