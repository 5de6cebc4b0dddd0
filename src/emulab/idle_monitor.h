// Idle-experiment detection and preemptive stateful swap-out.
//
// Emulab time-shares its hardware by swapping out inactive experiments
// (Section 2: "a swap-out may also occur if Emulab believes that the
// experiment is idle"). Before stateful swapping, that meant losing all
// run-time state, so idle swap-out was destructive; with the transparent
// checkpoint it becomes a safe, automatic space reclaim. This monitor
// samples guest activity (CPU run queues, network traffic, disk traffic)
// and triggers a stateful swap-out once the experiment has been quiet for a
// threshold.

#ifndef TCSIM_SRC_EMULAB_IDLE_MONITOR_H_
#define TCSIM_SRC_EMULAB_IDLE_MONITOR_H_

#include <functional>
#include <unordered_map>

#include "src/emulab/experiment.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace tcsim {

class IdleSwapMonitor {
 public:
  struct Params {
    SimTime poll_interval = 10 * kSecond;
    SimTime idle_threshold = 60 * kSecond;  // quiet this long => swap out
    bool eager_precopy = true;
  };

  IdleSwapMonitor(Simulator* sim, Experiment* experiment, Params params)
      : sim_(sim), experiment_(experiment), params_(params) {}

  IdleSwapMonitor(const IdleSwapMonitor&) = delete;
  IdleSwapMonitor& operator=(const IdleSwapMonitor&) = delete;

  // Starts polling. Idempotent.
  void Start();

  // Stops polling (e.g. after the user swaps back in manually).
  void Stop();

  // Fires when an idle swap-out completes.
  void SetSwapOutCallback(std::function<void(const SwapRecord&)> cb) {
    swapped_cb_ = std::move(cb);
  }

  bool swapped_out_by_monitor() const { return swapped_; }

 private:
  void Poll();

  // True if any node shows runnable CPU work, in-flight disk requests, or
  // new network traffic since the last poll.
  bool ExperimentActive();

  Simulator* sim_;
  Experiment* experiment_;
  Params params_;
  bool running_ = false;
  bool swapped_ = false;
  SimTime idle_since_ = -1;
  EventHandle poll_event_;
  std::unordered_map<const ExperimentNode*, uint64_t> last_packets_;
  std::function<void(const SwapRecord&)> swapped_cb_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_EMULAB_IDLE_MONITOR_H_
