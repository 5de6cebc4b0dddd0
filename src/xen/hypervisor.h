// Per-node hypervisor: Dom0 activity, CPU interference, live memory save.
//
// Two hypervisor behaviours matter for transparency:
//  - Dom0 (the privileged domain) competes with the guest for the physical
//    CPU. The paper shows even `ls` in Dom0 perturbs a CPU-bound guest by
//    5-7 ms, `sum` by 13-17 ms and `xm list` by ~130 ms (Section 7.1); the
//    checkpoint's own pre-copy and writeback run in Dom0 and cause the
//    residual perturbation visible in Figures 5 and 6.
//  - The live checkpoint extends Xen's live migration: iterative pre-copy of
//    dirty pages while the guest runs, then a stop-and-copy of the residual
//    dirty set during the (short) downtime, then background writeback of the
//    image to the snapshot store after resume.

#ifndef TCSIM_SRC_XEN_HYPERVISOR_H_
#define TCSIM_SRC_XEN_HYPERVISOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/clock/hardware_clock.h"
#include "src/sim/checkpointable.h"
#include "src/sim/simulator.h"
#include "src/xen/domain.h"

namespace tcsim {

class Hypervisor : public Checkpointable {
 public:
  Hypervisor(Simulator* sim, HardwareClock* host_clock, std::string node_name);

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  // Creates the (single) guest domain on this node.
  Domain* CreateDomain(DomainConfig config);

  Domain* domain() { return domain_.get(); }
  HardwareClock* host_clock() { return host_clock_; }
  Simulator* sim() { return sim_; }
  const std::string& node_name() const { return node_name_; }

  // --- CPU interference --------------------------------------------------------

  // Fraction of the physical CPU currently available to the guest
  // (1 - sum of active Dom0 job demands, floored at 5%).
  double GuestCpuCapacity() const;

  // Notifies the guest CPU scheduler when capacity changes.
  void SetCapacityListener(std::function<void(double)> listener) {
    capacity_listener_ = std::move(listener);
  }

  // Runs a Dom0 job consuming `cpu_fraction` of the CPU for `duration`.
  // The stolen time is charged to the guest's runstate (when accounting is
  // active) and its CPU capacity drops for the duration.
  void RunDom0Job(const std::string& name, double cpu_fraction, SimTime duration);

  uint64_t dom0_jobs_run() const { return dom0_jobs_run_; }

  // Checkpointable: demand bookkeeping plus the table of in-flight Dom0 jobs
  // (fraction + absolute end time). Restore re-arms each job's expiry without
  // re-charging stolen time — the charge happened on the saved timeline.
  std::string checkpoint_id() const override { return "xen.hypervisor"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  // An in-flight Dom0 job: its CPU demand and when it retires. Tracked as
  // data (not just a pending closure) so checkpoint images can carry it.
  struct Dom0Job {
    uint64_t id;
    double fraction;
    SimTime end_time;
  };

  void RecomputeCapacity();
  void FinishJob(uint64_t id);

  Simulator* sim_;
  HardwareClock* host_clock_;
  std::string node_name_;
  std::unique_ptr<Domain> domain_;
  double active_demand_ = 0.0;
  std::function<void(double)> capacity_listener_;
  uint64_t dom0_jobs_run_ = 0;
  uint64_t next_job_id_ = 1;
  std::vector<Dom0Job> active_jobs_;
};

// Live-checkpoint memory engine (the live-migration-derived saver).
class LiveMemorySaver {
 public:
  struct Params {
    // Memory copy rate to the staging buffer during pre-copy and stop-copy.
    uint64_t copy_rate_bytes_per_sec = 400ull * 1024 * 1024;
    // Iterative pre-copy rounds before suspending.
    int precopy_rounds = 2;
    // Dom0 CPU demand while pre-copying (perturbs the guest).
    double precopy_cpu_fraction = 0.12;
    // Post-resume writeback of the image to the local snapshot disk.
    uint64_t writeback_rate_bytes_per_sec = 70ull * 1024 * 1024;
    double writeback_cpu_fraction = 0.03;
  };

  LiveMemorySaver(Simulator* sim, Hypervisor* hv, Params params)
      : sim_(sim), hv_(hv), params_(params) {}

  // Phase 1 (guest running): iterative pre-copy. `done` receives the
  // residual dirty byte count to be stop-copied.
  void PreCopy(std::function<void(uint64_t residual_bytes)> done);

  // Phase 2 (guest suspended): stop-and-copy of the residual set. `done`
  // fires when the copy completes; the elapsed time is checkpoint downtime.
  void StopCopy(uint64_t residual_bytes, std::function<void()> done);

  // Phase 3 (guest resumed): background writeback of the whole image.
  void BackgroundWriteback(uint64_t image_bytes, std::function<void()> done);

  // Total bytes captured in the last checkpoint image.
  uint64_t last_image_bytes() const { return last_image_bytes_; }

  // Starts a fresh image accumulation (used when pre-copy is disabled).
  void ResetImage() { last_image_bytes_ = 0; }

  // Reinstalls a saved byte count when the checkpoint engine restores from
  // an image (the saver itself holds no other state).
  void RestoreImageBytes(uint64_t bytes) { last_image_bytes_ = bytes; }

  const Params& params() const { return params_; }

 private:
  void PreCopyRound(int rounds_left, std::function<void(uint64_t)> done);

  Simulator* sim_;
  Hypervisor* hv_;
  Params params_;
  uint64_t last_image_bytes_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_XEN_HYPERVISOR_H_
