// A concrete ReplayableRun: a single-node experiment driving a deterministic
// mixed workload (timers + CPU + disk writes), checkpointed via the real
// checkpoint engine. Used by the time-travel tests, benchmarks and example;
// larger setups implement ReplayableRun over their own topologies the same
// way. The workload itself is a Checkpointable registered with the engine,
// so its progress rides in the composite image and RestoreFromImage rebuilds
// the whole run — platform and workload — in O(image).

#ifndef TCSIM_SRC_TIMETRAVEL_BASIC_RUN_H_
#define TCSIM_SRC_TIMETRAVEL_BASIC_RUN_H_

#include <memory>

#include "src/checkpoint/local_checkpoint.h"
#include "src/guest/node.h"
#include "src/sim/checkpointable.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/timetravel/replayable_run.h"

namespace tcsim {

class BasicExperimentRun : public ReplayableRun, public Checkpointable {
 public:
  struct Params {
    uint64_t seed = 1;              // construction seed (fixed per tree)
    SimTime mean_tick = 5 * kMillisecond;
    uint64_t blocks_per_tick = 4;
  };

  explicit BasicExperimentRun(Params params);

  // --- ReplayableRun -----------------------------------------------------------

  void AdvanceTo(SimTime t) override { sim_.RunUntil(t); }
  SimTime Now() const override { return sim_.Now(); }
  uint64_t StateDigest() const override;
  CheckpointCapture CaptureCheckpoint() override;
  std::optional<uint64_t> RestoreFromImage(
      const std::vector<uint8_t>& image_bytes) override;
  void Perturb(uint64_t seed) override;

  // --- Checkpointable ----------------------------------------------------------
  // Workload progress: counters, the pending tick's virtual deadline, the
  // number of write completions still in flight, and the workload rng.
  // Restore re-arms the tick as a frozen guest timer and re-registers the
  // outstanding completion callbacks with the block frontend.
  std::string checkpoint_id() const override { return "workload.basic"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

  // Workload observables (for divergence assertions in tests).
  uint64_t counter() const { return counter_; }
  ExperimentNode& node() { return *node_; }
  Simulator& sim() { return sim_; }
  LocalCheckpointEngine& engine() { return *engine_; }

 private:
  void Tick();
  void TickBody();

  Params params_;
  Simulator sim_;
  std::unique_ptr<ExperimentNode> node_;
  std::unique_ptr<LocalCheckpointEngine> engine_;
  Rng workload_rng_;
  uint64_t counter_ = 0;
  uint64_t next_block_ = 4096;
  uint64_t writes_issued_ = 0;
  uint64_t io_completions_ = 0;
  SimTime next_tick_vdeadline_ = 0;  // virtual-time deadline of the armed tick
};

// A second, CPU-bound ReplayableRun: alternating CPU bursts and sleeps, with
// periodic memory churn. Exercises the CPU-scheduler and domain chunks of
// the composite image the way BasicExperimentRun exercises block I/O.
class CpuExperimentRun : public ReplayableRun, public Checkpointable {
 public:
  struct Params {
    uint64_t seed = 2;
    SimTime mean_burst = 8 * kMillisecond;  // CPU work per iteration
    SimTime mean_gap = 3 * kMillisecond;    // sleep between iterations
    uint64_t touched_bytes = 256 * 1024;    // dirtied per iteration
  };

  explicit CpuExperimentRun(Params params);

  void AdvanceTo(SimTime t) override { sim_.RunUntil(t); }
  SimTime Now() const override { return sim_.Now(); }
  uint64_t StateDigest() const override;
  CheckpointCapture CaptureCheckpoint() override;
  std::optional<uint64_t> RestoreFromImage(
      const std::vector<uint8_t>& image_bytes) override;
  void Perturb(uint64_t seed) override;

  // Checkpointable: iteration count, phase (burst or gap), the in-flight
  // burst's remaining work (read from the CPU scheduler — the burst is this
  // node's only CPU job) or the pending gap timer's virtual deadline.
  std::string checkpoint_id() const override { return "workload.cpu"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

  uint64_t iterations() const { return iterations_; }
  ExperimentNode& node() { return *node_; }
  Simulator& sim() { return sim_; }
  LocalCheckpointEngine& engine() { return *engine_; }

 private:
  void StartBurst();
  void OnBurstDone();
  void SubmitBurst(SimTime work);

  Params params_;
  Simulator sim_;
  std::unique_ptr<ExperimentNode> node_;
  std::unique_ptr<LocalCheckpointEngine> engine_;
  Rng workload_rng_;
  uint64_t iterations_ = 0;
  bool burst_active_ = false;
  SimTime next_burst_vdeadline_ = 0;  // armed gap timer's virtual deadline
};

}  // namespace tcsim

#endif  // TCSIM_SRC_TIMETRAVEL_BASIC_RUN_H_
