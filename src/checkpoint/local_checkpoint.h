// The local (single-node) transparent live checkpoint (Section 4.1-4.2).
//
// Timeline of one checkpoint of an experiment node:
//
//   request ──► pre-copy (guest running; Dom0 steals some CPU)
//           ──► ATOMIC SUSPEND at the scheduled instant:
//                 engage temporal firewall, stop threads & timers,
//                 freeze virtual time & runstate accounting, suspend NICs
//           ──► drain in-flight block requests (block IRQs outside firewall)
//           ──► stop-and-copy residual dirty memory + serialize device state
//                 (this interval is the checkpoint downtime)
//           ──► [hold for coordinator barrier, if distributed]
//           ──► ATOMIC RESUME:
//                 compensate virtual TSC (transparent) or not (baseline),
//                 unfreeze time & runstate, reopen devices, replay NIC log,
//                 disengage firewall
//           ──► background writeback of the image to the snapshot disk
//                 (Dom0 activity; the residual perturbation of Figs. 5-6).

#ifndef TCSIM_SRC_CHECKPOINT_LOCAL_CHECKPOINT_H_
#define TCSIM_SRC_CHECKPOINT_LOCAL_CHECKPOINT_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/checkpoint/participant.h"
#include "src/guest/node.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_session.h"
#include "src/sim/checkpointable.h"
#include "src/sim/image.h"
#include "src/sim/staging.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/xen/hypervisor.h"

namespace tcsim {

// Knobs controlling checkpoint behaviour; the defaults are the paper's
// transparent configuration, the alternatives are evaluation baselines.
struct CheckpointPolicy {
  // Freeze guest time during the checkpoint and compensate the virtual TSC
  // at resume. Disabling this yields the non-transparent baseline: the guest
  // observes the downtime as lost time.
  bool transparent_time = true;

  // Use iterative pre-copy while running (live checkpoint). Disabling it
  // stop-copies the entire dirty set during the downtime.
  bool live_precopy = true;

  // Fixed cost of the suspend handshake and device-state serialization
  // (XenBus round trips, virtual device teardown).
  SimTime device_serialize_time = 2 * kMillisecond;

  // Mean extra latency frozen timers experience through the resume path
  // (suspend/resume bookkeeping). Bounded per checkpoint, it does not
  // accumulate — the empirical transparency limit of Figure 4 (~80 us).
  SimTime resume_timer_latency = 40 * kMicrosecond;

  LiveMemorySaver::Params saver;
};

// What the last capture did.
struct CaptureStats {
  size_t crc_fallbacks = 0;  // always 0 (every capture stages every
                             // component); read only by tcbench/tcbench.cc
};

// Drives local checkpoints of one ExperimentNode. Also implements
// CheckpointParticipant so the distributed coordinator can schedule it.
class LocalCheckpointEngine : public CheckpointParticipant {
 public:
  LocalCheckpointEngine(Simulator* sim, ExperimentNode* node, CheckpointPolicy policy);

  // --- Standalone use (single-node checkpoints, Figures 4 and 5) -------------

  // Runs a complete checkpoint, resuming immediately after the state is
  // saved. `done` (optional) receives the record.
  void CheckpointNow(std::function<void(const LocalCheckpointRecord&)> done = nullptr);

  // --- CheckpointParticipant ---------------------------------------------------

  const std::string& name() const override { return node_->name(); }
  HardwareClock& clock() override { return node_->clock(); }
  void CheckpointAtLocal(SimTime local_time,
                         std::function<void(const LocalCheckpointRecord&)> saved) override;
  void ResumeAtLocal(SimTime local_time) override;

  // Immediately resumes a held (saved but suspended) checkpoint.
  void ResumeNow();

  const std::vector<LocalCheckpointRecord>& history() const { return history_; }
  const CheckpointPolicy& policy() const { return policy_; }
  bool in_progress() const { return in_progress_; }

  // --- Universal checkpoint-image layer ----------------------------------------
  //
  // Every checkpoint serializes the node's component list into a versioned
  // chunked container (src/sim/image.h) at the capture point — inside the
  // suspended window, after the memory image is saved and before resume.
  // Restore applies such an image to a freshly built experiment: rewind the
  // simulator to the saved instant, overwrite each component's data state
  // from its chunk, and run the ordinary atomic-resume path. Closures are
  // never serialized; components re-register their own events (the
  // DMTCP-plugin-style discipline of src/sim/checkpointable.h).

  // Appends an extra component (typically workload progress state) after
  // the node's own components. Call before the first checkpoint.
  void AddCheckpointable(Checkpointable* component);

  // The composite image captured by the last completed save; null before
  // the first checkpoint. Published at the capture point, so a held engine
  // (saved but not yet resumed) already has it. Shared, so time-travel tree
  // nodes can retain thousands of images cheaply.
  std::shared_ptr<const std::vector<uint8_t>> last_image() const {
    return last_image_;
  }

  const CaptureStats& last_capture_stats() const { return last_capture_stats_; }

  // Applies a composite image to this engine's (freshly built, running)
  // experiment and leaves it suspended-held at the saved instant. Returns
  // false without touching the run if the container is malformed (bad
  // magic, unsupported version, truncated, CRC mismatch), or the engine
  // metadata chunk is missing.
  // Components without a matching chunk keep their freshly built state
  // (forward compatibility).
  bool RestoreImage(const std::vector<uint8_t>& image_bytes);

  // Resumes a run primed by RestoreImage — the O(image) restore path.
  void ResumeRestored();

 private:
  // Phase entry points.
  void BeginPreCopy(SimTime suspend_at_physical);
  void AtomicSuspend();
  void DrainAndSave();
  void OnStateSaved();
  void AtomicResume();

  // The node's components plus registered extras, built on first use.
  const std::vector<Checkpointable*>& Components();

  // The capture point, inside the frozen window: stages the engine metadata
  // entry and every component (StageComponents), frames them as the
  // composite image (SerializeStagedImage) and publishes it.
  void Capture();

  Simulator* sim_;
  ExperimentNode* node_;
  CheckpointPolicy policy_;
  LiveMemorySaver saver_;
  Rng rng_;

  bool in_progress_ = false;
  bool hold_after_save_ = false;
  bool held_ = false;
  uint64_t residual_dirty_ = 0;
  LocalCheckpointRecord current_;
  std::function<void(const LocalCheckpointRecord&)> saved_cb_;
  std::vector<LocalCheckpointRecord> history_;

  bool components_built_ = false;
  std::vector<Checkpointable*> components_;
  std::vector<Checkpointable*> extra_components_;
  std::shared_ptr<const std::vector<uint8_t>> last_image_;
  CaptureStats last_capture_stats_;

  // Staging buffer of the capture point. Every capture resets it first;
  // Reset keeps its capacity across captures.
  StagedCapture staged_;

  // Telemetry. Counters are resolved once at construction; the phase spans
  // live on this node's own track (the node name). The "ckpt.frozen" span
  // covers suspend -> resume, "ckpt.save" the suspend -> state-saved prefix
  // of it; the capture point emits a "ckpt.capture" instant carrying its
  // staged and serialized byte counts. All no-ops while tracing is off.
  obs::Counter* captures_counter_;
  obs::Counter* restores_counter_;
  obs::Counter* image_bytes_counter_;
  obs::Counter* serialized_bytes_counter_;
  obs::Histogram* frozen_wall_us_hist_;  // wall µs of the capture point
  obs::SpanId precopy_span_ = 0;
  obs::SpanId frozen_span_ = 0;
  obs::SpanId save_span_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_CHECKPOINT_LOCAL_CHECKPOINT_H_
