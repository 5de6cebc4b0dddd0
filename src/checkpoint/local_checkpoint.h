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

  // Every capture clones component state into reusable staging buffers
  // inside the frozen window, then frames and publishes it in a commit step.
  // Two-phase capture defers that commit until after the atomic resume (or
  // the first accessor that needs it), so only the clone is frozen-window
  // time. Disabling commits inside the frozen window. The emitted image is
  // byte-identical either way (test-enforced).
  bool async_capture = true;

  LiveMemorySaver::Params saver;
};

// What the last capture did (asserted by tests).
struct CaptureStats {
  size_t crc_fallbacks = 0;     // always 0 (every capture stages every
                                // component); read only by tcbench/tcbench.cc
  size_t staged_bytes = 0;      // bytes copied in the freeze phase
  size_t serialized_bytes = 0;  // size of the published image
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
  // the first checkpoint. Shared, so time-travel tree nodes can retain
  // thousands of images cheaply.
  //
  // These accessors force any pending two-phase capture to commit first
  // (EnsureCaptureCommitted), so a held engine — saved but not yet resumed —
  // still observes the image its freeze phase staged.
  std::shared_ptr<const std::vector<uint8_t>> last_image() {
    EnsureCaptureCommitted();
    return last_image_;
  }

  // Byte counts of the last capture.
  const CaptureStats& last_capture_stats() {
    EnsureCaptureCommitted();
    return last_capture_stats_;
  }

  // Commits a pending two-phase capture (frame + publish) if one is staged,
  // timed as background work; no-op otherwise. Called automatically at
  // atomic resume and from the accessors above.
  void EnsureCaptureCommitted();

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

  // Capture, freeze half: stages the engine metadata entry, then every
  // component (StageComponents). Runs inside the frozen window; does no
  // framing or CRC.
  void SnapshotComponents();

  // Capture, commit half: frames the staged snapshot as the composite image
  // (SerializeStagedImage) and publishes it.
  void CommitPendingCapture();

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

  // Capture state. The staged capture is pinned between the freeze phase
  // (SnapshotComponents, inside the frozen window) and the commit
  // (CommitPendingCapture: still frozen when synchronous, else after resume
  // or on first accessor touch); Reset keeps its capacity across captures.
  StagedCapture staged_;
  bool pending_capture_ = false;

  // Telemetry. Counters are resolved once at construction; the phase spans
  // live on this node's own track (the node name). The "ckpt.frozen" span
  // covers suspend -> resume, "ckpt.save" the suspend -> state-saved prefix
  // of it; the capture point emits a "ckpt.capture" instant carrying the
  // CaptureStats. All no-ops while tracing is off.
  obs::Counter* captures_counter_;
  obs::Counter* restores_counter_;
  obs::Counter* image_bytes_counter_;
  obs::Counter* serialized_bytes_counter_;
  obs::Histogram* frozen_wall_us_hist_;      // wall µs of the capture point
                                             // inside the frozen window
  obs::Histogram* background_wall_us_hist_;  // wall µs of the deferred commit
  obs::SpanId precopy_span_ = 0;
  obs::SpanId frozen_span_ = 0;
  obs::SpanId save_span_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_CHECKPOINT_LOCAL_CHECKPOINT_H_
