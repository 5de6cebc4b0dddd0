// The time-travel checkpoint tree (Section 6).
//
// The original run is captured by frequent checkpointing; every replay
// creates a new branch in the execution history, so sessions form a tree
// whose internal nodes are checkpoints and whose leaves are checkpoints or
// active executions. Branching storage keeps thousands of tree nodes cheap;
// each node records its image size, a state digest (for determinism
// verification) and a shared handle on the composite checkpoint image, so
// rollback restores in O(image) instead of re-executing the prefix.

#ifndef TCSIM_SRC_TIMETRAVEL_CHECKPOINT_TREE_H_
#define TCSIM_SRC_TIMETRAVEL_CHECKPOINT_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/repo/checkpoint_repo.h"
#include "src/sim/time.h"
#include "src/timetravel/replayable_run.h"

namespace tcsim {

// One node of the execution-history tree.
struct TreeNode {
  int id = 0;
  int parent = -1;       // -1 for the root
  int branch = 0;        // branch (session) this checkpoint belongs to
  SimTime time = 0;      // simulator time of the checkpoint
  uint64_t image_bytes = 0;
  uint64_t digest = 0;
  // The serialized composite image; null when the run type only supports
  // restore by re-execution. Shared, so thousands of nodes stay cheap.
  std::shared_ptr<const std::vector<uint8_t>> image;
  // Repository handle of this node's image after PersistTo / ReopenFrom
  // (0 = not persisted, or the node has no image).
  uint64_t repo_handle = 0;
};

// How ReplayFrom reconstructs the state at the branch point.
enum class RestoreMode {
  kAuto,       // image restore when an image is recorded, else re-execute
  kImage,      // require image restore (asserts the image exists and applies)
  kReexecute,  // force deterministic re-execution from t=0
};

class TimeTravelTree {
 public:
  // Builds a fresh experiment instance. Runs must be deterministic for a
  // given construction (perturbations are applied via ReplayableRun::Perturb).
  using Factory = std::function<std::unique_ptr<ReplayableRun>()>;

  explicit TimeTravelTree(Factory factory);

  // Captures the original run: checkpoints every `interval` until `until`.
  // Returns the ids of the recorded checkpoints.
  std::vector<int> RecordOriginalRun(SimTime until, SimTime interval);

  // Time-travels to checkpoint `checkpoint_id` and replays until `until`,
  // checkpointing every `interval`. `perturb_seed` == 0 replays
  // deterministically; nonzero applies relaxed-determinism perturbation at
  // the branch point. Returns the new branch's checkpoint ids.
  std::vector<int> ReplayFrom(int checkpoint_id, SimTime until, SimTime interval,
                              uint64_t perturb_seed,
                              RestoreMode mode = RestoreMode::kAuto);

  // Re-executes to `checkpoint_id` and checks the state digest matches the
  // recorded one — the determinism guarantee rollback relies on.
  bool VerifyDeterministicReplay(int checkpoint_id);

  // Restores `checkpoint_id`'s image into a fresh run and checks the
  // post-resume digest matches the recorded one — image restore and
  // re-execution reconstruct the same state. False if the node has no image
  // or the digests differ.
  bool VerifyImageRestore(int checkpoint_id);

  // --- Durable persistence -----------------------------------------------------
  //
  // A tree survives process restarts through a CheckpointRepo: PersistTo
  // stores every node image plus a manifest of the tree structure, and
  // ReopenFrom (in a fresh process, on an empty tree) rebuilds the identical
  // tree from the repository — same topology, digests, and images, so
  // VerifyImageRestore and ReplayFrom work exactly as before the restart.

  // Puts every node image (skipping already-persisted nodes) and a tree
  // manifest into `repo`, retiring the manifest of a previous PersistTo.
  // Returns the manifest's repository handle, or 0 on failure (repo->error()
  // says why; the tree itself is unchanged).
  uint64_t PersistTo(CheckpointRepo* repo);

  // Rebuilds the tree recorded by PersistTo from `repo`. Must be called on
  // an empty tree (no RecordOriginalRun yet). The manifest is validated
  // first (node count against its size, ids equal to indices, parents that
  // precede their children, branches in range); then node images are
  // materialized eagerly and re-verified (CRC) as they stream from the
  // repository. False on failure with the tree left empty.
  bool ReopenFrom(CheckpointRepo* repo, uint64_t manifest_handle);

  // Models the paper's restore path: time to load the images on the rollback
  // path from the local snapshot disk at `disk_rate_bytes_per_sec`.
  SimTime EstimateRestoreTime(int checkpoint_id, uint64_t disk_rate_bytes_per_sec) const;

  const std::vector<TreeNode>& tree() const { return nodes_; }
  int branch_count() const { return branch_count_; }
  ReplayableRun* active_run() { return active_.get(); }

 private:
  struct Rebuilt {
    std::unique_ptr<ReplayableRun> run;
    // The capture re-taken at the target checkpoint. Its digest is sampled
    // at the resume instant (inside the checkpoint-done callback), the same
    // instant the recorded digest and a restored run's digest measure.
    CheckpointCapture last;
  };

  // Rebuilds a run and re-executes it through checkpoint `checkpoint_id`,
  // *re-taking every checkpoint on the path*: checkpoints perturb the
  // system (downtime, dirty-set churn), so a faithful reconstruction must
  // replay the checkpoint schedule, not just the workload.
  Rebuilt RebuildTo(int checkpoint_id);

  // Reconstructs the state at `checkpoint_id` per `mode`: apply the
  // recorded image to a fresh run (O(image)), or fall back to RebuildTo.
  std::unique_ptr<ReplayableRun> RestoreTo(int checkpoint_id, RestoreMode mode);

  // Runs `run` until `until` with checkpoints at base + k*interval,
  // appending nodes under `parent` on branch `branch`.
  std::vector<int> RunSegment(ReplayableRun* run, SimTime base, SimTime until,
                              SimTime interval, int parent, int branch);

  Factory factory_;
  std::vector<TreeNode> nodes_;
  int branch_count_ = 0;
  std::unique_ptr<ReplayableRun> active_;
  uint64_t persisted_manifest_ = 0;  // retired on the next PersistTo
};

}  // namespace tcsim

#endif  // TCSIM_SRC_TIMETRAVEL_CHECKPOINT_TREE_H_
