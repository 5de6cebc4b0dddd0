#include "src/timetravel/checkpoint_tree.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/archive.h"
#include "src/sim/image.h"

namespace tcsim {

namespace {
// Chunk id of the tree manifest inside its composite-image envelope.
const char kManifestChunk[] = "timetravel.tree";
}  // namespace

TimeTravelTree::TimeTravelTree(Factory factory) : factory_(std::move(factory)) {}

std::vector<int> TimeTravelTree::RunSegment(ReplayableRun* run, SimTime base, SimTime until,
                                            SimTime interval, int parent, int branch) {
  std::vector<int> ids;
  SimTime next = base + interval;
  while (next <= until) {
    run->AdvanceTo(next);
    const CheckpointCapture cap = run->CaptureCheckpoint();
    TreeNode node;
    node.id = static_cast<int>(nodes_.size());
    node.parent = parent;
    node.branch = branch;
    node.time = next;
    node.image_bytes = cap.image_bytes;
    node.digest = cap.digest;
    node.image = cap.image;
    parent = node.id;
    nodes_.push_back(node);
    ids.push_back(node.id);
    next += interval;
  }
  run->AdvanceTo(until);
  return ids;
}

std::vector<int> TimeTravelTree::RecordOriginalRun(SimTime until, SimTime interval) {
  assert(nodes_.empty() && "original run already recorded");
  active_ = factory_();
  const int branch = branch_count_++;
  return RunSegment(active_.get(), active_->Now(), until, interval, /*parent=*/-1, branch);
}

TimeTravelTree::Rebuilt TimeTravelTree::RebuildTo(int checkpoint_id) {
  assert(checkpoint_id >= 0 && checkpoint_id < static_cast<int>(nodes_.size()));
  // Only checkpoints on the original (unperturbed) branch can be rebuilt by
  // plain re-execution; perturbed branches would need their perturbation
  // schedule replayed, which the recording in `nodes_` doesn't retain.
  // (Image restore has no such restriction: the perturbed workload rng is
  // part of the image.)
  assert(nodes_[checkpoint_id].branch == 0 &&
         "re-execution rollback target must lie on the original run");

  // Collect the root -> target checkpoint path.
  std::vector<int> path;
  for (int id = checkpoint_id; id != -1; id = nodes_[id].parent) {
    path.push_back(id);
  }
  std::reverse(path.begin(), path.end());

  // Re-execute, re-taking each checkpoint at its recorded instant so the
  // reconstruction experiences the same perturbations the original did.
  Rebuilt rebuilt;
  rebuilt.run = factory_();
  for (int id : path) {
    rebuilt.run->AdvanceTo(nodes_[id].time);
    rebuilt.last = rebuilt.run->CaptureCheckpoint();
  }
  return rebuilt;
}

std::unique_ptr<ReplayableRun> TimeTravelTree::RestoreTo(int checkpoint_id,
                                                         RestoreMode mode) {
  assert(checkpoint_id >= 0 && checkpoint_id < static_cast<int>(nodes_.size()));
  const TreeNode& target = nodes_[checkpoint_id];
  if (mode != RestoreMode::kReexecute && target.image != nullptr) {
    // O(image) path: build a fresh experiment and overwrite its state from
    // the recorded composite image. No prefix re-execution.
    auto run = factory_();
    const std::optional<uint64_t> digest = run->RestoreFromImage(*target.image);
    if (digest.has_value()) {
      return run;
    }
    assert(mode != RestoreMode::kImage && "run type rejected the recorded image");
  } else {
    assert(mode != RestoreMode::kImage && "no image recorded for this checkpoint");
  }
  return std::move(RebuildTo(checkpoint_id).run);
}

std::vector<int> TimeTravelTree::ReplayFrom(int checkpoint_id, SimTime until,
                                            SimTime interval, uint64_t perturb_seed,
                                            RestoreMode mode) {
  auto run = RestoreTo(checkpoint_id, mode);
  if (perturb_seed != 0) {
    run->Perturb(perturb_seed);
  }
  const int branch = branch_count_++;
  active_ = std::move(run);
  // Checkpoint instants stay aligned with the original schedule, anchored at
  // the branch point's recorded time.
  return RunSegment(active_.get(), nodes_[checkpoint_id].time, until, interval,
                    checkpoint_id, branch);
}

bool TimeTravelTree::VerifyDeterministicReplay(int checkpoint_id) {
  // Compare the capture digests: both are sampled at the resume instant of
  // the target checkpoint, on the original run and on the re-execution.
  return RebuildTo(checkpoint_id).last.digest == nodes_[checkpoint_id].digest;
}

bool TimeTravelTree::VerifyImageRestore(int checkpoint_id) {
  assert(checkpoint_id >= 0 && checkpoint_id < static_cast<int>(nodes_.size()));
  const TreeNode& target = nodes_[checkpoint_id];
  if (target.image == nullptr) {
    return false;
  }
  auto run = factory_();
  const std::optional<uint64_t> digest = run->RestoreFromImage(*target.image);
  return digest.has_value() && *digest == target.digest;
}

uint64_t TimeTravelTree::PersistTo(CheckpointRepo* repo) {
  // Node images first: a manifest only becomes visible once every image it
  // names is durably in the repository (the same publication discipline the
  // repository applies to chunks within one image). All unpersisted images go
  // in one group-committed batch — the tree's shared_ptr buffers are committed
  // without a copy, and a crash mid-persist leaves either none or all of this
  // call's images (the manifest that names them commits strictly after).
  {
    CheckpointRepo::Images images;
    std::vector<TreeNode*> pending;
    for (TreeNode& node : nodes_) {
      if (node.image == nullptr || node.repo_handle != 0) {
        continue;
      }
      images.push_back(node.image);
      pending.push_back(&node);
    }
    const CheckpointRepo::BatchCommitResult result = repo->CommitBatch(images);
    if (!result.ok) {
      return 0;
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      pending[i]->repo_handle = result.handles[i];
    }
  }

  ArchiveWriter manifest;
  manifest.Write<uint64_t>(nodes_.size());
  for (const TreeNode& node : nodes_) {
    manifest.Write<int32_t>(node.id);
    manifest.Write<int32_t>(node.parent);
    manifest.Write<int32_t>(node.branch);
    manifest.Write<SimTime>(node.time);
    manifest.Write<uint64_t>(node.image_bytes);
    manifest.Write<uint64_t>(node.digest);
    manifest.Write<uint64_t>(node.repo_handle);
  }
  manifest.Write<int32_t>(branch_count_);

  CheckpointImageBuilder builder;
  builder.AddChunk(kManifestChunk, manifest.Take());
  const uint64_t handle = repo->PutImage(builder.Serialize());
  if (handle == 0) {
    return 0;
  }
  if (persisted_manifest_ != 0 && repo->IsLive(persisted_manifest_)) {
    repo->RetireImage(persisted_manifest_);
  }
  persisted_manifest_ = handle;
  return handle;
}

bool TimeTravelTree::ReopenFrom(CheckpointRepo* repo, uint64_t manifest_handle) {
  assert(nodes_.empty() && "ReopenFrom requires an empty tree");
  const std::vector<uint8_t> manifest_image = repo->Materialize(manifest_handle);
  if (manifest_image.empty()) {
    return false;
  }
  const CheckpointImageView view(manifest_image);
  const CheckpointImageView::Chunk* manifest = view.Find(kManifestChunk);
  if (manifest == nullptr) {
    return false;
  }
  // The manifest is outside input: its count is bounded by the bytes that
  // follow it, and the tree it describes is checked before any image is read.
  ArchiveReader r(manifest->payload);
  const uint64_t count = r.Read<uint64_t>();
  constexpr uint64_t kNodeWireSize = 3 * sizeof(int32_t) + sizeof(SimTime) +
                                     3 * sizeof(uint64_t);
  if (!r.ok() || r.remaining() < sizeof(int32_t) ||
      count > (r.remaining() - sizeof(int32_t)) / kNodeWireSize) {
    return false;
  }
  std::vector<TreeNode> nodes;
  nodes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TreeNode node;
    node.id = r.Read<int32_t>();
    node.parent = r.Read<int32_t>();
    node.branch = r.Read<int32_t>();
    node.time = r.Read<SimTime>();
    node.image_bytes = r.Read<uint64_t>();
    node.digest = r.Read<uint64_t>();
    node.repo_handle = r.Read<uint64_t>();
    // Ids are indices and parents precede their children, so RebuildTo's
    // walk to the root stays in bounds and ends.
    if (!r.ok() || node.id != static_cast<int64_t>(i) || node.parent < -1 ||
        node.parent >= node.id) {
      return false;
    }
    nodes.push_back(std::move(node));
  }
  const int branches = r.Read<int32_t>();
  if (!r.AtEnd() || branches < 0) {
    return false;
  }
  for (TreeNode& node : nodes) {
    if (node.branch < 0 || node.branch >= branches) {
      return false;
    }
    if (node.repo_handle != 0) {
      std::vector<uint8_t> image = repo->Materialize(node.repo_handle);
      if (image.empty()) {
        return false;
      }
      node.image =
          std::make_shared<const std::vector<uint8_t>>(std::move(image));
    }
  }
  nodes_ = std::move(nodes);
  branch_count_ = branches;
  persisted_manifest_ = manifest_handle;
  return true;
}

SimTime TimeTravelTree::EstimateRestoreTime(int checkpoint_id,
                                            uint64_t disk_rate_bytes_per_sec) const {
  assert(checkpoint_id >= 0 && checkpoint_id < static_cast<int>(nodes_.size()));
  // Restoring loads the target checkpoint's memory image; disk state is
  // already present via branching storage (a branch switch is metadata).
  const uint64_t bytes = nodes_[checkpoint_id].image_bytes;
  return static_cast<SimTime>(static_cast<double>(bytes) * 1e9 /
                              static_cast<double>(disk_rate_bytes_per_sec));
}

}  // namespace tcsim
