// Time-travel tests: deterministic rollback, branching history, perturbed
// replay divergence, and restore-cost accounting (Section 6).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>

#include "src/timetravel/basic_run.h"
#include "src/timetravel/distributed_run.h"
#include "src/timetravel/checkpoint_tree.h"

namespace tcsim {
namespace {

TimeTravelTree::Factory MakeFactory(uint64_t seed = 11) {
  return [seed] {
    BasicExperimentRun::Params params;
    params.seed = seed;
    return std::make_unique<BasicExperimentRun>(params);
  };
}

TEST(TimeTravelTest, RecordsPeriodicCheckpoints) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(tree.tree().size(), 5u);
  // A linear chain on branch 0.
  for (size_t i = 0; i < ids.size(); ++i) {
    const TreeNode& node = tree.tree()[ids[i]];
    EXPECT_EQ(node.branch, 0);
    EXPECT_EQ(node.parent, i == 0 ? -1 : ids[i - 1]);
    EXPECT_GT(node.image_bytes, 0u);
  }
}

TEST(TimeTravelTest, DeterministicReplayReproducesDigests) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  for (int id : ids) {
    EXPECT_TRUE(tree.VerifyDeterministicReplay(id)) << "checkpoint " << id;
  }
}

TEST(TimeTravelTest, ReplayCreatesNewBranch) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> original = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  const std::vector<int> branch =
      tree.ReplayFrom(original[1], 10 * kSecond, 2 * kSecond, /*perturb_seed=*/0);
  EXPECT_FALSE(branch.empty());
  EXPECT_EQ(tree.branch_count(), 2);
  EXPECT_EQ(tree.tree()[branch.front()].parent, original[1]);
  EXPECT_EQ(tree.tree()[branch.front()].branch, 1);
}

TEST(TimeTravelTest, UnperturbedReplayMatchesOriginalFuture) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> original = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  // Replaying from checkpoint 1 without perturbation must retrace the
  // original run: same checkpoint times, same digests.
  const std::vector<int> replay =
      tree.ReplayFrom(original[1], 10 * kSecond, 2 * kSecond, /*perturb_seed=*/0);
  ASSERT_EQ(replay.size(), original.size() - 2);
  for (size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(tree.tree()[replay[i]].digest, tree.tree()[original[i + 2]].digest);
    EXPECT_EQ(tree.tree()[replay[i]].time, tree.tree()[original[i + 2]].time);
  }
}

TEST(TimeTravelTest, PerturbedReplayDiverges) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> original = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  const std::vector<int> replay =
      tree.ReplayFrom(original[1], 10 * kSecond, 2 * kSecond, /*perturb_seed=*/777);
  ASSERT_FALSE(replay.empty());
  // The perturbed branch's final digest differs from the original's.
  EXPECT_NE(tree.tree()[replay.back()].digest, tree.tree()[original.back()].digest);
}

TEST(TimeTravelTest, TreeSupportsManyBranchesFromOnePoint) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> original = tree.RecordOriginalRun(6 * kSecond, 2 * kSecond);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<int> branch =
        tree.ReplayFrom(original[0], 6 * kSecond, 2 * kSecond, seed);
    EXPECT_FALSE(branch.empty());
    EXPECT_EQ(tree.tree()[branch.front()].parent, original[0]);
  }
  EXPECT_EQ(tree.branch_count(), 5);
}

// --- Image-based restore (the O(image) rollback path) --------------------------

TimeTravelTree::Factory MakeCpuFactory(uint64_t seed = 21) {
  return [seed] {
    CpuExperimentRun::Params params;
    params.seed = seed;
    return std::make_unique<CpuExperimentRun>(params);
  };
}

TEST(ImageRestoreTest, RestoredDigestMatchesRecordedOnMixedWorkload) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  ASSERT_GE(ids.size(), 3u);
  for (int id : ids) {
    ASSERT_NE(tree.tree()[id].image, nullptr);
    // A fresh simulator, overwritten from the image, must agree with the
    // recorded post-resume digest of the original run...
    EXPECT_TRUE(tree.VerifyImageRestore(id)) << "checkpoint " << id;
    // ...which the re-execution oracle independently reproduces.
    EXPECT_TRUE(tree.VerifyDeterministicReplay(id)) << "checkpoint " << id;
  }
}

TEST(ImageRestoreTest, RestoredDigestMatchesRecordedOnCpuWorkload) {
  TimeTravelTree tree(MakeCpuFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  ASSERT_GE(ids.size(), 3u);
  for (int id : ids) {
    EXPECT_TRUE(tree.VerifyImageRestore(id)) << "checkpoint " << id;
    EXPECT_TRUE(tree.VerifyDeterministicReplay(id)) << "checkpoint " << id;
  }
}

TEST(ImageRestoreTest, ImageReplayContinuesLikeTheOriginalFuture) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> original = tree.RecordOriginalRun(10 * kSecond, 2 * kSecond);
  // Force the image path: no re-execution from t=0 is allowed, and the
  // restored run's future must still retrace the original's.
  const std::vector<int> replay =
      tree.ReplayFrom(original[1], 10 * kSecond, 2 * kSecond, /*perturb_seed=*/0,
                      RestoreMode::kImage);
  ASSERT_EQ(replay.size(), original.size() - 2);
  for (size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(tree.tree()[replay[i]].digest, tree.tree()[original[i + 2]].digest);
    EXPECT_EQ(tree.tree()[replay[i]].time, tree.tree()[original[i + 2]].time);
  }
}

TEST(ImageRestoreTest, ImageAndReexecutionReplaysAgree) {
  TimeTravelTree tree(MakeCpuFactory());
  const std::vector<int> original = tree.RecordOriginalRun(8 * kSecond, 2 * kSecond);
  const std::vector<int> via_image =
      tree.ReplayFrom(original[0], 8 * kSecond, 2 * kSecond, /*perturb_seed=*/0,
                      RestoreMode::kImage);
  const std::vector<int> via_reexec =
      tree.ReplayFrom(original[0], 8 * kSecond, 2 * kSecond, /*perturb_seed=*/0,
                      RestoreMode::kReexecute);
  ASSERT_EQ(via_image.size(), via_reexec.size());
  for (size_t i = 0; i < via_image.size(); ++i) {
    EXPECT_EQ(tree.tree()[via_image[i]].digest, tree.tree()[via_reexec[i]].digest);
  }
}

TEST(ImageRestoreTest, PerturbedBranchCheckpointsAreRestorable) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> original = tree.RecordOriginalRun(8 * kSecond, 2 * kSecond);
  const std::vector<int> branch =
      tree.ReplayFrom(original[0], 8 * kSecond, 2 * kSecond, /*perturb_seed=*/777);
  ASSERT_FALSE(branch.empty());
  // Re-execution cannot reconstruct a perturbed branch (the perturbation
  // schedule isn't recorded), but the image can: the reseeded workload rng
  // is part of it.
  for (int id : branch) {
    EXPECT_TRUE(tree.VerifyImageRestore(id)) << "checkpoint " << id;
  }
}

TEST(ImageRestoreTest, CorruptImageIsRejectedWithoutTouchingTheRun) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(4 * kSecond, 2 * kSecond);
  std::vector<uint8_t> corrupt = *tree.tree()[ids[0]].image;
  corrupt[corrupt.size() / 2] ^= 0x40;
  BasicExperimentRun::Params params;
  params.seed = 11;
  BasicExperimentRun fresh(params);
  EXPECT_FALSE(fresh.RestoreFromImage(corrupt).has_value());
  // The untouched fresh run still works.
  fresh.AdvanceTo(kSecond);
  EXPECT_GT(fresh.counter(), 0u);
}

TEST(ImageRestoreTest, StagingBuffersDoNotLeakStaleBytesAcrossRestore) {
  // Regression: the engine's staging buffer, reused across captures, must be
  // rebuilt from post-restore state. Every capture resets it first, so its
  // old contents must not surface in the first post-restore capture.
  BasicExperimentRun::Params params;
  BasicExperimentRun run(params);
  run.AdvanceTo(1 * kSecond);
  const CheckpointCapture c1 = run.CaptureCheckpoint();
  run.AdvanceTo(2 * kSecond);
  const CheckpointCapture c2 = run.CaptureCheckpoint();
  ASSERT_NE(c1.image, nullptr);
  ASSERT_NE(c2.image, nullptr);

  // Roll back to c1, then capture again straight away into the reused
  // buffer.
  const std::optional<uint64_t> restored = run.RestoreFromImage(*c1.image);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, c1.digest);
  const CheckpointCapture c3 = run.CaptureCheckpoint();
  ASSERT_NE(c3.image, nullptr);

  // The reused-buffer capture must restore to exactly the state it named.
  BasicExperimentRun fresh(params);
  const std::optional<uint64_t> fresh_digest = fresh.RestoreFromImage(*c3.image);
  ASSERT_TRUE(fresh_digest.has_value());
  EXPECT_EQ(*fresh_digest, c3.digest);
}

TEST(RestoreTimeTest, RestoreTimeScalesWithImageSize) {
  TimeTravelTree tree(MakeFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(6 * kSecond, 2 * kSecond);
  const uint64_t rate = 70ull * 1024 * 1024;
  for (int id : ids) {
    const SimTime t = tree.EstimateRestoreTime(id, rate);
    const double expected =
        static_cast<double>(tree.tree()[id].image_bytes) / static_cast<double>(rate);
    EXPECT_NEAR(ToSeconds(t), expected, 1e-6);
  }
}


// --- Time travel over a distributed experiment --------------------------------

TimeTravelTree::Factory MakeDistributedFactory(uint64_t seed = 31) {
  return [seed] {
    DistributedExperimentRun::Params params;
    params.seed = seed;
    return std::make_unique<DistributedExperimentRun>(params);
  };
}

TEST(DistributedTimeTravelTest, RecordsCoordinatedCheckpointsOfBothNodes) {
  TimeTravelTree tree(MakeDistributedFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(20 * kSecond, 4 * kSecond);
  ASSERT_GE(ids.size(), 2u);
  for (int id : ids) {
    EXPECT_GT(tree.tree()[id].image_bytes, 0u);
  }
  auto* run = static_cast<DistributedExperimentRun*>(tree.active_run());
  EXPECT_GT(run->requests_completed(), 0u);
}

TEST(DistributedTimeTravelTest, DeterministicRollbackOfADistributedSystem) {
  TimeTravelTree tree(MakeDistributedFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(20 * kSecond, 4 * kSecond);
  // Re-executing to each checkpoint reconstructs the identical distributed
  // state: both nodes, the TCP connection, the in-flight traffic.
  for (int id : ids) {
    EXPECT_TRUE(tree.VerifyDeterministicReplay(id)) << "checkpoint " << id;
  }
}

TEST(DistributedTimeTravelTest, PerturbedReplayExploresDifferentExecutions) {
  TimeTravelTree tree(MakeDistributedFactory());
  const std::vector<int> ids = tree.RecordOriginalRun(20 * kSecond, 4 * kSecond);
  const std::vector<int> same =
      tree.ReplayFrom(ids[0], 20 * kSecond, 4 * kSecond, /*perturb_seed=*/0);
  const std::vector<int> perturbed =
      tree.ReplayFrom(ids[0], 20 * kSecond, 4 * kSecond, /*perturb_seed=*/99);
  ASSERT_FALSE(same.empty());
  ASSERT_FALSE(perturbed.empty());
  EXPECT_EQ(tree.tree()[same.back()].digest, tree.tree()[ids.back()].digest);
  EXPECT_NE(tree.tree()[perturbed.back()].digest, tree.tree()[ids.back()].digest);
}

}  // namespace
}  // namespace tcsim
