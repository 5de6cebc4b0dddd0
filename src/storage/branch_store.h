// Three-level branching copy-on-write storage (Section 5.1, Figure 3).
//
// A guest's logical disk is the composition of:
//   - the immutable golden image (linear addressing: logical == physical),
//   - the aggregated delta (all changes from previous swap-ins),
//   - the current delta (changes since the current swap-in),
// stitched together copy-on-write. The current delta is a redo log: writes
// append sequentially and are indexed by a hash lookup, so a copy-on-write
// is always a complete overwrite and never requires a read-before-write —
// the optimization responsible for the 74% write gap versus the original
// LVM behaviour in Figure 8 (which this class reproduces as WriteMode
// kReadBeforeWrite).
//
// Content metadata updates are synchronous (maps), while all data movement
// is timed through the underlying Disk, including the scattered on-disk
// metadata-region initialisation that makes a freshly created branch ~17%
// slower on sequential writes until the regions fill in.

#ifndef TCSIM_SRC_STORAGE_BRANCH_STORE_H_
#define TCSIM_SRC_STORAGE_BRANCH_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/sim/checkpointable.h"
#include "src/storage/block_device.h"
#include "src/storage/disk.h"

namespace tcsim {

// A plain linear-addressed device over a Disk; used as the Figure 8 "Base"
// configuration and as the reference device in property tests.
class RawDisk : public BlockDevice {
 public:
  RawDisk(Disk* disk, uint64_t size_blocks) : disk_(disk), size_blocks_(size_blocks) {}

  void Read(uint64_t block, uint32_t nblocks,
            std::function<void(std::vector<uint64_t>)> done) override;
  void Write(uint64_t block, const std::vector<uint64_t>& contents,
             std::function<void()> done) override;
  uint64_t size_blocks() const override { return size_blocks_; }

 private:
  Disk* disk_;
  uint64_t size_blocks_;
  std::unordered_map<uint64_t, uint64_t> contents_;
};

// The branching store.
class BranchStore : public BlockDevice, public Checkpointable {
 public:
  enum class WriteMode {
    kRedoLog,           // our modified LVM: append-only log, no read-before-write
    kReadBeforeWrite,   // original LVM snapshot behaviour (Figure 8 "Branch-Orig")
  };

  BranchStore(Disk* disk, uint64_t size_blocks, WriteMode mode = WriteMode::kRedoLog);

  // Pre-populates the golden image (cheap, metadata only: the image is
  // assumed to be on disk already, as after a Frisbee load).
  void LoadGoldenImage(const std::unordered_map<uint64_t, uint64_t>& contents);

  // BlockDevice interface.
  void Read(uint64_t block, uint32_t nblocks,
            std::function<void(std::vector<uint64_t>)> done) override;
  void Write(uint64_t block, const std::vector<uint64_t>& contents,
             std::function<void()> done) override;
  uint64_t size_blocks() const override { return size_blocks_; }

  // Registers the free-block plugin: blocks reported free are excluded from
  // LiveDeltaBlocks() and from swap-out transfer sizing (Section 5.1).
  void SetFreeBlockFilter(std::function<bool(uint64_t)> is_free) {
    free_filter_ = std::move(is_free);
  }

  // Merges the current delta into the aggregated delta (performed offline
  // after a swap-out). When `reorder` is true, blocks are re-laid-out in
  // logical order to restore read locality (the paper's merge-time
  // reordering optimisation).
  void MergeCurrentIntoAggregated(bool reorder = true);

  // Drops the current delta (discard a branch).
  void DiscardCurrentDelta();

  // --- Sizing (drives swap-out/swap-in transfer times) -----------------------
  uint64_t current_delta_blocks() const { return current_.size(); }
  uint64_t aggregated_delta_blocks() const { return aggregated_.size(); }

  // Current-delta blocks after free-block elimination.
  uint64_t LiveDeltaBlocks() const;

  // Logical block numbers in the current delta after free-block elimination
  // (the set a stateful swap-out must ship).
  std::set<uint64_t> LiveDeltaBlockSet() const;

  // Logical block numbers in the aggregated delta (what a stateful swap-in
  // must transfer, lazily or eagerly).
  std::set<uint64_t> AggregatedBlockSet() const;

  WriteMode mode() const { return mode_; }
  Disk* disk() { return disk_; }

  // Levels a read resolves through, newest first (diagnostics).
  enum class Level { kCurrent, kAggregated, kGolden };
  Level ResolveLevel(uint64_t block) const;

  // A delta-level mapping entry: logical content plus the physical slot it
  // occupies within the level's disk area. Public for serialization helpers.
  struct Extent {
    uint64_t content;
    uint64_t slot;  // physical slot within the level's disk area
  };

  // Checkpointable: both delta levels (extent maps, written in sorted block
  // order for bit-stable images), allocator heads and the touched metadata
  // regions. The golden image is immutable and deliberately excluded — the
  // restore target rebuilds it the same way the original node did, which is
  // what keeps per-checkpoint images O(delta), not O(disk).
  std::string checkpoint_id() const override { return "storage.branch"; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;

 private:
  // Disk layout (block addresses on the physical disk).
  uint64_t GoldenBase() const { return 0; }
  uint64_t AggregatedBase() const { return size_blocks_; }
  uint64_t LogBase() const { return 2 * size_blocks_; }
  uint64_t MetaBase() const { return 3 * size_blocks_; }

  // Metadata region covering `block`; first touch pays a scattered write.
  uint64_t MetaRegion(uint64_t block) const { return block / kMetaRegionBlocks; }

  uint64_t ResolveContent(uint64_t block) const;
  uint64_t ResolvePhysical(uint64_t block) const;

  static constexpr uint64_t kMetaRegionBlocks = 1024;  // 4 MB per region

  Disk* disk_;
  uint64_t size_blocks_;
  WriteMode mode_;
  std::unordered_map<uint64_t, uint64_t> golden_;
  std::unordered_map<uint64_t, Extent> aggregated_;
  std::unordered_map<uint64_t, Extent> current_;
  uint64_t log_head_ = 0;        // next free slot in the log area
  uint64_t agg_next_slot_ = 0;   // next free slot in the aggregated area
  std::unordered_set<uint64_t> initialized_meta_regions_;
  std::function<bool(uint64_t)> free_filter_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_STORAGE_BRANCH_STORE_H_
