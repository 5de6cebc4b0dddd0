#include "src/storage/branch_store.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/obs/metrics.h"

namespace tcsim {

namespace {

// CoW data-path counters, resolved once on first use.
obs::Counter* CowCounter(const char* name) {
  return obs::MetricsRegistry::Global().FindCounter(name);
}

}  // namespace

// --- RawDisk ----------------------------------------------------------------

void RawDisk::Read(uint64_t block, uint32_t nblocks,
                   std::function<void(std::vector<uint64_t>)> done) {
  std::vector<uint64_t> contents(nblocks, kZeroContent);
  for (uint32_t i = 0; i < nblocks; ++i) {
    auto it = contents_.find(block + i);
    if (it != contents_.end()) {
      contents[i] = it->second;
    }
  }
  disk_->Submit(/*write=*/false, block, nblocks,
                [done = std::move(done), contents = std::move(contents)]() mutable {
                  if (done) {
                    done(std::move(contents));
                  }
                });
}

void RawDisk::Write(uint64_t block, const std::vector<uint64_t>& contents,
                    std::function<void()> done) {
  for (size_t i = 0; i < contents.size(); ++i) {
    contents_[block + i] = contents[i];
  }
  disk_->Submit(/*write=*/true, block, contents.size(), std::move(done));
}

// --- BranchStore ------------------------------------------------------------

BranchStore::BranchStore(Disk* disk, uint64_t size_blocks, WriteMode mode)
    : disk_(disk), size_blocks_(size_blocks), mode_(mode) {}

void BranchStore::LoadGoldenImage(const std::unordered_map<uint64_t, uint64_t>& contents) {
  golden_ = contents;
}

BranchStore::Level BranchStore::ResolveLevel(uint64_t block) const {
  if (current_.count(block) > 0) {
    return Level::kCurrent;
  }
  if (aggregated_.count(block) > 0) {
    return Level::kAggregated;
  }
  return Level::kGolden;
}

uint64_t BranchStore::ResolveContent(uint64_t block) const {
  if (auto it = current_.find(block); it != current_.end()) {
    return it->second.content;
  }
  if (auto it = aggregated_.find(block); it != aggregated_.end()) {
    return it->second.content;
  }
  if (auto it = golden_.find(block); it != golden_.end()) {
    return it->second;
  }
  return kZeroContent;
}

uint64_t BranchStore::ResolvePhysical(uint64_t block) const {
  if (auto it = current_.find(block); it != current_.end()) {
    return LogBase() + it->second.slot;
  }
  if (auto it = aggregated_.find(block); it != aggregated_.end()) {
    return AggregatedBase() + it->second.slot;
  }
  return GoldenBase() + block;  // linear addressing, VBA == PBA
}

void BranchStore::Read(uint64_t block, uint32_t nblocks,
                       std::function<void(std::vector<uint64_t>)> done) {
  assert(block + nblocks <= size_blocks_);
  static obs::Counter* const reads = CowCounter("storage.cow.reads");
  static obs::Counter* const read_blocks = CowCounter("storage.cow.read_blocks");
  reads->Increment();
  read_blocks->Add(nblocks);
  std::vector<uint64_t> contents(nblocks);
  for (uint32_t i = 0; i < nblocks; ++i) {
    contents[i] = ResolveContent(block + i);
  }

  // Group the range into physically contiguous runs and issue one disk
  // request per run; a run boundary means a level change or a slot gap.
  struct Run {
    uint64_t phys;
    uint64_t len;
  };
  std::vector<Run> runs;
  for (uint32_t i = 0; i < nblocks; ++i) {
    const uint64_t phys = ResolvePhysical(block + i);
    if (!runs.empty() && runs.back().phys + runs.back().len == phys) {
      ++runs.back().len;
    } else {
      runs.push_back({phys, 1});
    }
  }

  auto outstanding = std::make_shared<size_t>(runs.size());
  auto finish = [outstanding, done = std::move(done),
                 contents = std::move(contents)]() mutable {
    if (--*outstanding == 0 && done) {
      done(std::move(contents));
    }
  };
  for (const Run& run : runs) {
    disk_->Submit(/*write=*/false, run.phys, run.len, finish);
  }
}

void BranchStore::Write(uint64_t block, const std::vector<uint64_t>& contents,
                        std::function<void()> done) {
  assert(block + contents.size() <= size_blocks_);
  const uint32_t nblocks = static_cast<uint32_t>(contents.size());
  static obs::Counter* const writes = CowCounter("storage.cow.writes");
  static obs::Counter* const write_blocks = CowCounter("storage.cow.write_blocks");
  writes->Increment();
  write_blocks->Add(nblocks);

  // Which metadata regions does this write touch for the first time, and
  // which blocks are first-writes to the branch (read-before-write in the
  // original LVM mode)?
  std::vector<uint64_t> new_regions;
  std::vector<uint64_t> rbw_reads;  // physical addresses to read first
  for (uint32_t i = 0; i < nblocks; ++i) {
    const uint64_t b = block + i;
    const uint64_t region = MetaRegion(b);
    if (initialized_meta_regions_.insert(region).second) {
      new_regions.push_back(region);
    }
    if (mode_ == WriteMode::kReadBeforeWrite && current_.count(b) == 0) {
      rbw_reads.push_back(ResolvePhysical(b));
    }
  }

  // Update the translation map synchronously: the write is a complete
  // overwrite appended at the log head.
  const uint64_t start_slot = log_head_;
  for (uint32_t i = 0; i < nblocks; ++i) {
    current_[block + i] = Extent{contents[i], log_head_++};
  }

  const size_t total_requests = new_regions.size() + rbw_reads.size() + 1;
  auto outstanding = std::make_shared<size_t>(total_requests);
  auto finish = [outstanding, done = std::move(done)]() mutable {
    if (--*outstanding == 0 && done) {
      done();
    }
  };

  for (uint64_t region : new_regions) {
    disk_->Submit(/*write=*/true, MetaBase() + region, 1, finish);
  }
  for (uint64_t phys : rbw_reads) {
    disk_->Submit(/*write=*/false, phys, 1, finish);
  }
  disk_->Submit(/*write=*/true, LogBase() + start_slot, nblocks, finish);
}

void BranchStore::MergeCurrentIntoAggregated(bool reorder) {
  for (const auto& [block, extent] : current_) {
    aggregated_[block] = extent;  // slot reassigned below
  }
  current_.clear();
  log_head_ = 0;

  // Re-lay-out the aggregated delta. With reordering, blocks are placed in
  // logical order so later sequential reads of the delta stay sequential.
  std::vector<uint64_t> blocks;
  blocks.reserve(aggregated_.size());
  for (const auto& [block, extent] : aggregated_) {
    blocks.push_back(block);
  }
  if (reorder) {
    std::sort(blocks.begin(), blocks.end());
  }
  agg_next_slot_ = 0;
  for (uint64_t block : blocks) {
    aggregated_[block].slot = agg_next_slot_++;
  }
}

void BranchStore::DiscardCurrentDelta() {
  current_.clear();
  log_head_ = 0;
}

std::set<uint64_t> BranchStore::LiveDeltaBlockSet() const {
  std::set<uint64_t> blocks;
  for (const auto& [block, extent] : current_) {
    if (!free_filter_ || !free_filter_(block)) {
      blocks.insert(block);
    }
  }
  return blocks;
}

std::set<uint64_t> BranchStore::AggregatedBlockSet() const {
  std::set<uint64_t> blocks;
  for (const auto& [block, extent] : aggregated_) {
    blocks.insert(block);
  }
  return blocks;
}

uint64_t BranchStore::LiveDeltaBlocks() const {
  if (!free_filter_) {
    return current_.size();
  }
  uint64_t live = 0;
  for (const auto& [block, extent] : current_) {
    if (!free_filter_(block)) {
      ++live;
    }
  }
  return live;
}

namespace {

// Writes an extent map in sorted block order: unordered_map iteration order
// is not stable across processes, and images must be bit-reproducible.
void SaveExtentMap(ArchiveWriter* w,
                   const std::unordered_map<uint64_t, BranchStore::Extent>& map) {
  std::vector<uint64_t> blocks;
  blocks.reserve(map.size());
  for (const auto& [block, extent] : map) {
    blocks.push_back(block);
  }
  std::sort(blocks.begin(), blocks.end());
  w->Write<uint64_t>(blocks.size());
  for (uint64_t block : blocks) {
    const BranchStore::Extent& extent = map.at(block);
    w->Write<uint64_t>(block);
    w->Write<uint64_t>(extent.content);
    w->Write<uint64_t>(extent.slot);
  }
}

void RestoreExtentMap(ArchiveReader& r,
                      std::unordered_map<uint64_t, BranchStore::Extent>* map) {
  map->clear();
  const uint64_t n = r.Read<uint64_t>();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    const uint64_t block = r.Read<uint64_t>();
    BranchStore::Extent extent;
    extent.content = r.Read<uint64_t>();
    extent.slot = r.Read<uint64_t>();
    if (r.ok()) {
      (*map)[block] = extent;
    }
  }
}

}  // namespace

void BranchStore::SaveState(ArchiveWriter* w) const {
  SaveExtentMap(w, aggregated_);
  SaveExtentMap(w, current_);
  w->Write<uint64_t>(log_head_);
  w->Write<uint64_t>(agg_next_slot_);
  std::vector<uint64_t> regions(initialized_meta_regions_.begin(),
                                initialized_meta_regions_.end());
  std::sort(regions.begin(), regions.end());
  w->WriteVector(regions);
}

void BranchStore::RestoreState(ArchiveReader& r) {
  RestoreExtentMap(r, &aggregated_);
  RestoreExtentMap(r, &current_);
  log_head_ = r.Read<uint64_t>();
  agg_next_slot_ = r.Read<uint64_t>();
  const std::vector<uint64_t> regions = r.ReadVector<uint64_t>();
  initialized_meta_regions_.clear();
  initialized_meta_regions_.insert(regions.begin(), regions.end());
}

}  // namespace tcsim
