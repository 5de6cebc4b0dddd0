// A simple mechanical disk model.
//
// Service time for a request is a seek penalty (charged when the request is
// not contiguous with the previous one) plus transfer time at the media
// rate. This is enough to reproduce the storage effects the paper measures:
// sequential redo-log appends are fast, scattered metadata updates and
// read-before-write copies pay seeks, and background transfers contend with
// foreground I/O in the request queue.

#ifndef TCSIM_SRC_STORAGE_DISK_H_
#define TCSIM_SRC_STORAGE_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/sim/checkpointable.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

inline constexpr uint64_t kBlockSize = 4096;  // bytes per block

// Disk performance parameters (defaults approximate the paper's 10k RPM
// SCSI disks). Seeks are two-tier: a "short" seek (near cylinders; also
// stands in for what the elevator and write-behind cache absorb) versus a
// full-stroke seek across disk areas.
struct DiskParams {
  uint64_t transfer_rate_bytes_per_sec = 70'000'000;
  SimTime seek_time = 5 * kMillisecond;  // average seek + rotational latency
  SimTime short_seek_time = 300 * kMicrosecond;
  uint64_t short_seek_blocks = 262144;  // within 1 GB counts as short
};

// FIFO-service disk with asynchronous completion callbacks. Offsets and
// lengths are in blocks.
class Disk : public Checkpointable {
 public:
  Disk(Simulator* sim, DiskParams params) : sim_(sim), params_(params) {}

  // Names this disk's chunk in a composite node image (a node owns several
  // disks, so ids like "storage.disk.data" are assigned by the owner).
  void SetCheckpointId(std::string id) { checkpoint_id_ = std::move(id); }

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Submits a request; `done` fires when the transfer completes. `offset` is
  // a device block address used only for contiguity/seek accounting.
  void Submit(bool write, uint64_t offset_blocks, uint64_t nblocks,
              std::function<void()> done);

  bool idle() const { return !busy_ && queue_.empty(); }
  size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }

  uint64_t blocks_read() const { return blocks_read_; }
  uint64_t blocks_written() const { return blocks_written_; }
  uint64_t seeks() const { return seeks_; }            // full-stroke seeks
  uint64_t short_seeks() const { return short_seeks_; }

  const DiskParams& params() const { return params_; }

  // Checkpointable: head position and accounting counters. Captured only at
  // quiescent points (the checkpoint engine drains block I/O first), so the
  // request queue is empty by construction and is not serialized.
  std::string checkpoint_id() const override { return checkpoint_id_; }
  void SaveState(ArchiveWriter* w) const override {
    w->Write<uint64_t>(head_pos_);
    w->Write<uint64_t>(blocks_read_);
    w->Write<uint64_t>(blocks_written_);
    w->Write<uint64_t>(seeks_);
    w->Write<uint64_t>(short_seeks_);
    w->Write<SimTime>(busy_time_);
  }
  void RestoreState(ArchiveReader& r) override {
    head_pos_ = r.Read<uint64_t>();
    blocks_read_ = r.Read<uint64_t>();
    blocks_written_ = r.Read<uint64_t>();
    seeks_ = r.Read<uint64_t>();
    short_seeks_ = r.Read<uint64_t>();
    busy_time_ = r.Read<SimTime>();
    busy_ = false;
    queue_.clear();
  }

 private:
  struct Request {
    bool write;
    uint64_t offset;
    uint64_t nblocks;
    std::function<void()> done;
  };

  void StartNext();

  Simulator* sim_;
  DiskParams params_;
  std::string checkpoint_id_ = "storage.disk";
  std::deque<Request> queue_;
  bool busy_ = false;
  uint64_t head_pos_ = 0;  // block address just past the last transfer
  uint64_t blocks_read_ = 0;
  uint64_t blocks_written_ = 0;
  uint64_t seeks_ = 0;
  uint64_t short_seeks_ = 0;
  SimTime busy_time_ = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_STORAGE_DISK_H_
