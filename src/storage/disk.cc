#include "src/storage/disk.h"

#include <utility>

namespace tcsim {

void Disk::Submit(bool write, uint64_t offset_blocks, uint64_t nblocks,
                  std::function<void()> done) {
  queue_.push_back({write, offset_blocks, nblocks, std::move(done)});
  StartNext();
}

void Disk::StartNext() {
  if (busy_ || queue_.empty()) {
    return;
  }
  busy_ = true;
  Request req = std::move(queue_.front());
  queue_.pop_front();

  SimTime service = 0;
  if (req.offset != head_pos_) {
    const uint64_t distance =
        req.offset > head_pos_ ? req.offset - head_pos_ : head_pos_ - req.offset;
    if (distance <= params_.short_seek_blocks) {
      service += params_.short_seek_time;
      ++short_seeks_;
    } else {
      service += params_.seek_time;
      ++seeks_;
    }
  }
  service += static_cast<SimTime>(static_cast<double>(req.nblocks * kBlockSize) * 1e9 /
                                  static_cast<double>(params_.transfer_rate_bytes_per_sec));
  head_pos_ = req.offset + req.nblocks;
  busy_time_ += service;
  if (req.write) {
    blocks_written_ += req.nblocks;
  } else {
    blocks_read_ += req.nblocks;
  }

  sim_->Schedule(service, [this, done = std::move(req.done)] {
    busy_ = false;
    if (done) {
      done();
    }
    StartNext();
  });
}

}  // namespace tcsim
