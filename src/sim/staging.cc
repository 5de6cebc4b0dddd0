#include "src/sim/staging.h"

#include <cassert>
#include <utility>

#include "src/sim/archive.h"
#include "src/sim/image.h"

namespace tcsim {

std::vector<uint8_t> SerializeStagedImage(const StagedCapture& capture) {
  // The v1 layout of CheckpointImageBuilder::Serialize, sized once: each
  // staged entry is copied straight from the staging buffer into the image.
  size_t total = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  for (const StagedEntry& entry : capture.entries) {
    // Partition captures never skip: every entry carries its bytes.
    assert(!entry.version_skip);
    total += sizeof(uint64_t) + entry.id.size() + sizeof(uint64_t) +
             sizeof(uint32_t) + entry.size;
  }
  ArchiveWriter w;
  w.Reserve(total);
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(kImageFormatVersion);
  w.Write<uint64_t>(capture.entries.size());
  for (const StagedEntry& entry : capture.entries) {
    const uint8_t* p = capture.entry_data(entry);
    w.WriteString(entry.id);
    w.Write<uint64_t>(entry.size);
    w.Write<uint32_t>(Crc32(p, entry.size));
    w.WriteBytes(p, entry.size);
  }
  return w.Take();
}

void StagingBufferPool::Acquire(StagedCapture* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out->buffer.capacity() == 0 && !free_.empty()) {
    out->buffer = std::move(free_.back());
    free_.pop_back();
  }
  out->Reset();
  out->generation = generation_;
}

void StagingBufferPool::Release(StagedCapture* capture) {
  std::lock_guard<std::mutex> lock(mu_);
  capture->entries.clear();
  capture->buffer.clear();
  if (capture->buffer.capacity() != 0) {
    free_.push_back(std::move(capture->buffer));
    capture->buffer = std::vector<uint8_t>();
  }
  capture->generation = 0;
}

void StagingBufferPool::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
}

uint64_t StagingBufferPool::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

}  // namespace tcsim
