#include "src/sim/image.h"

#include <algorithm>
#include <utility>

namespace tcsim {
namespace {

// Lazily built table for the reflected IEEE CRC-32.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void CheckpointImageBuilder::AddChunk(std::string id,
                                      const std::vector<uint8_t>& payload) {
  staged_.entries.push_back(
      StagedEntry{std::move(id), staged_.buffer.size(), payload.size()});
  staged_.buffer.insert(staged_.buffer.end(), payload.begin(), payload.end());
}

std::vector<uint8_t> CheckpointImageBuilder::Serialize() const {
  return SerializeStagedImage(staged_);
}

CheckpointImageView::CheckpointImageView(const std::vector<uint8_t>& image) {
  ArchiveReader r(image);
  const uint32_t magic = r.Read<uint32_t>();
  if (!r.ok() || magic != kImageMagic) {
    Fail("bad magic");
    return;
  }
  version_ = r.Read<uint32_t>();
  if (!r.ok() || version_ != kImageFormatVersion) {
    Fail("unsupported format version " + std::to_string(version_));
    return;
  }
  const uint64_t count = r.Read<uint64_t>();
  if (!r.ok()) {
    Fail("truncated header");
    return;
  }
  // Every chunk frames at least its two lengths and its CRC, so a corrupt
  // count cannot over-reserve.
  constexpr uint64_t kMinChunkBytes = 2 * sizeof(uint64_t) + sizeof(uint32_t);
  const uint64_t capacity = std::min(count, r.remaining() / kMinChunkBytes);
  chunks_.reserve(capacity);
  index_.reserve(capacity);
  for (uint64_t i = 0; i < count; ++i) {
    const ByteSpan id_bytes = r.ReadSpan(r.Read<uint64_t>());
    const uint64_t len = r.Read<uint64_t>();
    const uint32_t crc = r.Read<uint32_t>();
    if (!r.ok()) {
      Fail("truncated chunk table");
      return;
    }
    const ByteSpan payload = r.ReadSpan(len);
    if (!r.ok()) {
      Fail("truncated chunk payload");
      return;
    }
    const std::string_view id(reinterpret_cast<const char*>(id_bytes.data),
                              id_bytes.size);
    if (!index_.emplace(id, chunks_.size()).second) {
      // No reader uses a dropped duplicate's bytes, but a flipped bit
      // anywhere in an image is still an error.
      if (Crc32(payload.data, payload.size) != crc) {
        Fail("CRC mismatch in chunk '" + std::string(id) + "'");
        return;
      }
      continue;
    }
    chunks_.push_back(Chunk{id, payload, crc});
  }
  for (const Chunk& c : chunks_) {
    if (Crc32(c.payload.data, c.payload.size) != c.crc) {
      Fail("CRC mismatch in chunk '" + std::string(c.id) + "'");
      return;
    }
  }
  ok_ = true;
}

void CheckpointImageView::Fail(const std::string& why) {
  ok_ = false;
  error_ = why;
  chunks_.clear();
  index_.clear();
}

const CheckpointImageView::Chunk* CheckpointImageView::Find(
    std::string_view id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &chunks_[it->second];
}

bool CheckpointImageView::RestoreInto(Checkpointable& c) const {
  const Chunk* chunk = Find(c.checkpoint_id());
  if (chunk == nullptr) {
    return false;
  }
  ArchiveReader r(chunk->payload);
  c.RestoreState(r);
  return r.ok();
}

}  // namespace tcsim
