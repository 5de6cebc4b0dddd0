#include "src/sim/image.h"

#include <cstring>
#include <set>
#include <utility>

#include "src/sim/archive.h"

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

// Serialized size of a length-prefixed string.
size_t StringWireSize(const std::string& s) {
  return sizeof(uint64_t) + s.size();
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
                                      std::vector<uint8_t> payload) {
  chunks_.push_back(PendingChunk{std::move(id), std::move(payload)});
}

std::vector<uint8_t> CheckpointImageBuilder::Serialize() const {
  size_t total = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  for (const PendingChunk& c : chunks_) {
    total += StringWireSize(c.id) + sizeof(uint64_t) + sizeof(uint32_t) +
             c.payload.size();
  }

  ArchiveWriter w;
  w.Reserve(total);
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(kImageFormatVersion);
  w.Write<uint64_t>(chunks_.size());
  for (const PendingChunk& c : chunks_) {
    w.WriteString(c.id);
    w.Write<uint64_t>(c.payload.size());
    w.Write<uint32_t>(Crc32(c.payload));
    w.WriteBytes(c.payload.data(), c.payload.size());
  }
  return w.Take();
}

CheckpointImageView::CheckpointImageView(const std::vector<uint8_t>& image) {
  const CheckpointImageLiteView lite(image);
  version_ = lite.format_version();
  if (!lite.ok()) {
    error_ = lite.error();
    return;
  }
  for (const CheckpointImageLiteView::Chunk& c : lite.chunks()) {
    if (Crc32(c.payload.data, c.payload.size) != c.crc) {
      error_ = "CRC mismatch in chunk '" + c.id + "'";
      return;
    }
  }
  for (const CheckpointImageLiteView::Chunk& c : lite.chunks()) {
    chunks_.emplace(c.id, std::vector<uint8_t>(c.payload.data,
                                               c.payload.data + c.payload.size));
    order_.push_back(c.id);
  }
  ok_ = true;
}

bool CheckpointImageView::HasChunk(const std::string& id) const {
  return ok_ && chunks_.count(id) != 0;
}

const std::vector<uint8_t>& CheckpointImageView::Chunk(
    const std::string& id) const {
  return chunks_.at(id);
}

namespace {

// Bounds-checked forward cursor over the raw image bytes; every read either
// advances or trips the sticky fail flag (mirrors ArchiveReader, but hands
// out spans instead of copies).
struct SpanCursor {
  const uint8_t* base;
  uint64_t size;
  uint64_t pos = 0;
  bool ok = true;

  template <typename T>
  T Read() {
    T v{};
    if (!ok || size - pos < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, base + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string ReadString() {
    const uint64_t n = Read<uint64_t>();
    if (!ok || n > size - pos) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(base + pos), n);
    pos += n;
    return s;
  }

  ByteSpan ReadSpan(uint64_t n) {
    if (!ok || n > size - pos) {
      ok = false;
      return {};
    }
    ByteSpan span{base + pos, n};
    pos += n;
    return span;
  }
};

}  // namespace

CheckpointImageLiteView::CheckpointImageLiteView(
    const std::vector<uint8_t>& image) {
  SpanCursor c{image.data(), image.size()};
  const uint32_t magic = c.Read<uint32_t>();
  if (!c.ok || magic != kImageMagic) {
    Fail("bad magic");
    return;
  }
  version_ = c.Read<uint32_t>();
  if (!c.ok || version_ != kImageFormatVersion) {
    Fail("unsupported format version " + std::to_string(version_));
    return;
  }
  const uint64_t count = c.Read<uint64_t>();
  if (!c.ok) {
    Fail("truncated header");
    return;
  }
  std::set<std::string> seen;
  for (uint64_t i = 0; i < count; ++i) {
    std::string id = c.ReadString();
    const uint64_t len = c.Read<uint64_t>();
    const uint32_t crc = c.Read<uint32_t>();
    if (!c.ok) {
      Fail("truncated chunk table");
      return;
    }
    ByteSpan payload = c.ReadSpan(len);
    if (!c.ok) {
      Fail("truncated chunk payload");
      return;
    }
    if (!seen.insert(id).second) {
      // No reader uses a dropped duplicate's bytes, but a flipped bit
      // anywhere in an image is still an error.
      if (Crc32(payload.data, payload.size) != crc) {
        Fail("CRC mismatch in chunk '" + id + "'");
        return;
      }
      continue;
    }
    chunks_.push_back(Chunk{std::move(id), payload, crc});
  }
  ok_ = true;
}

void CheckpointImageLiteView::Fail(const std::string& why) {
  ok_ = false;
  error_ = why;
  chunks_.clear();
}

bool CheckpointImageView::RestoreInto(Checkpointable& c) const {
  const std::string id = c.checkpoint_id();
  if (!HasChunk(id)) {
    return false;
  }
  ArchiveReader r(Chunk(id));
  c.RestoreState(r);
  return r.ok();
}

}  // namespace tcsim
