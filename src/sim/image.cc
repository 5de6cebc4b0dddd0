#include "src/sim/image.h"

#include <cassert>
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
  chunks_.push_back(
      PendingChunk{std::move(id), kChunkKindPayload, std::move(payload), 0});
}

void CheckpointImageBuilder::AddDeltaChunk(std::string id,
                                           uint32_t expected_parent_crc) {
  chunks_.push_back(
      PendingChunk{std::move(id), kChunkKindDeltaRef, {}, expected_parent_crc});
}

void CheckpointImageBuilder::SetDeltaHeader(uint64_t image_id,
                                            uint64_t parent_id) {
  delta_header_ = true;
  image_id_ = image_id;
  parent_id_ = parent_id;
}

std::vector<uint8_t> CheckpointImageBuilder::Serialize() const {
  bool has_delta_chunks = false;
  size_t total = 3 * sizeof(uint32_t) + sizeof(uint64_t);  // v1 header bound
  for (const PendingChunk& c : chunks_) {
    total += StringWireSize(c.id) + sizeof(uint8_t);
    if (c.kind == kChunkKindPayload) {
      total += sizeof(uint64_t) + sizeof(uint32_t) + c.payload.size();
    } else {
      total += sizeof(uint32_t);
      has_delta_chunks = true;
    }
  }
  // A delta ref is meaningless without a parent to resolve it against;
  // readers reject such images, so refuse to build one.
  assert(!(has_delta_chunks && (!delta_header_ || parent_id_ == 0)));
  (void)has_delta_chunks;

  const bool v2 = delta_header_;
  if (v2) {
    total += 2 * sizeof(uint64_t);
  }

  ArchiveWriter w;
  w.Reserve(total);
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(v2 ? kImageFormatVersionDelta : kImageFormatVersion);
  if (v2) {
    w.Write<uint64_t>(image_id_);
    w.Write<uint64_t>(parent_id_);
  }
  w.Write<uint64_t>(chunks_.size());
  for (const PendingChunk& c : chunks_) {
    w.WriteString(c.id);
    if (v2) {
      w.Write<uint8_t>(c.kind);
    }
    if (c.kind == kChunkKindPayload) {
      w.Write<uint64_t>(c.payload.size());
      w.Write<uint32_t>(Crc32(c.payload));
      w.WriteBytes(c.payload.data(), c.payload.size());
    } else {
      w.Write<uint32_t>(c.expected_crc);
    }
  }
  return w.Take();
}

CheckpointImageView::CheckpointImageView(const std::vector<uint8_t>& image) {
  const CheckpointImageLiteView lite(image);
  version_ = lite.format_version();
  image_id_ = lite.image_id();
  parent_id_ = lite.parent_id();
  if (!lite.ok()) {
    error_ = lite.error();
    return;
  }
  for (const auto* chunks : {&lite.chunks(), &lite.shadowed_}) {
    for (const CheckpointImageLiteView::Chunk& c : *chunks) {
      if (c.kind == kChunkKindPayload &&
          Crc32(c.payload.data, c.payload.size) != c.crc) {
        error_ = "CRC mismatch in chunk '" + c.id + "'";
        return;
      }
    }
  }
  for (const CheckpointImageLiteView::Chunk& c : lite.chunks()) {
    chunks_.emplace(c.id, ParsedChunk{c.kind,
                                      std::vector<uint8_t>(
                                          c.payload.data,
                                          c.payload.data + c.payload.size),
                                      c.crc});
    order_.push_back(c.id);
  }
  delta_ref_count_ = lite.delta_ref_count();
  ok_ = true;
}

bool CheckpointImageView::HasChunk(const std::string& id) const {
  if (!ok_) {
    return false;
  }
  auto it = chunks_.find(id);
  return it != chunks_.end() && it->second.kind == kChunkKindPayload;
}

const std::vector<uint8_t>& CheckpointImageView::Chunk(
    const std::string& id) const {
  return chunks_.at(id).payload;
}

bool CheckpointImageView::HasDeltaRef(const std::string& id) const {
  if (!ok_) {
    return false;
  }
  auto it = chunks_.find(id);
  return it != chunks_.end() && it->second.kind == kChunkKindDeltaRef;
}

uint32_t CheckpointImageView::DeltaRefCrc(const std::string& id) const {
  return chunks_.at(id).crc;
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
  if (!c.ok || (version_ != kImageFormatVersion &&
                version_ != kImageFormatVersionDelta)) {
    Fail("unsupported format version " + std::to_string(version_));
    return;
  }
  const bool v2 = version_ == kImageFormatVersionDelta;
  if (v2) {
    image_id_ = c.Read<uint64_t>();
    parent_id_ = c.Read<uint64_t>();
  }
  const uint64_t count = c.Read<uint64_t>();
  if (!c.ok) {
    Fail("truncated header");
    return;
  }
  std::set<std::string> seen;
  for (uint64_t i = 0; i < count; ++i) {
    std::string id = c.ReadString();
    uint8_t kind = kChunkKindPayload;
    if (v2) {
      kind = c.Read<uint8_t>();
      if (c.ok && kind != kChunkKindPayload && kind != kChunkKindDeltaRef) {
        Fail("unknown chunk kind in chunk '" + id + "'");
        return;
      }
    }
    if (kind == kChunkKindPayload) {
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
        if (v2) {
          Fail("duplicate chunk id '" + id + "'");
          return;
        }
        shadowed_.push_back(Chunk{std::move(id), kind, payload, crc});
        continue;
      }
      chunks_.push_back(Chunk{std::move(id), kind, payload, crc});
    } else {
      const uint32_t expected_crc = c.Read<uint32_t>();
      if (!c.ok) {
        Fail("truncated delta ref");
        return;
      }
      if (parent_id_ == 0) {
        Fail("delta ref in chunk '" + id + "' of a parentless image");
        return;
      }
      if (!seen.insert(id).second) {
        Fail("duplicate chunk id '" + id + "'");
        return;
      }
      chunks_.push_back(Chunk{std::move(id), kind, {}, expected_crc});
      ++delta_ref_count_;
    }
  }
  ok_ = true;
}

void CheckpointImageLiteView::Fail(const std::string& why) {
  ok_ = false;
  error_ = why;
  chunks_.clear();
  shadowed_.clear();
  delta_ref_count_ = 0;
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
