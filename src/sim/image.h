// The versioned, chunked checkpoint-image container.
//
// A composite node image is a sequence of named chunks, one per
// Checkpointable component, wrapped in a small self-describing envelope.
//
// Format v1:
//
//   header : magic u32 ("TCKP") | format version u32 | chunk count u64
//   chunk  : id (length-prefixed string) | payload length u64 | CRC32 u32
//          | payload bytes
//
// Every image is self-contained: each chunk carries its component's payload.
// Unchanged state costs no extra disk because the repository stores each
// payload once by content (see CheckpointRepo). Version 1 is the only format:
// CheckpointImageView refuses every other version, the retired version 2
// included.
//
// Properties:
//  - Versioned: a reader rejects images whose major format version it does
//    not understand (no silent misparse of future layouts).
//  - Integrity-checked: each chunk carries a CRC32 of its payload; a flipped
//    bit anywhere is detected before any component sees the bytes.
//  - Forward compatible: chunks are looked up by id, so a reader skips
//    chunks it does not recognise — an older engine can restore the
//    components it knows from an image written by a newer one.

#ifndef TCSIM_SRC_SIM_IMAGE_H_
#define TCSIM_SRC_SIM_IMAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/archive.h"
#include "src/sim/checkpointable.h"
#include "src/sim/staging.h"

namespace tcsim {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
uint32_t Crc32(const uint8_t* data, size_t n);
inline uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

inline constexpr uint32_t kImageMagic = 0x504B4354;  // "TCKP" little-endian
inline constexpr uint32_t kImageFormatVersion = 1;

// Builds a composite image from component chunks: it stages each chunk in a
// StagedCapture, and SerializeStagedImage frames them, so every image has one
// writer.
class CheckpointImageBuilder {
 public:
  // Appends a raw payload chunk, copying the payload into the staging
  // buffer. Ids must be unique within one image.
  void AddChunk(std::string id, const std::vector<uint8_t>& payload);

  // Sizes the staging buffer for `payload_bytes` of payloads up front, so a
  // caller that knows the total copies each payload in once, with no regrowth.
  void Reserve(size_t payload_bytes) { staged_.buffer.reserve(payload_bytes); }

  // Serializes the envelope + all chunks, in insertion order.
  std::vector<uint8_t> Serialize() const;

 private:
  StagedCapture staged_;
};

// The one parser of the format. It parses an image structurally through
// ArchiveReader, CRC-checks every chunk it keeps, indexes the chunks by id
// and hands out their payloads as spans into the caller's buffer: nothing is
// copied, so the image bytes must outlive the view (a view of a temporary
// does not compile). A structural fault (bad magic, unsupported version,
// truncation, or a dropped duplicate whose bytes fail their CRC) is reported
// before a CRC mismatch in a kept chunk.
class CheckpointImageView {
 public:
  struct Chunk {
    std::string_view id;  // bytes inside the image buffer
    ByteSpan payload;     // bytes inside the image buffer
    uint32_t crc = 0;     // the declared CRC, verified against the payload
  };

  explicit CheckpointImageView(const std::vector<uint8_t>& image);
  explicit CheckpointImageView(std::vector<uint8_t>&&) = delete;

  // False if the envelope was malformed: bad magic, unsupported version,
  // truncation, or any chunk failing its CRC. When false, error() says why
  // and no chunk is accessible.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }

  // Chunks in file order. A repeated id keeps the first occurrence only:
  // later duplicates lose, once their CRC holds.
  const std::vector<Chunk>& chunks() const { return chunks_; }

  // Chunk `id`, or null if the image lacks it (or is bad).
  const Chunk* Find(std::string_view id) const;

  // Restores `c` from its chunk. Returns false (without touching `c`) if the
  // image is bad or lacks the chunk; returns false if the component's reader
  // ran out of bytes mid-restore (partial restores are reported, not
  // hidden).
  bool RestoreInto(Checkpointable& c) const;

 private:
  void Fail(const std::string& why);

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  std::vector<Chunk> chunks_;
  std::unordered_map<std::string_view, size_t> index_;  // id -> chunks_ slot
};

// tcbench/tcbench.cc still names the retired lite view and its
// Chunk::{id,payload} fields; the alias goes with the next benchmark change.
using CheckpointImageLiteView = CheckpointImageView;

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_IMAGE_H_
