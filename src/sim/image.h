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
// readers refuse every other version, the retired version 2 included.
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
#include <map>
#include <string>
#include <vector>

#include "src/sim/checkpointable.h"

namespace tcsim {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
uint32_t Crc32(const uint8_t* data, size_t n);
inline uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

inline constexpr uint32_t kImageMagic = 0x504B4354;  // "TCKP" little-endian
inline constexpr uint32_t kImageFormatVersion = 1;

// A non-owning view of contiguous payload bytes (parsed in place inside a
// serialized image; the image buffer must outlive the span).
struct ByteSpan {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
};

// Builds a composite image from component chunks.
class CheckpointImageBuilder {
 public:
  // Appends a raw payload chunk. Ids must be unique within one image. Both
  // arguments are taken by value and moved into place, so callers that hand
  // over rvalues pay zero payload copies.
  void AddChunk(std::string id, std::vector<uint8_t> payload);

  size_t chunk_count() const { return chunks_.size(); }

  // Serializes the envelope + all chunks, in insertion order. The output
  // buffer is sized exactly once (no geometric growth).
  std::vector<uint8_t> Serialize() const;

 private:
  struct PendingChunk {
    std::string id;
    std::vector<uint8_t> payload;
  };

  std::vector<PendingChunk> chunks_;
};

// Parses and validates a composite image, then hands
// chunks out by id. The structural parse is CheckpointImageLiteView's; this
// view adds the CRC check of every chunk and copies the payloads into an
// index by id, so lookups stay valid after the image buffer is gone.
class CheckpointImageView {
 public:
  explicit CheckpointImageView(const std::vector<uint8_t>& image);

  // False if the envelope was malformed: bad magic, unsupported version,
  // truncation, or any chunk failing its CRC. When false, error() says why
  // and no chunk is accessible.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }
  size_t chunk_count() const { return order_.size(); }

  bool HasChunk(const std::string& id) const;

  // Payload of chunk `id`. Must exist (check HasChunk first).
  const std::vector<uint8_t>& Chunk(const std::string& id) const;

  // All chunk ids in file order.
  const std::vector<std::string>& ChunkIds() const { return order_; }

  // Restores `c` from its chunk. Returns false (without touching `c`) if the
  // image is bad or lacks the chunk; returns false if the component's reader
  // ran out of bytes mid-restore (partial restores are reported, not
  // hidden).
  bool RestoreInto(Checkpointable& c) const;

 private:
  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  std::map<std::string, std::vector<uint8_t>> chunks_;
  std::vector<std::string> order_;
};

// Zero-copy structural parse of a composite image: the chunk
// table in file order, with payload *spans* into the caller's buffer instead
// of copies, and no CRC pass over the chunks it keeps — the batched
// repository path verifies payload CRCs on its hashing pool, off the staging
// thread, so parsing here costs O(chunk count), not O(bytes). This is the one
// parser of the format: it rejects every structural malformation (bad magic,
// unsupported version, truncation, and a duplicate whose dropped bytes fail
// their CRC), and CheckpointImageView builds on it. The image bytes must outlive
// the view and its spans.
class CheckpointImageLiteView {
 public:
  struct Chunk {
    std::string id;
    ByteSpan payload;   // bytes inside the image buffer
    uint32_t crc = 0;   // declared CRC
  };

  explicit CheckpointImageLiteView(const std::vector<uint8_t>& image);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }

  // Chunks in file order. A repeated id keeps the first occurrence only:
  // later duplicates lose, once their CRC holds.
  const std::vector<Chunk>& chunks() const { return chunks_; }

 private:
  void Fail(const std::string& why);

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  std::vector<Chunk> chunks_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_IMAGE_H_
