// The versioned, chunked checkpoint-image container.
//
// A composite node image is a sequence of named chunks, one per
// Checkpointable component, wrapped in a small self-describing envelope.
//
// Format v1 (full images only):
//
//   header : magic u32 ("TCKP") | format version u32 | chunk count u64
//   chunk  : id (length-prefixed string) | payload length u64 | CRC32 u32
//          | payload bytes
//
// Format v2 adds delta images. The header carries an image identity and a
// parent link, and every chunk is tagged with a kind byte:
//
//   header : magic u32 | format version u32 (=2) | image id u64
//          | parent image id u64 | chunk count u64
//   chunk  : id (length-prefixed string) | kind u8
//     kind 1 (payload)   : payload length u64 | CRC32 u32 | payload bytes
//     kind 2 (delta ref) : expected parent CRC32 u32
//
// A delta-ref chunk records "this component's state is byte-identical to the
// same-named chunk of the parent image" — the expected CRC pins *which* parent
// content was meant, so a chain whose parent was re-captured (or corrupted)
// is rejected instead of silently resolving to wrong bytes. A v2 image with
// parent id 0 is self-contained and must not contain delta refs. This is the
// on-disk analogue of the paper's copy-on-write discipline: per capture,
// only changed state is re-copied (cf. Remus epochs, DMTCP unchanged-page
// skipping).
//
// Properties:
//  - Versioned: a reader rejects images whose major format version it does
//    not understand (no silent misparse of future layouts).
//  - Integrity-checked: each payload chunk carries a CRC32 of its bytes; a
//    flipped bit anywhere is detected before any component sees the bytes.
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
inline constexpr uint32_t kImageFormatVersionDelta = 2;

inline constexpr uint8_t kChunkKindPayload = 1;
inline constexpr uint8_t kChunkKindDeltaRef = 2;

// A non-owning view of contiguous payload bytes (parsed in place inside a
// serialized image; the image buffer must outlive the span).
struct ByteSpan {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
};

// Builds a composite image from component chunks. Emits format v1 unless
// delta features (an image identity or delta-ref chunks) are used, in which
// case it emits v2.
class CheckpointImageBuilder {
 public:
  // Appends a raw payload chunk. Ids must be unique within one image. Both
  // arguments are taken by value and moved into place, so callers that hand
  // over rvalues pay zero payload copies.
  void AddChunk(std::string id, std::vector<uint8_t> payload);

  // Appends a delta-ref chunk: "identical to chunk `id` of the parent image,
  // whose payload CRC32 was `expected_parent_crc`". Requires SetDeltaHeader
  // with a nonzero parent before Serialize.
  void AddDeltaChunk(std::string id, uint32_t expected_parent_crc);

  // Switches the builder to format v2 with the given identity and parent
  // link. `parent_id` 0 marks a self-contained image (no delta refs allowed).
  void SetDeltaHeader(uint64_t image_id, uint64_t parent_id);

  size_t chunk_count() const { return chunks_.size(); }

  // Serializes the envelope + all chunks, in insertion order. The output
  // buffer is sized exactly once (no geometric growth).
  std::vector<uint8_t> Serialize() const;

 private:
  struct PendingChunk {
    std::string id;
    uint8_t kind;
    std::vector<uint8_t> payload;   // payload kind
    uint32_t expected_crc = 0;      // delta-ref kind
  };

  std::vector<PendingChunk> chunks_;
  bool delta_header_ = false;
  uint64_t image_id_ = 0;
  uint64_t parent_id_ = 0;
};

// Parses and validates a composite image (format v1 or v2), then hands
// chunks out by id. The structural parse is CheckpointImageLiteView's; this
// view adds the CRC check of every payload chunk and copies the payloads
// into an index by id, so lookups stay valid after the image buffer is gone.
class CheckpointImageView {
 public:
  explicit CheckpointImageView(const std::vector<uint8_t>& image);

  // False if the envelope was malformed: bad magic, unsupported version,
  // truncation, any payload chunk failing its CRC, or a delta ref in an
  // image without a parent. When false, error() says why and no chunk is
  // accessible.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }
  size_t chunk_count() const { return order_.size(); }

  // v2 identity; both 0 for v1 images.
  uint64_t image_id() const { return image_id_; }
  uint64_t parent_id() const { return parent_id_; }

  // True if any chunk is a delta ref (the image cannot be restored without
  // resolving it against its parent chain — see CheckpointRepo).
  bool is_delta() const { return delta_ref_count_ != 0; }
  size_t delta_ref_count() const { return delta_ref_count_; }

  // Payload chunks only: a delta ref is not a chunk you can read.
  bool HasChunk(const std::string& id) const;

  // Payload of chunk `id`. Must exist (check HasChunk first).
  const std::vector<uint8_t>& Chunk(const std::string& id) const;

  // Delta-ref chunks.
  bool HasDeltaRef(const std::string& id) const;
  uint32_t DeltaRefCrc(const std::string& id) const;

  // All chunk ids (payload and delta refs) in file order.
  const std::vector<std::string>& ChunkIds() const { return order_; }

  // Restores `c` from its payload chunk. Returns false (without touching `c`)
  // if the image is bad or lacks the chunk; returns false if the component's
  // reader ran out of bytes mid-restore (partial restores are reported, not
  // hidden).
  bool RestoreInto(Checkpointable& c) const;

 private:
  struct ParsedChunk {
    uint8_t kind;
    std::vector<uint8_t> payload;  // payload kind only
    uint32_t crc;                  // payload: own CRC; delta ref: parent CRC
  };

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  uint64_t image_id_ = 0;
  uint64_t parent_id_ = 0;
  size_t delta_ref_count_ = 0;
  std::map<std::string, ParsedChunk> chunks_;
  std::vector<std::string> order_;
};

// Zero-copy structural parse of a composite image (v1 or v2): the chunk
// table in file order, with payload *spans* into the caller's buffer instead
// of copies, and no eager CRC pass — the batched repository path verifies
// payload CRCs on its hashing pool, off the staging thread, so parsing here
// must cost O(chunk count), not O(bytes). This is the one parser of the
// format: it rejects every structural malformation (bad magic, unsupported
// version, truncation, unknown chunk kinds, duplicate ids (v2), and delta refs
// in a parentless image), and CheckpointImageView builds on it. The image
// bytes must outlive the view and its spans.
class CheckpointImageLiteView {
 public:
  struct Chunk {
    std::string id;
    uint8_t kind = kChunkKindPayload;
    ByteSpan payload;   // payload kind: bytes inside the image buffer
    uint32_t crc = 0;   // payload: declared CRC; delta ref: parent CRC pin
  };

  explicit CheckpointImageLiteView(const std::vector<uint8_t>& image);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }
  uint64_t image_id() const { return image_id_; }
  uint64_t parent_id() const { return parent_id_; }
  size_t delta_ref_count() const { return delta_ref_count_; }

  // Chunks in file order. For v1 images a repeated id keeps the first
  // occurrence only: later duplicates lose.
  const std::vector<Chunk>& chunks() const { return chunks_; }

 private:
  friend class CheckpointImageView;

  void Fail(const std::string& why);

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  uint64_t image_id_ = 0;
  uint64_t parent_id_ = 0;
  size_t delta_ref_count_ = 0;
  std::vector<Chunk> chunks_;
  // The v1 duplicates chunks() drops. No reader uses their bytes, but
  // CheckpointImageView still proves their CRCs: a flipped bit anywhere in
  // an image is an error.
  std::vector<Chunk> shadowed_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_IMAGE_H_
