// A second writer of the v1 checkpoint-image layout (src/sim/image.h), kept
// only in the tests: it is the reference that the program's one writer,
// SerializeStagedImage, is compared against. It spells the layout out field
// by field and shares no framing code with the program: magic, version and
// chunk count, then per chunk the id's length and bytes, the payload's size
// and CRC32, and the payload.

#ifndef TCSIM_TESTS_IMAGE_REFERENCE_H_
#define TCSIM_TESTS_IMAGE_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/archive.h"
#include "src/sim/image.h"

namespace tcsim {

using ReferenceChunks =
    std::vector<std::pair<std::string, std::vector<uint8_t>>>;

inline std::vector<uint8_t> FrameReferenceImage(const ReferenceChunks& chunks) {
  ArchiveWriter w;
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(kImageFormatVersion);
  w.Write<uint64_t>(chunks.size());
  for (const auto& [id, payload] : chunks) {
    w.Write<uint64_t>(id.size());
    w.WriteBytes(reinterpret_cast<const uint8_t*>(id.data()), id.size());
    w.Write<uint64_t>(payload.size());
    w.Write<uint32_t>(Crc32(payload));
    w.WriteBytes(payload.data(), payload.size());
  }
  return w.Take();
}

}  // namespace tcsim

#endif  // TCSIM_TESTS_IMAGE_REFERENCE_H_
