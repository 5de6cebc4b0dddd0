#include "src/sim/staging.h"

#include <utility>

#include "src/sim/archive.h"
#include "src/sim/image.h"

namespace tcsim {

void StageComponents(std::span<Checkpointable* const> components,
                     StagedCapture* out) {
  ArchiveWriter w(std::move(out->buffer));
  for (const Checkpointable* c : components) {
    StagedEntry entry;
    entry.id = c->checkpoint_id();
    entry.offset = w.size();
    c->SaveState(&w);
    entry.size = w.size() - entry.offset;
    out->entries.push_back(std::move(entry));
  }
  out->buffer = w.Take();
}

std::vector<uint8_t> SerializeStagedImage(const StagedCapture& capture) {
  // The v1 layout of src/sim/image.h, sized once: each staged entry is
  // copied straight from the staging buffer into the image.
  size_t total = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  for (const StagedEntry& entry : capture.entries) {
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

}  // namespace tcsim
