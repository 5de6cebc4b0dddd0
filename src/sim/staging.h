// Staging buffers for two-phase checkpoint capture.
//
// The freeze phase of a capture clones each component's state into a
// StagedCapture — one flat byte buffer plus per-component framing
// metadata — and nothing else: no archive container framing, no CRC, no repo
// I/O while the simulation is quiesced. The commit phase later turns the
// staged bytes into a composite checkpoint image (SerializeStagedImage), in
// the background when the capture is two-phase.
//
// Each capturing owner keeps one StagedCapture per image it captures (the
// engine one, the epoch coordinator one per partition) and Resets it before
// every freeze phase: Reset keeps the buffer's capacity, so the steady state
// performs no allocation for payload bytes in the frozen window ("pinned" in
// the qemu-MC sense — the memory stays hot across epochs).

#ifndef TCSIM_SRC_SIM_STAGING_H_
#define TCSIM_SRC_SIM_STAGING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/sim/checkpointable.h"

namespace tcsim {

// One component's staged snapshot inside a StagedCapture buffer.
struct StagedEntry {
  std::string id;     // Checkpointable::checkpoint_id()
  size_t offset = 0;  // byte range inside StagedCapture::buffer
  size_t size = 0;
};

// A full freeze-phase snapshot: every component's bytes back to back in one
// buffer, with framing recorded on the side.
struct StagedCapture {
  std::vector<StagedEntry> entries;
  std::vector<uint8_t> buffer;

  // Clears content but keeps both vectors' capacity, so re-staging into the
  // same capture performs no allocation once steady state is reached.
  void Reset() {
    entries.clear();
    buffer.clear();
  }

  const uint8_t* entry_data(const StagedEntry& e) const {
    return buffer.data() + e.offset;
  }
};

// The one staging loop: appends one entry per component, in order, each
// component's SaveState bytes copied back to back into `out`'s buffer after
// whatever it already holds.
void StageComponents(std::span<Checkpointable* const> components,
                     StagedCapture* out);

// Frames a staged capture as a v1 composite image in a single pass,
// byte-identical to a CheckpointImageBuilder given one AddChunk per entry in
// staged order. Every captured image, engine or partition, is framed here.
std::vector<uint8_t> SerializeStagedImage(const StagedCapture& capture);

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_STAGING_H_
