// Reusable pinned staging buffers for two-phase checkpoint capture.
//
// The freeze phase of an asynchronous capture clones each component's state
// into a StagedCapture — one flat byte buffer plus per-component framing
// metadata — and nothing else: no archive container framing, no CRC, no repo
// I/O while the simulation is quiesced. The background phase later turns the
// staged bytes into a composite checkpoint image (SerializeStagedImage) while
// the simulation is already running again.
//
// Buffers are pooled so the steady state performs zero allocations in the
// frozen window: Acquire hands back a previously released backing vector with
// its capacity intact ("pinned" in the qemu-MC sense — the memory stays hot
// across epochs). The pool carries a generation counter that restore paths
// bump via InvalidateAll; a staged capture whose generation predates the
// current one must never be committed (it describes pre-restore state), and
// the engine asserts exactly that.

#ifndef TCSIM_SRC_SIM_STAGING_H_
#define TCSIM_SRC_SIM_STAGING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tcsim {

// One component's staged snapshot inside a StagedCapture buffer.
struct StagedEntry {
  std::string id;            // Checkpointable::checkpoint_id()
  uint64_t version = 0;      // state_version() observed at freeze time
  bool version_skip = false; // true: unchanged since the last capture, no
                             // bytes staged
  size_t offset = 0;         // byte range inside StagedCapture::buffer
  size_t size = 0;
};

// A full freeze-phase snapshot: every component's bytes back to back in one
// buffer, with framing recorded on the side.
struct StagedCapture {
  std::vector<StagedEntry> entries;
  std::vector<uint8_t> buffer;
  uint64_t generation = 0;  // StagingBufferPool generation at Acquire time

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

// The one writer of partition images: frames a staged capture as a v1
// composite image in a single pass, byte-identical to a
// CheckpointImageBuilder given one AddChunk per entry in staged order. No
// entry may be a version skip: a skipped entry's bytes live in the engine's
// tracked payloads, and the engine frames its own images.
std::vector<uint8_t> SerializeStagedImage(const StagedCapture& capture);

// Pool of reusable staging backing vectors. Thread-safe: the background
// commit thread releases buffers while the main thread may be acquiring the
// next epoch's.
class StagingBufferPool {
 public:
  // Prepares `out` for a fresh freeze phase: installs a pooled backing vector
  // (keeping its capacity) when one is available, clears the entry list, and
  // stamps the current generation.
  void Acquire(StagedCapture* out);

  // Returns `capture`'s backing vector to the pool for reuse and clears the
  // capture. Safe to call from the background commit thread.
  void Release(StagedCapture* capture);

  // Invalidates every staged capture acquired so far (restore path: staged
  // bytes describe pre-restore state and must never be committed). Buffers
  // already returned to the free list stay reusable — only outstanding
  // captures are poisoned.
  void InvalidateAll();

  uint64_t generation() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  uint64_t generation_ = 1;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_STAGING_H_
