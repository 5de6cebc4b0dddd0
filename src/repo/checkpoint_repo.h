// The durable checkpoint repository: a crash-safe, content-addressed on-disk
// store of checkpoint images (the reproduction's Emulab file server storage
// for stateful swap-out, Section 7.2).
//
// Layering (see repo_format.h for the byte layout):
//
//   CheckpointRepo      image records, payload refcounts, GC
//     ├── JournalWriter write-ahead log of put / retire operations
//     └── SegmentFile   append-only, content-addressed chunk payloads
//
// Key properties:
//  - Content-addressed dedup: a payload is stored once per repository no
//    matter how many images reference it, so the unchanged chunks of
//    successive captures (and identical chunks across unrelated images) cost
//    one copy. This is the one way unchanged checkpoint state is kept: every
//    image is self-contained, and a put appends only payloads the repository
//    does not already hold.
//  - Atomic multi-chunk publication: payloads are flushed to the segment
//    before the journal record naming them is appended; a crash between the
//    two leaves orphan payload bytes (reclaimed by the next GC), never a
//    visible image with missing bytes.
//  - Recovery: opening an existing repository replays the journal, truncates
//    a torn tail, and re-verifies the CRC of every payload referenced by a
//    visible image, once per stored payload however many images share it. A
//    repository that cannot prove its payloads intact refuses to open.
//  - Retention is the live set: a payload stays while a live image
//    references it. A refcount-based GC rewrites the (segment, journal) pair
//    with only the live records and their payloads, installing the new epoch
//    by an atomic CURRENT rename.
//  - Materialize(handle) rebuilds the stored image (src/sim/image.h): every
//    chunk in the original chunk order, i.e. exactly the bytes PutImage was
//    given (a repeated chunk id keeps its first copy only).

#ifndef TCSIM_SRC_REPO_CHECKPOINT_REPO_H_
#define TCSIM_SRC_REPO_CHECKPOINT_REPO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/repo/journal.h"
#include "src/repo/repo_format.h"
#include "src/repo/segment_file.h"
#include "src/sim/archive.h"

namespace tcsim {

struct RepoOptions {
  // fsync the segment and journal at every publication barrier. Off by
  // default: tests and benches rely on the ordering guarantees of buffered
  // writes within one process; production swap-out turns it on.
  bool fsync = false;

  // Unused: a commit parses and hashes on the calling thread. Kept only
  // because tcbench/tcbench.cc still sets it; it goes with the next
  // benchmark change.
  uint32_t hash_threads = 2;
};

class CheckpointRepo {
 public:
  // Opens the repository at directory `dir`, creating it (and the directory)
  // if empty, or recovering an existing one. Null on failure with `error`
  // set: unreadable files, a corrupt CURRENT pointer, or any visible image
  // whose payloads fail CRC verification.
  static std::unique_ptr<CheckpointRepo> Open(const std::string& dir,
                                              RepoOptions options,
                                              std::string* error);

  ~CheckpointRepo();
  CheckpointRepo(const CheckpointRepo&) = delete;
  CheckpointRepo& operator=(const CheckpointRepo&) = delete;

  // Stores a serialized composite image and returns its repository handle
  // (monotonic, never reused), or 0 on rejection (error() says why; the
  // repository is unchanged). A malformed image — one CheckpointImageView
  // refuses — is rejected.
  uint64_t PutImage(const std::vector<uint8_t>& image_bytes);

  // --- Batched group commit ----------------------------------------------------
  //
  // The epoch-scale put path: publish many images with one segment flush and
  // one atomic journal record. PutImage itself is a batch of one.

  // The images one commit publishes, in order. The coordinator, the
  // swap-out and the time-travel tree already hold their images this way.
  using Images = std::vector<std::shared_ptr<const std::vector<uint8_t>>>;

  struct BatchCommitResult {
    bool ok = false;
    std::string error;                   // set when !ok
    std::vector<uint64_t> handles;       // in list order; 0 on failure
    size_t images = 0;                   // images published
    uint64_t staged_bytes = 0;           // serialized image bytes offered
    uint64_t logical_payload_bytes = 0;  // payload bytes offered
    uint64_t appended_payload_bytes = 0; // payload bytes appended (post-dedup)
  };

  // Publishes `images` all-or-nothing, entirely on the calling thread (the
  // repository's owner). First every image is parsed with
  // CheckpointImageView, which CRC-checks each payload in place, and every
  // payload is hashed; only then are the new payloads appended behind one
  // flush and published by a single kJournalBatchPut record, with handles in
  // list order. So a malformed image rejects the batch before any append.
  // On any rejection or I/O error nothing is published — the repository
  // stays at its previous state (orphan segment bytes from a failed append
  // are garbage for the next GC) and `error` says why. The images are read
  // in place and not kept after the call. An empty list commits trivially.
  // error() mirrors the result's error.
  BatchCommitResult CommitBatch(const Images& images);

  // Marks an image retired (no longer materializable). Its payloads stay on
  // disk while another live image references them through dedup, and become
  // garbage once unreferenced. False if the handle is unknown or already
  // retired.
  bool RetireImage(uint64_t handle);

  // Rebuilds the stored image, re-verifying every payload CRC as it streams
  // chunks from the segment. Empty on failure (error() says why).
  std::vector<uint8_t> Materialize(uint64_t handle);

  struct GcResult {
    bool ok = false;
    uint64_t reclaimed_bytes = 0;  // segment bytes dropped
    uint64_t live_bytes = 0;       // segment bytes in the new epoch
  };

  // Rewrites the (segment, journal) pair keeping only live records and the
  // payloads they reference, then atomically installs the new epoch via
  // the CURRENT pointer. Crash-safe: until CURRENT is renamed the old epoch
  // stays authoritative.
  GcResult CollectGarbage();

  // --- Introspection -----------------------------------------------------------

  const std::string& error() const { return error_; }

  bool Has(uint64_t handle) const { return records_.count(handle) != 0; }
  bool IsLive(uint64_t handle) const;
  // Live handles in ascending order.
  std::vector<uint64_t> LiveHandles() const;

  size_t image_count() const { return records_.size(); }
  size_t live_image_count() const;

  // Space accounting (payload record bytes in the current segment).
  uint64_t segment_bytes() const { return segment_->size(); }
  uint64_t live_payload_bytes() const { return live_payload_bytes_; }
  uint64_t garbage_payload_bytes() const;

  // Dedup accounting: payload bytes offered across all puts vs. bytes
  // actually appended to segments (both monotonic since this Open).
  uint64_t logical_put_bytes() const { return logical_put_bytes_; }
  uint64_t physical_put_bytes() const { return physical_put_bytes_; }

  // Total file I/O, including journal and GC rewrites.
  uint64_t bytes_written() const;
  uint64_t bytes_read() const;

  const std::string& dir() const { return dir_; }

 private:
  struct ChunkRef {
    std::string id;
    ContentKey key;
    uint64_t offset = 0;  // segment offset of the payload record
  };

  struct ImageRecord {
    bool live = true;
    std::vector<ChunkRef> chunks;
  };

  CheckpointRepo(std::string dir, RepoOptions options);

  // Serializes / parses one put record, a sub-record of a kJournalBatchPut
  // record:
  //   handle u64 | chunk count u64
  //   chunk : id (length-prefixed string) | content hash u64 | CRC32 u32
  //         | size u64 | segment offset u64
  static std::vector<uint8_t> EncodeImageRecord(uint64_t handle,
                                                const ImageRecord& rec);
  static bool DecodeImageRecord(ArchiveReader r, uint64_t* handle,
                                ImageRecord* rec);

  // Applies one parsed journal record to in-memory state, verifying every
  // payload reference against the segment. False (with error_) on anything
  // a crash cannot explain: bad refs, unknown handles, CRC mismatches.
  bool ApplyJournalRecord(const JournalRecord& rec);
  // Applies one put sub-record of a batch record, read in place.
  bool ApplyImageRecord(ArchiveReader record);

  // Raises the payload refcounts and live byte count for the live record
  // `handle`, so a commit retains its images in O(new images), not
  // O(history).
  void Retain(uint64_t handle);

  // The mirror of Retain: lowers them for `handle`, one reference per chunk,
  // so a retire costs O(record), not O(history).
  void Release(uint64_t handle);

  // Clears the refcounts, then retains every live record: the full recompute
  // for open and GC.
  void RebuildRetention();

  // Appends a journal record with the publication barrier (segment flushed
  // first). False on I/O failure.
  bool Commit(uint8_t type, const std::vector<uint8_t>& payload);

  std::string dir_;
  RepoOptions options_;
  uint64_t epoch_ = 1;
  std::unique_ptr<SegmentFile> segment_;
  std::unique_ptr<JournalWriter> journal_;

  std::map<uint64_t, ImageRecord> records_;
  uint64_t next_handle_ = 1;

  // ContentKey -> (segment offset, refcount among live records).
  struct PayloadEntry {
    uint64_t offset = 0;
    uint64_t refs = 0;
  };
  std::map<ContentKey, PayloadEntry> payloads_;

  uint64_t live_payload_bytes_ = 0;
  uint64_t logical_put_bytes_ = 0;
  uint64_t physical_put_bytes_ = 0;
  uint64_t retired_io_written_ = 0;  // carried across GC epoch swaps
  uint64_t retired_io_read_ = 0;
  std::string error_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_CHECKPOINT_REPO_H_
