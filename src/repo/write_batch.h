// An epoch-scoped staging area for batched puts.
//
// Every put goes through a batch; CheckpointRepo::PutImage is a batch of
// one. A batch of many amortizes the commit across an epoch: the caller
// *stages* serialized images — zero-copy, by sharing the buffer — and each
// image's parse (CheckpointImageView, which CRC-checks every payload) and
// content hashing run as one task on the repository's background hashing
// pool, overlapped with further staging. CommitBatch then validates, appends
// every new payload to the segment (one flush), and publishes the whole epoch
// with a single journal record (one flush) — recovery sees it all-or-nothing.
//
// Determinism: handles, segment offsets, and the journal record are assigned
// at commit in stage order, so the repository's bytes depend only on the
// staged images and their order, never on the number of hashing threads.
//
// Thread contract:
//  - Stage() and CommitBatch() (on the repository) run on the single thread
//    that owns the repository; CommitBatch waits for the batch's tasks
//    first.
//  - A batch belongs to the repository that created it and must not outlive
//    it (the destructor waits for in-flight tasks).

#ifndef TCSIM_SRC_REPO_WRITE_BATCH_H_
#define TCSIM_SRC_REPO_WRITE_BATCH_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/repo/repo_format.h"
#include "src/sim/image.h"

namespace tcsim {

class CheckpointRepo;

class RepoWriteBatch {
 public:
  ~RepoWriteBatch();
  RepoWriteBatch(const RepoWriteBatch&) = delete;
  RepoWriteBatch& operator=(const RepoWriteBatch&) = delete;

  // Stages one serialized image; the i-th staged image
  // gets the commit result's handles[i]. Rejections surface at commit, never
  // here.
  void Stage(std::shared_ptr<const std::vector<uint8_t>> image);
  // Ownership-transfer convenience for callers holding a plain buffer (e.g.
  // straight out of ArchiveWriter::Take()).
  void Stage(std::vector<uint8_t>&& image);

  size_t staged_count() const { return entries_.size(); }
  uint64_t staged_bytes() const { return staged_bytes_; }

 private:
  friend class CheckpointRepo;

  struct StagedChunk {
    std::string_view id;  // id bytes inside `Entry::bytes`
    ByteSpan span;        // payload bytes inside `Entry::bytes`
    ContentKey key;       // the content key, with the view's verified CRC
  };

  // Heap-stable (vector of unique_ptr): an entry's task fills in everything
  // after `bytes` while later Stage calls grow the entries vector.
  struct Entry {
    std::shared_ptr<const std::vector<uint8_t>> bytes;
    bool parsed_ok = false;
    std::string parse_error;
    std::vector<StagedChunk> chunks;
  };

  explicit RepoWriteBatch(CheckpointRepo* repo);

  // Hashing-pool task: the verified parse, then the content keys of the
  // entry's payload chunks. The entry is exclusively the task's until it
  // counts itself done under mu_ — the commit thread only reads entries
  // after WaitPrepared().
  void PrepareEntry(Entry* entry);
  // Waits until every staged entry's task is done.
  void WaitPrepared();

  CheckpointRepo* repo_;
  std::vector<std::unique_ptr<Entry>> entries_;  // grown by Stage only
  uint64_t staged_bytes_ = 0;
  std::mutex mu_;
  std::condition_variable prepared_cv_;
  size_t prepared_ = 0;  // entries whose task is done; guarded by mu_
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_WRITE_BATCH_H_
