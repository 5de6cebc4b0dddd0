#include "src/repo/write_batch.h"

#include <utility>

#include "src/repo/checkpoint_repo.h"
#include "src/repo/hash_pool.h"
#include "src/sim/digest.h"

namespace tcsim {

RepoWriteBatch::RepoWriteBatch(CheckpointRepo* repo) : repo_(repo) {}

RepoWriteBatch::~RepoWriteBatch() {
  // In-flight tasks hold raw pointers into entries_ (and `this`).
  WaitPrepared();
}

void RepoWriteBatch::Stage(std::shared_ptr<const std::vector<uint8_t>> image) {
  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->bytes = std::move(image);
  staged_bytes_ += entry->bytes->size();
  entries_.push_back(std::move(owned));
  repo_->hash_pool().Submit([this, entry] { PrepareEntry(entry); });
}

void RepoWriteBatch::Stage(std::vector<uint8_t>&& image) {
  Stage(std::make_shared<const std::vector<uint8_t>>(std::move(image)));
}

void RepoWriteBatch::PrepareEntry(Entry* entry) {
  // The view CRC-checks every payload in place; a malformed image is
  // remembered and rejected at commit with the same error PutImage would
  // have produced. Each key takes the view's verified CRC, so only the
  // content hash is computed here.
  const CheckpointImageView view(*entry->bytes);
  if (view.ok()) {
    entry->parsed_ok = true;
    entry->chunks.reserve(view.chunks().size());
    for (const CheckpointImageView::Chunk& c : view.chunks()) {
      Fnv1aDigest hash;
      hash.MixBytes(c.payload.data, c.payload.size);
      entry->chunks.push_back(StagedChunk{
          c.id, c.payload, ContentKey{hash.value(), c.crc, c.payload.size}});
    }
  } else {
    entry->parse_error = "malformed image: " + view.error();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++prepared_;
    // Notify under the lock: the moment a waiter observes the last task done
    // it may destroy this batch, so the notify must complete before the
    // waiter can re-acquire the mutex and return.
    prepared_cv_.notify_all();
  }
}

void RepoWriteBatch::WaitPrepared() {
  std::unique_lock<std::mutex> lock(mu_);
  prepared_cv_.wait(lock, [this] { return prepared_ == entries_.size(); });
}

}  // namespace tcsim
