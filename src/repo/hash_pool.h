// A small background pool for content hashing of staged chunk payloads.
//
// The batched put path (write_batch.h) needs every payload's ContentKey
// (FNV-1a 64 + CRC32) before commit. Hashing is the CPU half of a put; the
// pool overlaps it with the staging thread's serialization and with the
// commit thread's segment I/O, exactly the register-while-sending discipline
// of qemu's micro-checkpointing RDMA path. Tasks are opaque closures: the
// pool knows nothing of batches, and a RepoWriteBatch counts its own done
// tasks to wait for just *its* tasks.
//
// With zero threads every task runs inline on the submitting thread — the
// sequential oracle for the concurrent path (same results, same order of
// observable effects, no threads under the sanitizers' feet).

#ifndef TCSIM_SRC_REPO_HASH_POOL_H_
#define TCSIM_SRC_REPO_HASH_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcsim {

class HashPool {
 public:
  // Starts `threads` workers (0 = run every task inline in Submit).
  explicit HashPool(uint32_t threads);

  // Drains the queue (every submitted task still runs) and joins workers.
  ~HashPool();
  HashPool(const HashPool&) = delete;
  HashPool& operator=(const HashPool&) = delete;

  // Enqueues `task`; never blocks on the work itself. Safe from any thread.
  void Submit(std::function<void()> task);

  // High-water mark of queued (not yet started) tasks — the backpressure
  // signal the repository exports as a gauge.
  size_t max_queue_depth() const;

  uint64_t tasks_submitted() const;

 private:
  void WorkerMain();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  size_t max_depth_ = 0;                     // guarded by mu_
  uint64_t submitted_ = 0;                   // guarded by mu_
  bool shutdown_ = false;                    // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_HASH_POOL_H_
