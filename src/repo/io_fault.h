// Injectable I/O fault hook for the repository's on-disk writers.
//
// Crash coverage used to be post-hoc file surgery: run a clean commit, then
// truncate the resulting files at every byte and reopen the wreck. That
// exercises recovery, but not the *write path* that produces the torn state —
// a short write inside fwrite, a failed fsync, a record cut mid-frame. This
// hook interposes on every byte SegmentFile and JournalWriter put on disk (and
// every fsync they issue), so tests and the HA fault injector can produce
// torn records through the real writers: a byte budget admits a prefix of the
// writes and then fails exactly like a full disk or a crash mid-append, with
// the file left holding whatever genuinely reached it.
//
// Process-wide and thread-safe: batch commits run on a background thread, so
// arming/disarming and the write-path checks are mutex-guarded with a relaxed
// armed-flag fast path — an unarmed process pays one atomic load per call.

#ifndef TCSIM_SRC_REPO_IO_FAULT_H_
#define TCSIM_SRC_REPO_IO_FAULT_H_

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace tcsim {

// Which on-disk stream a write belongs to.
enum class RepoIoTarget : uint8_t { kSegment = 0, kJournal = 1 };

// One armed fault. `allow_bytes` is a cumulative budget: writes pass through
// until the target has consumed it, then the write that crosses the budget is
// torn — its admitted prefix reaches the file, the rest does not, and the
// call reports failure (the writers' sticky-error handling takes over).
// `fail_fsync` makes Fsync report failure without syncing (the bytes may or
// may not be durable — exactly the ambiguity a real fsync failure leaves).
struct RepoIoFaultPlan {
  uint64_t allow_bytes = UINT64_MAX;
  bool fail_fsync = false;
};

class RepoIoFaultInjector {
 public:
  // Arms `plan` for `target`. Replaces any previous plan for that target.
  static void Arm(RepoIoTarget target, RepoIoFaultPlan plan);
  static void DisarmAll();

  // Writes injected so far that were torn or refused for `target`.
  static uint64_t faults_injected(RepoIoTarget target);
  // Bytes admitted through the hook for `target` since it was armed.
  static uint64_t bytes_admitted(RepoIoTarget target);

  // Write-path hook: writes `n` bytes of `data` to `f`, honouring any armed
  // fault. Returns true iff all `n` bytes were written. On a budget fault the
  // admitted prefix is written (a genuinely torn record) and false returned.
  static bool Write(RepoIoTarget target, std::FILE* f, const void* data,
                    size_t n);

  // Fsync-path hook: false when an armed plan fails fsync for `target`,
  // otherwise the real SyncStdioFile result.
  static bool Fsync(RepoIoTarget target, std::FILE* f);

 private:
  // One relaxed flag guards the fast path; all plan state sits behind the
  // mutex in io_fault.cc.
  static std::atomic<bool> armed_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_IO_FAULT_H_
