#include "src/sim/scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/sim/digest.h"

namespace tcsim {

PartitionScheduler::PartitionScheduler() : PartitionScheduler(Options()) {}

PartitionScheduler::PartitionScheduler(Options options) : options_(options) {
  threads_.reserve(options_.workers);
  for (uint32_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

PartitionScheduler::~PartitionScheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

Partition* PartitionScheduler::AddPartition(Simulator* sim) {
  const uint32_t id = static_cast<uint32_t>(partitions_.size());
  partitions_.emplace_back(new Partition(id, sim));
  Partition* p = partitions_.back().get();
  p->guard_.executing = &executing_;
  return p;
}

void PartitionScheduler::RegisterCrossLatency(SimTime latency) {
  assert(latency > 0 && "cross-partition links need positive latency");
  if (latency < 1) {
    latency = 1;
  }
  lookahead_ = std::min(lookahead_, latency);
}

void PartitionScheduler::RunUntil(SimTime t) {
  for (;;) {
    SimTime next = kNoPendingEvent;
    for (const auto& p : partitions_) {
      next = std::min(next, p->sim_->NextEventTime());
    }
    if (next > t) {
      break;
    }
    // Events strictly below next + lookahead cannot be affected by anything a
    // partition sends during this window, so the inclusive bound is
    // next + lookahead - 1 (clamped to the target and against overflow).
    SimTime bound = t;
    if (lookahead_ < kNoPendingEvent - next) {
      bound = std::min(bound, next + lookahead_ - 1);
    }
    active_.clear();
    for (size_t i = 0; i < partitions_.size(); ++i) {
      if (partitions_[i]->sim_->NextEventTime() <= bound) {
        active_.push_back(i);
      }
    }
    phase_kind_ = PhaseKind::kWindow;
    window_bound_ = bound;
    ++stats_.windows;
    ExecutePhase(active_.size());
    if (boundary_step_) {
      stats_.cross_events += boundary_step_(bound);
    }
  }
  // Quiesce: land every clock at exactly t (all events <= t have fired above,
  // so these calls only advance idle clocks).
  for (const auto& p : partitions_) {
    p->sim_->RunUntil(t);
  }
}

void PartitionScheduler::ForEachPartition(
    const std::function<void(Partition*)>& fn) {
  phase_kind_ = PhaseKind::kCustom;
  custom_fn_ = &fn;
  ExecutePhase(partitions_.size());
  custom_fn_ = nullptr;
}

void PartitionScheduler::RunTask(size_t i) {
  Partition* p = phase_kind_ == PhaseKind::kWindow
                     ? partitions_[active_[i]].get()
                     : partitions_[i].get();
  p->guard_.owner.store(CurrentThreadTag(), std::memory_order_relaxed);
  if (phase_kind_ == PhaseKind::kWindow) {
    p->sim_->RunUntil(window_bound_);
  } else {
    (*custom_fn_)(p);
  }
  p->guard_.owner.store(0, std::memory_order_relaxed);
}

size_t PartitionScheduler::PullTasks() {
  size_t done = 0;
  for (;;) {
    // Self-validating claim: the count in the high bits of the word this
    // fetch_add incremented is the count of the phase the claimed index
    // belongs to (see task_word_ in the header). An exhausted claim — index
    // >= count — is the only exit; a valid claim has acquire-synchronized
    // with that phase's release publication, so its parameters (phase_kind_,
    // window_bound_, active_, custom_fn_) are fully visible, and they cannot
    // be overwritten while the task runs because the coordinator cannot
    // leave ExecutePhase until this task's remaining_ decrement lands.
    const uint64_t claim = task_word_.fetch_add(1, std::memory_order_acquire);
    const uint64_t count = claim >> kTaskIndexBits;
    const uint64_t index = claim & kTaskIndexMask;
    if (index >= count) {
      break;
    }
    RunTask(static_cast<size_t>(index));
    ++done;
  }
  return done;
}

void PartitionScheduler::ExecutePhase(size_t count) {
  if (count == 0) {
    return;
  }
  if (threads_.empty()) {
    // Sequential oracle: same tasks, same order, same guard discipline.
    executing_.store(true, std::memory_order_relaxed);
    for (size_t i = 0; i < count; ++i) {
      RunTask(i);
    }
    executing_.store(false, std::memory_order_relaxed);
    return;
  }
  assert(count <= kTaskIndexMask && "phase task count overflows claim word");
  {
    std::lock_guard<std::mutex> lk(mu_);
    remaining_ = count;
    executing_.store(true, std::memory_order_relaxed);
    // The release store is the publication point: it carries the task count
    // and index-0 in one word, and a worker whose fetch_add reads from it
    // observes every phase parameter written above. Stale increments from
    // stragglers of the previous phase are wiped by this store — harmlessly,
    // since those claims were exhausted (their phase had fully completed
    // before this one could start).
    task_word_.store(static_cast<uint64_t>(count) << kTaskIndexBits,
                     std::memory_order_release);
    phase_epoch_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
  // The coordinator is a pool member too: it pulls tasks until none remain,
  // then waits for workers still finishing theirs.
  const size_t done = PullTasks();
  std::unique_lock<std::mutex> lk(mu_);
  assert(done <= remaining_);
  remaining_ -= done;
  if (remaining_ != 0) {
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
  }
  executing_.store(false, std::memory_order_relaxed);
}

void PartitionScheduler::WorkerMain() {
  // A brief spin before sleeping hides the condvar wakeup latency between
  // back-to-back windows — but only when there is real hardware parallelism;
  // on a single core spinning just steals cycles from the coordinator.
  const int spin_iters = std::thread::hardware_concurrency() > 1 ? 4096 : 0;
  uint64_t seen = 0;
  for (;;) {
    for (int s = 0; s < spin_iters; ++s) {
      if (phase_epoch_.load(std::memory_order_acquire) != seen) {
        break;
      }
      std::this_thread::yield();
    }
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return shutdown_ ||
               phase_epoch_.load(std::memory_order_relaxed) != seen;
      });
      if (shutdown_) {
        return;
      }
      seen = phase_epoch_.load(std::memory_order_relaxed);
    }
    const size_t done = PullTasks();
    {
      std::lock_guard<std::mutex> lk(mu_);
      assert(done <= remaining_);
      remaining_ -= done;
      if (remaining_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

uint64_t PartitionScheduler::MergedDigest() const {
  Fnv1aDigest d;
  for (const auto& p : partitions_) {
    d.Mix(p->id());
    d.Mix(p->sim_->Digest());
    d.Mix(p->sim_->events_processed());
  }
  return d.value();
}

uint64_t PartitionScheduler::TotalEvents() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) {
    total += p->sim_->events_processed();
  }
  return total;
}

uint64_t PartitionScheduler::GuardViolations() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) {
    total += p->sim_->queue_guard_violations();
  }
  return total;
}

}  // namespace tcsim
