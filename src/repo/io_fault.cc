#include "src/repo/io_fault.h"

#include <algorithm>
#include <mutex>

#include "src/repo/segment_file.h"

namespace tcsim {

std::atomic<bool> RepoIoFaultInjector::armed_{false};

namespace {

struct TargetState {
  bool armed = false;
  RepoIoFaultPlan plan;
  uint64_t admitted = 0;
  uint64_t faults = 0;
};

struct InjectorState {
  std::mutex mu;
  TargetState targets[2];
};

InjectorState& State() {
  static InjectorState s;
  return s;
}

TargetState& Target(InjectorState& s, RepoIoTarget t) {
  return s.targets[static_cast<size_t>(t)];
}

}  // namespace

void RepoIoFaultInjector::Arm(RepoIoTarget target, RepoIoFaultPlan plan) {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  TargetState& ts = Target(s, target);
  ts.armed = true;
  ts.plan = plan;
  ts.admitted = 0;
  ts.faults = 0;
  armed_.store(true, std::memory_order_relaxed);
}

void RepoIoFaultInjector::DisarmAll() {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.targets[0].armed = false;
  s.targets[1].armed = false;
  armed_.store(false, std::memory_order_relaxed);
}

uint64_t RepoIoFaultInjector::faults_injected(RepoIoTarget target) {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return Target(s, target).faults;
}

uint64_t RepoIoFaultInjector::bytes_admitted(RepoIoTarget target) {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return Target(s, target).admitted;
}

bool RepoIoFaultInjector::Write(RepoIoTarget target, std::FILE* f,
                                const void* data, size_t n) {
  if (!armed_.load(std::memory_order_relaxed)) {
    return n == 0 || std::fwrite(data, 1, n, f) == n;
  }
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  TargetState& ts = Target(s, target);
  if (!ts.armed) {
    return n == 0 || std::fwrite(data, 1, n, f) == n;
  }
  const uint64_t remaining = ts.plan.allow_bytes > ts.admitted
                                 ? ts.plan.allow_bytes - ts.admitted
                                 : 0;
  const size_t admit = static_cast<size_t>(
      std::min<uint64_t>(remaining, static_cast<uint64_t>(n)));
  if (admit != 0 && std::fwrite(data, 1, admit, f) != admit) {
    ++ts.faults;
    return false;
  }
  ts.admitted += admit;
  if (admit < n) {
    // The record is now genuinely torn on disk: its admitted prefix was
    // written through the real stream, the rest never will be. Flush so the
    // torn bytes actually reach the file before the caller gives up.
    std::fflush(f);
    ++ts.faults;
    return false;
  }
  return true;
}

bool RepoIoFaultInjector::Fsync(RepoIoTarget target, std::FILE* f) {
  if (armed_.load(std::memory_order_relaxed)) {
    InjectorState& s = State();
    std::lock_guard<std::mutex> lock(s.mu);
    TargetState& ts = Target(s, target);
    if (ts.armed && ts.plan.fail_fsync) {
      ++ts.faults;
      return false;
    }
  }
  return SyncStdioFile(f);
}

}  // namespace tcsim
