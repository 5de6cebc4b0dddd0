#include "src/obs/epoch_ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace tcsim {
namespace obs {

namespace {

struct ThreadContext {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  bool bound = false;
};

thread_local ThreadContext t_context;

}  // namespace

EpochLedger& EpochLedger::Global() {
  static EpochLedger* ledger = new EpochLedger();
  return *ledger;
}

void EpochLedger::Enable() {
  Clear();
  base_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void EpochLedger::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void EpochLedger::Clear() {
  enabled_.store(false, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    shard.records.clear();
  }
}

double EpochLedger::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - base_)
      .count();
}

void EpochLedger::Stamp(uint32_t shard, const LedgerRecord& rec) {
  if (!enabled()) {
    return;
  }
  if (shard >= kShards) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shards_[shard].records.push_back(rec);
}

void EpochLedger::BindThread(uint32_t shard, uint64_t epoch) {
  t_context.shard = shard;
  t_context.epoch = epoch;
  t_context.bound = true;
}

void EpochLedger::UnbindThread() { t_context = ThreadContext{}; }

uint64_t EpochLedger::BoundEpoch() {
  return t_context.bound ? t_context.epoch : 0;
}

void EpochLedger::StampHere(int32_t partition, const char* phase,
                            double begin_ms, double end_ms, const char* cause,
                            std::initializer_list<LedgerRecord::Arg> args) {
  if (!enabled()) {
    return;
  }
  if (!t_context.bound) {
    // An unbound thread has no shard it may write without racing the owner;
    // dropping (counted) beats corrupting the single-writer discipline.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  LedgerRecord rec;
  rec.epoch = t_context.epoch;
  rec.partition = partition;
  rec.phase = phase;
  rec.begin_ms = begin_ms;
  rec.end_ms = end_ms;
  rec.cause = cause;
  for (const LedgerRecord::Arg& arg : args) {
    if (rec.nargs >= LedgerRecord::kMaxArgs) {
      break;
    }
    rec.args[rec.nargs++] = arg;
  }
  Stamp(t_context.shard, rec);
}

size_t EpochLedger::recorded() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.records.size();
  }
  return n;
}

int EpochLedger::PhaseRank(const char* phase) {
  // The serial chain first (in pipeline order), then the parallel freeze /
  // capture details, then the overlapped background commit's internals.
  static constexpr const char* kOrder[] = {
      "epoch",         "window",
      "commit_wait",   "freeze",
      "capture",       "spill",
      "commit_launch", "epoch_commit",
      "output_release", "failover",
      "freeze.partition", "capture.partition",
      "commit",        "serialize.partition",
      "repo.hash_wait", "repo.append",
      "repo.fsync",    "repo.journal",
  };
  for (size_t i = 0; i < sizeof(kOrder) / sizeof(kOrder[0]); ++i) {
    if (std::strcmp(phase, kOrder[i]) == 0) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(sizeof(kOrder) / sizeof(kOrder[0]));
}

std::vector<LedgerRecord> EpochLedger::Merged() const {
  std::vector<LedgerRecord> out;
  out.reserve(recorded());
  // Concatenation order is fixed (shard index), and each shard's internal
  // order is its single writer's emission order, so the stable sort below
  // yields one deterministic total order across runs.
  for (const Shard& shard : shards_) {
    out.insert(out.end(), shard.records.begin(), shard.records.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const LedgerRecord& a, const LedgerRecord& b) {
                     if (a.epoch != b.epoch) return a.epoch < b.epoch;
                     const int ra = PhaseRank(a.phase);
                     const int rb = PhaseRank(b.phase);
                     if (ra != rb) return ra < rb;
                     return a.partition < b.partition;
                   });
  return out;
}

std::string EpochLedger::ExportJsonl() const {
  std::string out;
  char buf[256];
  for (const LedgerRecord& rec : Merged()) {
    std::snprintf(buf, sizeof buf,
                  "{\"epoch\": %llu, \"partition\": %d, \"phase\": \"%s\", "
                  "\"begin_ms\": %.6f, \"end_ms\": %.6f, \"cause\": \"%s\"",
                  static_cast<unsigned long long>(rec.epoch), rec.partition,
                  rec.phase, rec.begin_ms, rec.end_ms, rec.cause);
    out += buf;
    if (rec.nargs > 0) {
      out += ", \"args\": {";
      for (uint8_t a = 0; a < rec.nargs; ++a) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", a ? ", " : "",
                      rec.args[a].key, rec.args[a].value);
        out += buf;
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

bool EpochLedger::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string text = ExportJsonl();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace obs
}  // namespace tcsim
