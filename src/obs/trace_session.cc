#include "src/obs/trace_session.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "src/sim/invariants.h"

namespace tcsim {
namespace obs {

namespace {

std::function<void(const std::string&)>& AuditDumpSink() {
  static std::function<void(const std::string&)> sink;
  return sink;
}

}  // namespace

TraceSession& TraceSession::Global() {
  static TraceSession* session = new TraceSession();
  return *session;
}

void TraceSession::StartFull() {
  Clear();
  mode_ = Mode::kFull;
}

void TraceSession::StartRing(size_t capacity) {
  Clear();
  mode_ = Mode::kRing;
  capacity_ = capacity > 0 ? capacity : 1;
  records_.reserve(capacity_);
}

void TraceSession::Stop() { mode_ = Mode::kOff; }

void TraceSession::Clear() {
  records_.clear();
  next_id_ = 1;
  dropped_ = 0;
  tracks_.clear();
  track_index_.clear();
}

uint32_t TraceSession::InternTrack(const std::string& track) {
  auto it = track_index_.find(track);
  if (it != track_index_.end()) {
    return it->second;
  }
  const uint32_t index = static_cast<uint32_t>(tracks_.size());
  tracks_.push_back(track);
  track_index_.emplace(track, index);
  return index;
}

TraceSession::Record* TraceSession::Place(Record rec) {
  rec.id = next_id_++;
  if (mode_ == Mode::kRing && records_.size() >= capacity_) {
    const size_t slot = static_cast<size_t>((rec.id - 1) % capacity_);
    ++dropped_;
    records_[slot] = rec;
    return &records_[slot];
  }
  records_.push_back(rec);
  return &records_.back();
}

TraceSession::Record* TraceSession::Find(SpanId id) {
  if (id == 0 || records_.empty()) {
    return nullptr;
  }
  size_t slot;
  if (mode_ == Mode::kRing) {
    slot = static_cast<size_t>((id - 1) % capacity_);
    if (slot >= records_.size()) {
      return nullptr;
    }
  } else {
    if (id - 1 >= records_.size()) {
      return nullptr;
    }
    slot = static_cast<size_t>(id - 1);
  }
  Record* rec = &records_[slot];
  return rec->id == id ? rec : nullptr;  // stale ids were overwritten
}

const TraceSession::Record* TraceSession::ChronoRecord(size_t i) const {
  if (mode_ == Mode::kRing && records_.size() >= capacity_) {
    // The buffer is full: the oldest surviving record is the one the next
    // Place would overwrite.
    const size_t start = static_cast<size_t>((next_id_ - 1) % capacity_);
    return &records_[(start + i) % capacity_];
  }
  return &records_[i];
}

SpanId TraceSession::BeginSpan(const std::string& track, const char* name, SimTime t) {
  if (!enabled()) {
    return 0;
  }
  Record rec;
  rec.track = InternTrack(track);
  rec.kind = 0;
  rec.name = name;
  rec.begin = t;
  rec.end = -1;
  return Place(rec)->id;
}

void TraceSession::EndSpan(SpanId id, SimTime t) {
  Record* rec = Find(id);
  if (rec == nullptr || rec->kind != 0 || rec->end >= 0) {
    return;
  }
  rec->end = t >= rec->begin ? t : rec->begin;
}

void TraceSession::AddSpanArg(SpanId id, const char* key, double value) {
  Record* rec = Find(id);
  if (rec == nullptr || rec->nargs >= kMaxArgs) {
    return;
  }
  rec->args[rec->nargs++] = TraceArg{key, value};
}

void TraceSession::Instant(const std::string& track, const char* name, SimTime t,
                           std::initializer_list<TraceArg> args) {
  if (!enabled()) {
    return;
  }
  Record rec;
  rec.track = InternTrack(track);
  rec.kind = 1;
  rec.name = name;
  rec.begin = t;
  rec.end = t;
  for (const TraceArg& arg : args) {
    if (rec.nargs >= kMaxArgs) {
      break;
    }
    rec.args[rec.nargs++] = arg;
  }
  Place(rec);
}

void TraceSession::SortedView(std::vector<uint32_t>* tid_map,
                              std::vector<const Record*>* ordered) const {
  // Track ids by sorted name: interning order depends on which thread first
  // touched a track, which is not stable across runs of a parallel workload.
  std::vector<std::string> names(tracks_);
  std::sort(names.begin(), names.end());
  tid_map->resize(tracks_.size());
  for (size_t i = 0; i < tracks_.size(); ++i) {
    (*tid_map)[i] = static_cast<uint32_t>(
        std::lower_bound(names.begin(), names.end(), tracks_[i]) -
        names.begin());
  }
  ordered->reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    ordered->push_back(ChronoRecord(i));
  }
  std::stable_sort(ordered->begin(), ordered->end(),
                   [&](const Record* a, const Record* b) {
                     const uint32_t ta = (*tid_map)[a->track];
                     const uint32_t tb = (*tid_map)[b->track];
                     if (ta != tb) return ta < tb;
                     if (a->begin != b->begin) return a->begin < b->begin;
                     return a->id < b->id;
                   });
}

std::string TraceSession::ExportChromeJson() const {
  std::ostringstream out;
  char buf[256];
  std::vector<uint32_t> tid_map;
  std::vector<const Record*> ordered;
  SortedView(&tid_map, &ordered);
  std::vector<std::string> names(tracks_);
  std::sort(names.begin(), names.end());
  out << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  for (size_t i = 0; i < names.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\": \"M\", \"pid\": 0, \"tid\": %zu, \"name\": "
                  "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ",\n", i, names[i].c_str());
    out << buf;
    first = false;
  }
  for (const Record* rp : ordered) {
    const Record& rec = *rp;
    const bool open = rec.kind == 0 && rec.end < 0;
    const double ts = ToMicroseconds(rec.begin);
    const uint32_t tid = tid_map[rec.track];
    if (rec.kind == 1) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %u, "
                    "\"cat\": \"tcsim\", \"name\": \"%s\", \"ts\": %.3f",
                    first ? "" : ",\n", tid, rec.name, ts);
    } else {
      const double dur = open ? 0.0 : ToMicroseconds(rec.end - rec.begin);
      std::snprintf(buf, sizeof buf,
                    "%s{\"ph\": \"X\", \"pid\": 0, \"tid\": %u, \"cat\": "
                    "\"tcsim\", \"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f",
                    first ? "" : ",\n", tid, rec.name, ts, dur);
    }
    out << buf;
    first = false;
    if (rec.nargs > 0 || open) {
      out << ", \"args\": {";
      for (uint8_t a = 0; a < rec.nargs; ++a) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", a ? ", " : "",
                      rec.args[a].key, rec.args[a].value);
        out << buf;
      }
      if (open) {
        out << (rec.nargs ? ", " : "") << "\"open\": 1";
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string TraceSession::ExportSummaryTable() const {
  struct Agg {
    uint64_t count = 0;
    SimTime total = 0;
    SimTime max = 0;
    bool instant = true;
  };
  std::map<std::pair<std::string, std::string>, Agg> by_name;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& rec = *ChronoRecord(i);
    Agg& agg = by_name[{tracks_[rec.track], rec.name}];
    ++agg.count;
    if (rec.kind == 0 && rec.end >= 0) {
      agg.instant = false;
      const SimTime dur = rec.end - rec.begin;
      agg.total += dur;
      agg.max = std::max(agg.max, dur);
    }
  }
  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof line, "%-16s %-24s %8s %12s %12s %12s\n", "track",
                "span", "count", "total_ms", "mean_ms", "max_ms");
  out << line;
  for (const auto& [key, agg] : by_name) {
    if (agg.instant) {
      std::snprintf(line, sizeof line, "%-16s %-24s %8llu %12s %12s %12s\n",
                    key.first.c_str(), key.second.c_str(),
                    static_cast<unsigned long long>(agg.count), "-", "-", "-");
    } else {
      const double total_ms = ToSeconds(agg.total) * 1e3;
      std::snprintf(line, sizeof line,
                    "%-16s %-24s %8llu %12.3f %12.3f %12.3f\n",
                    key.first.c_str(), key.second.c_str(),
                    static_cast<unsigned long long>(agg.count), total_ms,
                    total_ms / static_cast<double>(agg.count),
                    ToSeconds(agg.max) * 1e3);
    }
    out << line;
  }
  return out.str();
}

void TraceSession::FormatRecord(const Record& rec,
                                const std::vector<std::string>& tracks,
                                std::string* out) {
  char buf[192];
  if (rec.kind == 1) {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ %.3f us", tracks[rec.track].c_str(),
                  rec.name, ToMicroseconds(rec.begin));
  } else if (rec.end < 0) {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ %.3f us (open)",
                  tracks[rec.track].c_str(), rec.name, ToMicroseconds(rec.begin));
  } else {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ %.3f us dur %.3f us",
                  tracks[rec.track].c_str(), rec.name, ToMicroseconds(rec.begin),
                  ToMicroseconds(rec.end - rec.begin));
  }
  *out += buf;
  for (uint8_t a = 0; a < rec.nargs; ++a) {
    std::snprintf(buf, sizeof buf, " %s=%.6g", rec.args[a].key, rec.args[a].value);
    *out += buf;
  }
  *out += '\n';
}

std::string TraceSession::DumpTail(size_t n) const {
  const size_t held = records_.size();
  const size_t start = held > n ? held - n : 0;
  std::string out;
  for (size_t i = start; i < held; ++i) {
    FormatRecord(*ChronoRecord(i), tracks_, &out);
  }
  return out;
}

void TraceSession::SetAuditDumpSink(std::function<void(const std::string&)> sink) {
  AuditDumpSink() = std::move(sink);
}

void TraceSession::InstallAuditDump(size_t tail) {
  auto dumped = std::make_shared<bool>(false);
  InvariantRegistry::SetGlobalViolationHook(
      [tail, dumped](const InvariantViolation& violation) {
        if (*dumped) {
          return;
        }
        *dumped = true;
        const TraceSession& session = TraceSession::Global();
        std::ostringstream out;
        out << "=== flight recorder: invariant [" << violation.invariant
            << "] violated at t=" << ToSeconds(violation.time)
            << "s: " << violation.detail << " ===\n";
        if (session.recorded() == 0) {
          out << "  (no telemetry records held)\n";
        } else {
          out << session.DumpTail(tail);
        }
        if (AuditDumpSink()) {
          AuditDumpSink()(out.str());
        } else {
          std::fputs(out.str().c_str(), stderr);
        }
      });
}

}  // namespace obs
}  // namespace tcsim
