#include "tools/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace tcsim {
namespace tools {

namespace {

// The serial chain: phases that run back-to-back on the coordinator thread
// and therefore tile an epoch segment's wall clock.
bool IsSerialPhase(const std::string& phase) {
  return phase == "window" || phase == "commit_wait" || phase == "freeze" ||
         phase == "capture" || phase == "spill" || phase == "commit_launch" ||
         phase == "epoch_commit" || phase == "output_release" ||
         phase == "failover";
}

// Phases of the overlapped background commit, attributed by epoch label.
bool IsBackgroundPhase(const std::string& phase) {
  return phase == "serialize.partition" || phase == "repo.hash_wait" ||
         phase == "repo.append" || phase == "repo.fsync" ||
         phase == "repo.journal";
}

bool IsPartitionPhase(const std::string& phase) {
  return phase == "freeze.partition" || phase == "capture.partition";
}

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

// --- Minimal JSONL field extraction -----------------------------------------
// The exporter writes flat one-line objects with a fixed key set; this reads
// them back without a general JSON parser.

bool FindKey(const std::string& line, const std::string& key, size_t* after) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  size_t i = at + needle.size();
  while (i < line.size() && line[i] == ' ') {
    ++i;
  }
  *after = i;
  return true;
}

bool ParseNumberField(const std::string& line, const std::string& key,
                      double* out) {
  size_t i;
  if (!FindKey(line, key, &i)) {
    return false;
  }
  const char* start = line.c_str() + i;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) {
    return false;
  }
  *out = v;
  return true;
}

// True when `v` is an integer in [lo, hi]; false for NaN and infinities, so
// a cast of `v` to an integer type that holds [lo, hi] is defined.
bool IsIntegerIn(double v, double lo, double hi) {
  return v >= lo && v <= hi && v == std::floor(v);
}

bool ParseStringField(const std::string& line, const std::string& key,
                      std::string* out) {
  size_t i;
  if (!FindKey(line, key, &i)) {
    return false;
  }
  if (i >= line.size() || line[i] != '"') {
    return false;
  }
  const size_t close = line.find('"', i + 1);
  if (close == std::string::npos) {
    return false;
  }
  *out = line.substr(i + 1, close - i - 1);
  return true;
}

}  // namespace

double AnalyzerRecord::ArgOr(const std::string& key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) {
      return v;
    }
  }
  return fallback;
}

std::vector<AnalyzerRecord> FromLedger(
    const std::vector<obs::LedgerRecord>& records) {
  std::vector<AnalyzerRecord> out;
  out.reserve(records.size());
  for (const obs::LedgerRecord& rec : records) {
    AnalyzerRecord a;
    a.epoch = rec.epoch;
    a.partition = rec.partition;
    a.phase = rec.phase;
    a.begin_ms = rec.begin_ms;
    a.end_ms = rec.end_ms;
    a.cause = rec.cause;
    for (uint8_t i = 0; i < rec.nargs; ++i) {
      a.args.emplace_back(rec.args[i].key, rec.args[i].value);
    }
    out.push_back(std::move(a));
  }
  return out;
}

bool ParseJsonlLine(const std::string& line, AnalyzerRecord* out,
                    std::string* err) {
  err->clear();
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) {
    return false;  // blank line, no error
  }
  double epoch = 0.0;
  double partition = 0.0;
  AnalyzerRecord rec;
  if (!ParseNumberField(line, "epoch", &epoch) ||
      !ParseNumberField(line, "partition", &partition) ||
      !ParseStringField(line, "phase", &rec.phase) ||
      !ParseNumberField(line, "begin_ms", &rec.begin_ms) ||
      !ParseNumberField(line, "end_ms", &rec.end_ms) ||
      !ParseStringField(line, "cause", &rec.cause)) {
    *err = "missing required ledger key";
    return false;
  }
  // Range checks before the narrowing casts. Epochs stop at 2^53, the last
  // integer a double holds exactly; partition -1 is the coordinator shard.
  if (!IsIntegerIn(epoch, 0.0, 9007199254740992.0)) {
    *err = "epoch is not an integer in [0, 2^53]";
    return false;
  }
  if (!IsIntegerIn(partition, -1.0, static_cast<double>(INT32_MAX))) {
    *err = "partition is not an integer in [-1, 2147483647]";
    return false;
  }
  if (!std::isfinite(rec.begin_ms) || !std::isfinite(rec.end_ms)) {
    *err = std::isfinite(rec.begin_ms) ? "end_ms is not finite"
                                       : "begin_ms is not finite";
    return false;
  }
  rec.epoch = static_cast<uint64_t>(epoch);
  rec.partition = static_cast<int32_t>(partition);
  size_t i;
  if (FindKey(line, "args", &i) && i < line.size() && line[i] == '{') {
    const size_t close = line.find('}', i);
    if (close == std::string::npos) {
      *err = "unterminated args object";
      return false;
    }
    std::string body = line.substr(i + 1, close - i - 1);
    size_t pos = 0;
    while ((pos = body.find('"', pos)) != std::string::npos) {
      const size_t kend = body.find('"', pos + 1);
      if (kend == std::string::npos) {
        break;
      }
      const std::string key = body.substr(pos + 1, kend - pos - 1);
      const size_t colon = body.find(':', kend);
      if (colon == std::string::npos) {
        break;
      }
      rec.args.emplace_back(key,
                            std::strtod(body.c_str() + colon + 1, nullptr));
      pos = body.find(',', colon);
      if (pos == std::string::npos) {
        break;
      }
    }
  }
  *out = std::move(rec);
  return true;
}

bool LoadJsonl(const std::string& path, std::vector<AnalyzerRecord>* out,
               std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    AnalyzerRecord rec;
    std::string line_err;
    if (ParseJsonlLine(line, &rec, &line_err)) {
      out->push_back(std::move(rec));
    } else if (!line_err.empty()) {
      *err = path + ":" + std::to_string(lineno) + ": " + line_err;
      return false;
    }
  }
  return true;
}

LedgerAnalysis Analyze(const std::vector<AnalyzerRecord>& records) {
  LedgerAnalysis out;
  out.records = records.size();

  for (const AnalyzerRecord& rec : records) {
    if (rec.end_ms + 1e-9 < rec.begin_ms) {
      out.errors.push_back("negative span in phase '" + rec.phase +
                           "' of epoch " + std::to_string(rec.epoch));
    }
  }

  // The epoch records tile the run: segment k = [close of k-1, close of k].
  std::vector<const AnalyzerRecord*> segments;
  for (const AnalyzerRecord& rec : records) {
    if (rec.phase == "epoch") {
      segments.push_back(&rec);
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const AnalyzerRecord* a, const AnalyzerRecord* b) {
              return a->epoch < b->epoch;
            });
  if (segments.empty()) {
    out.errors.push_back("ledger has no epoch records");
    return out;
  }
  for (size_t i = 1; i < segments.size(); ++i) {
    if (segments[i]->epoch == segments[i - 1]->epoch) {
      out.errors.push_back("duplicate epoch record for epoch " +
                           std::to_string(segments[i]->epoch));
    }
  }

  out.epochs.resize(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    EpochAnalysis& ep = out.epochs[i];
    ep.epoch = segments[i]->epoch;
    ep.mode = segments[i]->cause;
    ep.span_begin_ms = segments[i]->begin_ms;
    ep.span_end_ms = segments[i]->end_ms;
    ep.wall_ms = ep.span_end_ms - ep.span_begin_ms;
  }

  // Assign each serial record to the segment containing its begin time.
  auto segment_of = [&](double begin_ms) -> EpochAnalysis* {
    for (EpochAnalysis& ep : out.epochs) {
      if (begin_ms < ep.span_end_ms - 1e-9) {
        // Records fractionally before their segment (clock reads straddling
        // the close stamp) still belong to it.
        return begin_ms >= ep.span_begin_ms - 1e-3 ? &ep : nullptr;
      }
    }
    return nullptr;  // after the last close: the trailing horizon run
  };

  std::map<std::string, double> totals;
  std::vector<double> hold_samples;
  // Per-epoch-label partition durations (straggler) and background totals
  // (commit-wait attribution).
  std::map<uint64_t, std::map<int32_t, double>> partition_ms;
  std::map<uint64_t, std::map<std::string, double>> background_ms;
  std::map<uint64_t, double> commit_ms;

  for (const AnalyzerRecord& rec : records) {
    const double dur = rec.duration_ms();
    if (IsSerialPhase(rec.phase)) {
      EpochAnalysis* ep = segment_of(rec.begin_ms);
      if (ep == nullptr) {
        continue;
      }
      ep->attributed_ms += dur;
      PhaseShare share;
      share.phase = rec.phase;
      share.cause = rec.cause;
      share.ms = dur;
      ep->critical_path.push_back(std::move(share));
      totals[rec.phase] += dur;
      if (rec.phase == "commit_wait") {
        ep->commit_wait_ms += dur;
      } else if (rec.phase == "freeze" || rec.phase == "capture" ||
                 rec.phase == "spill") {
        ep->frozen_ms += dur;
      } else if (rec.phase == "output_release") {
        ep->released += rec.ArgOr("released", 0.0);
        ep->hold_max_us = std::max(ep->hold_max_us, rec.ArgOr("hold_max_us", 0.0));
        ep->hold_mean_us = rec.ArgOr("hold_mean_us", ep->hold_mean_us);
        if (rec.ArgOr("released", 0.0) > 0.0) {
          hold_samples.push_back(rec.ArgOr("hold_max_us", 0.0));
        }
      }
    } else if (IsPartitionPhase(rec.phase)) {
      partition_ms[rec.epoch][rec.partition] += dur;
    } else if (IsBackgroundPhase(rec.phase)) {
      background_ms[rec.epoch][rec.phase] += dur;
    } else if (rec.phase == "commit") {
      commit_ms[rec.epoch] += dur;
    }
  }

  for (EpochAnalysis& ep : out.epochs) {
    std::sort(ep.critical_path.begin(), ep.critical_path.end(),
              [](const PhaseShare& a, const PhaseShare& b) {
                return a.ms > b.ms;
              });
    ep.coverage = ep.wall_ms > 1e-9 ? ep.attributed_ms / ep.wall_ms : 1.0;
    for (PhaseShare& share : ep.critical_path) {
      share.share = ep.wall_ms > 1e-9 ? share.ms / ep.wall_ms : 0.0;
    }
    if (ep.critical_path.empty()) {
      out.errors.push_back("epoch " + std::to_string(ep.epoch) +
                           " has no serial phase records");
    }
    // Straggler: slowest partition freeze/capture labeled with this epoch.
    double best = -1.0;
    double second = 0.0;
    const auto pit = partition_ms.find(ep.epoch);
    if (pit != partition_ms.end()) {
      for (const auto& [partition, ms] : pit->second) {
        if (ms > best) {
          second = best < 0.0 ? 0.0 : best;
          best = ms;
          ep.straggler_partition = partition;
        } else if (ms > second) {
          second = ms;
        }
      }
    }
    if (best >= 0.0) {
      ep.straggler_ms = best;
      ep.straggler_slack_ms = best - second;
    }
    const auto cit = commit_ms.find(ep.epoch);
    ep.overlapped_ms = cit != commit_ms.end() ? cit->second : 0.0;
    // What was commit_wait actually waiting on? The previous epoch's
    // background commit, broken down by its dominant internal phase.
    if (ep.commit_wait_ms > 0.0 && ep.epoch > 0) {
      const auto bit = background_ms.find(ep.epoch - 1);
      if (bit != background_ms.end()) {
        double dominant = 0.0;
        for (const auto& [phase, ms] : bit->second) {
          if (ms > dominant) {
            dominant = ms;
            ep.commit_wait_dominant = phase;
          }
        }
      }
    }
    out.total_wall_ms += ep.wall_ms;
    out.min_coverage = std::min(out.min_coverage, ep.coverage);
  }

  out.phase_totals_ms.assign(totals.begin(), totals.end());
  std::sort(out.phase_totals_ms.begin(), out.phase_totals_ms.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  out.hold_p50_us = NearestRank(hold_samples, 50.0);
  out.hold_p99_us = NearestRank(hold_samples, 99.0);
  return out;
}

std::string ReportText(const LedgerAnalysis& analysis) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "epoch ledger: %zu records, %zu epochs, wall %.3f ms, "
                "min coverage %.3f\n",
                analysis.records, analysis.epochs.size(),
                analysis.total_wall_ms, analysis.min_coverage);
  out << line;
  std::snprintf(line, sizeof line,
                "%6s %6s %10s %7s %10s %11s %10s %10s %9s  %s\n", "epoch",
                "mode", "wall_ms", "cover", "frozen_ms", "overlap_ms",
                "cwait_ms", "straggler", "slack_ms", "cwait_dominant");
  out << line;
  for (const EpochAnalysis& ep : analysis.epochs) {
    std::snprintf(line, sizeof line,
                  "%6llu %6s %10.3f %7.3f %10.3f %11.3f %10.3f %10d %9.3f  %s\n",
                  static_cast<unsigned long long>(ep.epoch), ep.mode.c_str(),
                  ep.wall_ms, ep.coverage, ep.frozen_ms, ep.overlapped_ms,
                  ep.commit_wait_ms, ep.straggler_partition,
                  ep.straggler_slack_ms,
                  ep.commit_wait_dominant.empty() ? "-"
                                                  : ep.commit_wait_dominant.c_str());
    out << line;
  }
  out << "critical-path attribution (all epochs):\n";
  for (const auto& [phase, ms] : analysis.phase_totals_ms) {
    std::snprintf(line, sizeof line, "  %-16s %12.3f ms %6.1f%%\n",
                  phase.c_str(), ms,
                  analysis.total_wall_ms > 1e-9
                      ? 100.0 * ms / analysis.total_wall_ms
                      : 0.0);
    out << line;
  }
  std::snprintf(line, sizeof line, "output hold: p50 %.3f us  p99 %.3f us\n",
                analysis.hold_p50_us, analysis.hold_p99_us);
  out << line;
  for (const std::string& err : analysis.errors) {
    out << "error: " << err << "\n";
  }
  return out.str();
}

std::string ReportJson(const LedgerAnalysis& analysis) {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"records\": %zu, \"total_wall_ms\": %.6g, "
                "\"min_coverage\": %.6g, \"hold_p50_us\": %.6g, "
                "\"hold_p99_us\": %.6g, \"epochs\": [",
                analysis.records, analysis.total_wall_ms,
                analysis.min_coverage, analysis.hold_p50_us,
                analysis.hold_p99_us);
  out << buf;
  for (size_t i = 0; i < analysis.epochs.size(); ++i) {
    const EpochAnalysis& ep = analysis.epochs[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"epoch\": %llu, \"mode\": \"%s\", \"wall_ms\": %.6g, "
        "\"coverage\": %.6g, \"frozen_ms\": %.6g, \"overlapped_ms\": %.6g, "
        "\"commit_wait_ms\": %.6g, \"straggler_partition\": %d, "
        "\"straggler_slack_ms\": %.6g",
        i ? ", " : "", static_cast<unsigned long long>(ep.epoch),
        ep.mode.c_str(), ep.wall_ms, ep.coverage, ep.frozen_ms,
        ep.overlapped_ms, ep.commit_wait_ms, ep.straggler_partition,
        ep.straggler_slack_ms);
    out << buf;
    if (!ep.commit_wait_dominant.empty()) {
      out << ", \"commit_wait_dominant\": \"" << ep.commit_wait_dominant
          << "\"";
    }
    out << "}";
  }
  out << "], \"phase_totals_ms\": {";
  for (size_t i = 0; i < analysis.phase_totals_ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", i ? ", " : "",
                  analysis.phase_totals_ms[i].first.c_str(),
                  analysis.phase_totals_ms[i].second);
    out << buf;
  }
  out << "}, \"errors\": [";
  for (size_t i = 0; i < analysis.errors.size(); ++i) {
    out << (i ? ", " : "") << "\"" << analysis.errors[i] << "\"";
  }
  out << "]}";
  return out.str();
}

std::string DiffText(const LedgerAnalysis& baseline,
                     const LedgerAnalysis& current) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "min coverage: %.3f -> %.3f\ntotal wall:   %.3f ms -> %.3f ms "
                "(%+.1f%%)\n",
                baseline.min_coverage, current.min_coverage,
                baseline.total_wall_ms, current.total_wall_ms,
                baseline.total_wall_ms > 1e-9
                    ? 100.0 * (current.total_wall_ms - baseline.total_wall_ms) /
                          baseline.total_wall_ms
                    : 0.0);
  out << line;
  std::map<std::string, std::pair<double, double>> merged;
  for (const auto& [phase, ms] : baseline.phase_totals_ms) {
    merged[phase].first = ms;
  }
  for (const auto& [phase, ms] : current.phase_totals_ms) {
    merged[phase].second = ms;
  }
  std::snprintf(line, sizeof line, "%-16s %12s %12s %10s\n", "phase",
                "base_ms", "cur_ms", "delta_ms");
  out << line;
  for (const auto& [phase, ms] : merged) {
    std::snprintf(line, sizeof line, "%-16s %12.3f %12.3f %+10.3f\n",
                  phase.c_str(), ms.first, ms.second, ms.second - ms.first);
    out << line;
  }
  return out.str();
}

}  // namespace tools
}  // namespace tcsim
