// Shared output helpers for the figure/table reproduction harnesses.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (Section 7) and prints (a) the paper's reported values, (b) the
// values measured in this reproduction, in a stable plain-text format that
// EXPERIMENTS.md quotes. Repeated, noise-bounded performance numbers come
// from the benchmark in tcbench/, not from these binaries.
//
// Telemetry flags: --trace[=FILE] records every span/instant of the run and
// writes Chrome trace JSON (open at chrome://tracing) to FILE or
// <name>_trace.json; --metrics prints the metric registry and the span
// summary table after the run. Under --audit without --trace the harness arms
// the bounded ring-buffer flight recorder instead, so the first invariant
// violation dumps the timeline that led up to it.
//
// --ledger[=FILE] arms the epoch critical-path ledger (obs::EpochLedger) at
// startup and writes the last measured run's merged records as JSONL to FILE
// (default <name>_ledger.jsonl) at exit — feed the file to
// tools/tcsim_analyze. Benches that measure several epoch runs call
// RestartLedger() before each one.

#ifndef TCSIM_BENCH_BENCH_UTIL_H_
#define TCSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>

#include "src/obs/epoch_ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_session.h"
#include "src/sim/invariants.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace tcsim {

// True when `flag` (e.g. "--audit") appears among the arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// Value of `--flag` / `--flag=value` among the arguments: null when absent,
// "" for the bare flag, the text after '=' otherwise.
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  const size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0) {
      if (argv[i][len] == '\0') {
        return "";
      }
      if (argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
    }
  }
  return nullptr;
}

// Per-binary entry/exit shim: arms the telemetry the flags ask for and, at
// the end of main, writes or prints what was recorded.
//
//   int main(int argc, char** argv) {
//     tcsim::BenchMain bm(argc, argv, "fig4_sleep_loop");
//     return bm.Finish(tcsim::Run(tcsim::HasFlag(argc, argv, "--audit")));
//   }
class BenchMain {
 public:
  BenchMain(int argc, char** argv, const char* name) {
    metrics_ = HasFlag(argc, argv, "--metrics");
    const char* trace = FlagValue(argc, argv, "--trace");
    if (trace != nullptr) {
      trace_file_ = *trace != '\0' ? trace : std::string(name) + "_trace.json";
      obs::TraceSession::Global().StartFull();
    } else if (HasFlag(argc, argv, "--audit")) {
      // No full trace requested but audits are on: arm the flight recorder so
      // a violation comes with the timeline that led up to it.
      obs::TraceSession::Global().StartRing();
    }
    if (obs::TraceSession::Global().enabled()) {
      obs::TraceSession::Global().InstallAuditDump();
    }
    const char* ledger = FlagValue(argc, argv, "--ledger");
    if (ledger != nullptr) {
      ledger_file_ =
          *ledger != '\0' ? ledger : std::string(name) + "_ledger.jsonl";
      obs::EpochLedger::Global().Enable();
    }
  }

  int Finish(int rc) const {
    obs::TraceSession& trace = obs::TraceSession::Global();
    if (!trace_file_.empty()) {
      std::FILE* f = std::fopen(trace_file_.c_str(), "w");
      if (f != nullptr) {
        const std::string json = trace.ExportChromeJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("\ntrace: %zu events -> %s (open in chrome://tracing)\n",
                    trace.recorded(), trace_file_.c_str());
      } else {
        std::fprintf(stderr, "cannot write trace file %s\n", trace_file_.c_str());
      }
    }
    if (metrics_) {
      std::printf("\n--- metrics ---\n%s",
                  obs::MetricsRegistry::Global().ExportTable().c_str());
      if (trace.recorded() > 0) {
        std::printf("\n--- spans ---\n%s", trace.ExportSummaryTable().c_str());
      }
    }
    if (!ledger_file_.empty()) {
      obs::EpochLedger& ledger = obs::EpochLedger::Global();
      if (ledger.WriteJsonl(ledger_file_)) {
        std::printf("\nledger: %zu records -> %s (analyze with "
                    "tcsim_analyze)\n",
                    ledger.recorded(), ledger_file_.c_str());
      } else {
        std::fprintf(stderr, "cannot write ledger file %s\n",
                     ledger_file_.c_str());
      }
    }
    return rc;
  }

 private:
  bool metrics_ = false;
  std::string trace_file_;
  std::string ledger_file_;
};

// Called before each measured epoch run. When --ledger armed the ledger,
// re-arming it drops the previous run's records, so the exported file holds
// exactly the last measured run. Without --ledger it does nothing.
inline void RestartLedger() {
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  if (ledger.enabled()) {
    ledger.Enable();
  }
}

// Prints the run's event-dispatch digest. Two runs of the same scenario with
// the same seed must print the same value — the deterministic-replay check.
inline void PrintDigest(const Simulator& sim) {
  obs::CaptureSimulatorMetrics(sim);
  std::printf("\nevent digest: %016llx\n",
              static_cast<unsigned long long>(sim.Digest()));
}

// Ends an audit pass: runs the final end-of-run audits, prints the summary,
// and returns the process exit code (0 = all audits pass).
inline int FinishAudit(InvariantRegistry* reg) {
  if (reg == nullptr) {
    return 0;
  }
  reg->FinishRun();
  std::printf("\n--- audit ---\n%s\n", reg->Summary().c_str());
  return reg->ok() ? 0 : 1;
}

// Accumulator for benches that run several independent simulations: combines
// each run's digest (XOR — deterministic and order-independent) and audit
// outcome into one printout / exit code.
struct MultiRunAudit {
  bool enabled = false;
  int rc = 0;
  uint64_t digest = 0;

  explicit MultiRunAudit(bool audit) : enabled(audit) {}

  // Call once per finished simulation; `reg` may be null (no audit run).
  void Collect(const Simulator& sim, InvariantRegistry* reg = nullptr) {
    digest ^= sim.Digest();
    obs::CaptureSimulatorMetrics(sim);
    if (reg != nullptr) {
      rc |= FinishAudit(reg);
    }
  }

  // Prints the combined digest and returns the exit code.
  int Finish() const {
    std::printf("\nevent digest (combined): %016llx\n",
                static_cast<unsigned long long>(digest));
    return rc;
  }
};

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void PrintSection(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

inline void PrintRow(const std::string& label, double paper, double measured,
                     const std::string& unit) {
  std::printf("%-44s paper: %10.3f %-8s measured: %10.3f %s\n", label.c_str(), paper,
              unit.c_str(), measured, unit.c_str());
}

inline void PrintValue(const std::string& label, double value, const std::string& unit) {
  std::printf("%-44s %10.3f %s\n", label.c_str(), value, unit.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

// Prints a (time, value) series downsampled to at most `max_points` rows —
// the data behind a figure, reproducible with any plotting tool.
inline void PrintSeries(const std::string& name, const TimeSeries& series,
                        size_t max_points = 40) {
  const size_t stride = series.size() > max_points ? series.size() / max_points : 1;
  std::printf("\nseries %s (t_seconds value), %zu points", name.c_str(), series.size());
  std::printf(stride > 1 ? ", downsampled x%zu:\n" : ":\n", stride);
  for (size_t i = 0; i < series.size(); i += stride) {
    std::printf("  %9.3f  %10.4f\n", ToSeconds(series.points()[i].time),
                series.points()[i].value);
  }
}

}  // namespace tcsim

#endif  // TCSIM_BENCH_BENCH_UTIL_H_
