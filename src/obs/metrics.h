// The per-layer metrics registry (the "flight recorder" layer's numeric half).
//
// Counters, gauges and histograms are registered by name — the convention is
// `<layer>.<object>.<name>` (e.g. "checkpoint.engine.captures",
// "net.nic.5.rx_bytes") — and addressed on hot paths through pre-resolved
// handles: FindCounter() does one map lookup at registration time and returns
// a stable pointer, so the per-event cost of a metric is one pointer-chase
// and an integer add. Nothing in this layer touches the simulator: metrics
// never schedule events, never consume randomness, and therefore can never
// perturb a run (the rule DESIGN.md §10 spells out; tests/obs_test.cc holds
// the event digest to it).
//
// The registry is process-wide (MetricsRegistry::Global()): benches that run
// several simulations accumulate across them. Tests call ResetAll() between
// cases — values are zeroed but entries (and handles) stay valid forever.

#ifndef TCSIM_SRC_OBS_METRICS_H_
#define TCSIM_SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace tcsim {

class Simulator;

namespace obs {

// Monotonic event count. The only operation allowed on a hot path.
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Last-written (or high-water) scalar.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  // High-water semantics: keeps the maximum ever written.
  void SetMax(double v) {
    if (v > value_) {
      value_ = v;
    }
  }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Power-of-two histogram over non-negative values: bucket 0 holds v < 1,
// bucket i (i >= 1) holds v in [2^(i-1), 2^i). Fixed storage, no allocation
// after registration, O(1) Observe.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  // Index of the bucket `v` falls into (clamped; negatives land in bucket 0).
  static size_t BucketIndex(double v);
  // Upper bound of bucket `i` (the value reported for percentiles).
  static double BucketUpperBound(size_t i);

  // p-th percentile (p in [0, 100]) resolved to the upper bound of the
  // bucket containing that rank. 0 when empty.
  double ApproxPercentile(double p) const;

  void Reset();

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Name -> metric registry. Find* is find-or-create; the returned pointer is
// stable for the registry's lifetime (entries are never deleted, ResetAll
// only zeroes values), so callers resolve once and increment forever.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every layer records into.
  static MetricsRegistry& Global();

  Counter* FindCounter(const std::string& name);
  Gauge* FindGauge(const std::string& name);
  Histogram* FindHistogram(const std::string& name);

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Zeroes every metric; handles stay valid.
  void ResetAll();

  // Plain-text table, one metric per line, sorted by name.
  std::string ExportTable() const;

  // One JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  // {"name": {"count": n, "sum": s, "mean": m, "min": lo, "max": hi,
  // "p50": .., "p99": .., "p999": ..}, ...}}. Counters print as integers,
  // gauges as %.6g. p999 vs max distinguishes a fat tail from one outlier.
  std::string ExportJson() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Samples the event-kernel diagnostics of `sim` into the global registry
// (gauges "sim.queue.*"): events dispatched, events per simulated second,
// queue-depth high-water, slot capacity and reuse count. Called by the bench
// harness at end of run — the kernel itself stays obs-free; its only
// per-event telemetry cost is the high-water compare inside EventQueue.
void CaptureSimulatorMetrics(const Simulator& sim);

}  // namespace obs
}  // namespace tcsim

#endif  // TCSIM_SRC_OBS_METRICS_H_
