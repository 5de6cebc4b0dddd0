// Tests for the telemetry layer (src/obs): metric registry semantics,
// histogram bucketing, span recording and Chrome export, the ring-buffer
// flight recorder, the invariant-audit dump hook, and — the layer's defining
// property — that tracing is perturbation-free: the event digest of a run
// with tracing fully on is bit-identical to the same run with tracing off.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/emulab/experiment.h"
#include "src/emulab/testbed.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_session.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/invariants.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/timetravel/basic_run.h"

namespace tcsim {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::SpanId;
using obs::TraceSession;

// Every test starts from a quiet global session/registry and leaves it quiet:
// both are process-wide singletons shared with the instrumented layers.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSession::Global().Stop();
    TraceSession::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    TraceSession::Global().Stop();
    TraceSession::Global().Clear();
    TraceSession::SetAuditDumpSink(nullptr);
    MetricsRegistry::Global().ResetAll();
  }
};

// --- Metric registry ----------------------------------------------------------

TEST_F(ObsTest, CounterHandlesAreStableAndReused) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Counter* a = reg.FindCounter("test.obs.counter");
  obs::Counter* b = reg.FindCounter("test.obs.counter");
  EXPECT_EQ(a, b) << "same name must resolve to the same handle";

  a->Increment();
  a->Add(4);
  EXPECT_EQ(b->value(), 5u);

  // ResetAll zeroes the value but never invalidates the handle.
  reg.ResetAll();
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(reg.FindCounter("test.obs.counter"), a);
  a->Increment();
  EXPECT_EQ(b->value(), 1u);
}

TEST_F(ObsTest, GaugeSetMaxKeepsHighWater) {
  obs::Gauge* g = MetricsRegistry::Global().FindGauge("test.obs.gauge");
  g->SetMax(10.0);
  g->SetMax(4.0);
  EXPECT_DOUBLE_EQ(g->value(), 10.0);
  g->Set(4.0);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
}

TEST_F(ObsTest, HistogramBucketing) {
  // Bucket 0 holds v < 1; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.99), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(1.99), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3.0), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 11u);

  Histogram* h = MetricsRegistry::Global().FindHistogram("test.obs.hist");
  for (double v : {0.5, 1.0, 2.0, 3.0, 1000.0}) {
    h->Observe(v);
  }
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 1000.0);
  EXPECT_EQ(h->buckets()[0], 1u);
  EXPECT_EQ(h->buckets()[1], 1u);
  EXPECT_EQ(h->buckets()[2], 2u);
  // Percentiles resolve to bucket upper bounds; the median of the five
  // samples lands in bucket 2 ([2, 4)).
  EXPECT_DOUBLE_EQ(h->ApproxPercentile(50.0), Histogram::BucketUpperBound(2));
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.ApproxPercentile(99.0), 0.0);
}

// --- Span recording and export ------------------------------------------------

TEST_F(ObsTest, SpansNestAndOrderInChromeJson) {
  TraceSession& trace = TraceSession::Global();
  trace.StartFull();

  const SpanId outer = trace.BeginSpan("node0", "outer", 1 * kMicrosecond);
  const SpanId inner = trace.BeginSpan("node0", "inner", 2 * kMicrosecond);
  trace.AddSpanArg(inner, "bytes", 42.0);
  trace.Instant("node0", "mark", 3 * kMicrosecond, {{"v", 1.0}});
  trace.EndSpan(inner, 4 * kMicrosecond);
  trace.EndSpan(outer, 9 * kMicrosecond);

  const std::string json = trace.ExportChromeJson();

  // Track metadata names tid 0.
  EXPECT_NE(json.find("\"thread_name\", \"args\": {\"name\": \"node0\"}"),
            std::string::npos);
  // Outer: ts 1us dur 8us; inner: ts 2us dur 2us — inner nests inside outer
  // by [ts, ts+dur] containment, the rule chrome://tracing renders by.
  const size_t outer_pos =
      json.find("\"name\": \"outer\", \"ts\": 1.000, \"dur\": 8.000");
  const size_t inner_pos =
      json.find("\"name\": \"inner\", \"ts\": 2.000, \"dur\": 2.000");
  const size_t mark_pos = json.find("\"name\": \"mark\", \"ts\": 3.000");
  ASSERT_NE(outer_pos, std::string::npos) << json;
  ASSERT_NE(inner_pos, std::string::npos) << json;
  ASSERT_NE(mark_pos, std::string::npos) << json;
  // Records export in recording order: outer before inner before the instant.
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_LT(inner_pos, mark_pos);
  // The span arg and the instant arg both survive export.
  EXPECT_NE(json.find("\"bytes\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"v\": 1"), std::string::npos);
}

TEST_F(ObsTest, OpenSpanExportsWithZeroDurationAndFlag) {
  TraceSession& trace = TraceSession::Global();
  trace.StartFull();
  trace.BeginSpan("t", "never_ended", 5 * kMicrosecond);
  const std::string json = trace.ExportChromeJson();
  EXPECT_NE(json.find("\"open\": 1"), std::string::npos);
}

TEST_F(ObsTest, DisabledSessionRecordsNothing) {
  TraceSession& trace = TraceSession::Global();
  ASSERT_FALSE(trace.enabled());
  const SpanId id = trace.BeginSpan("t", "ignored", 1);
  EXPECT_EQ(id, 0u);
  trace.EndSpan(id, 2);       // no-op by contract
  trace.AddSpanArg(id, "k", 1.0);
  trace.Instant("t", "ignored", 3);
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_EQ(trace.total_events(), 0u);
}

// --- Ring-buffer flight recorder ----------------------------------------------

TEST_F(ObsTest, RingBufferWrapsKeepingNewestRecords) {
  TraceSession& trace = TraceSession::Global();
  trace.StartRing(4);
  for (int i = 0; i < 10; ++i) {
    trace.Instant("ring", i % 2 == 0 ? "even" : "odd",
                  static_cast<SimTime>(i) * kMicrosecond, {{"i", double(i)}});
  }
  EXPECT_EQ(trace.recorded(), 4u);
  EXPECT_EQ(trace.total_events(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);

  // The newest four records (i = 6..9) survive, oldest first.
  const std::string tail = trace.DumpTail(16);
  EXPECT_EQ(tail.find("\"i\": 5"), std::string::npos);
  for (int i = 6; i < 10; ++i) {
    EXPECT_NE(tail.find("i=" + std::to_string(i)), std::string::npos) << tail;
  }
  EXPECT_LT(tail.find("i=6"), tail.find("i=9"));
}

TEST_F(ObsTest, EndSpanOnOverwrittenRecordIsSafe) {
  TraceSession& trace = TraceSession::Global();
  trace.StartRing(2);
  const SpanId old_span = trace.BeginSpan("ring", "old", 1 * kMicrosecond);
  for (int i = 0; i < 4; ++i) {
    trace.Instant("ring", "filler", static_cast<SimTime>(2 + i) * kMicrosecond);
  }
  // The slot that held `old_span` now holds a filler; ending the stale id
  // must not corrupt it.
  trace.EndSpan(old_span, 10 * kMicrosecond);
  const std::string tail = trace.DumpTail(4);
  EXPECT_EQ(tail.find("old"), std::string::npos);
  EXPECT_NE(tail.find("filler"), std::string::npos);
}

// --- Invariant-audit auto-dump ------------------------------------------------

TEST_F(ObsTest, AuditViolationDumpsFlightRecorderOnce) {
  TraceSession& trace = TraceSession::Global();
  trace.StartRing(8);
  trace.Instant("node0", "before_failure", 7 * kMicrosecond);
  trace.InstallAuditDump(/*tail=*/8);

  std::vector<std::string> dumps;
  TraceSession::SetAuditDumpSink([&](const std::string& d) { dumps.push_back(d); });

  Simulator sim;
  InvariantRegistry reg(&sim);
  reg.ReportViolation("test.invariant", "deliberately broken");
  reg.ReportViolation("test.invariant", "second violation");

  // Only the first violation dumps; the dump carries the violation header and
  // the recorded timeline.
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("flight recorder"), std::string::npos);
  EXPECT_NE(dumps[0].find("test.invariant"), std::string::npos);
  EXPECT_NE(dumps[0].find("deliberately broken"), std::string::npos);
  EXPECT_NE(dumps[0].find("before_failure"), std::string::npos);

  // Both violations are still recorded as usual.
  EXPECT_EQ(reg.violations().size(), 2u);

  InvariantRegistry::SetGlobalViolationHook(nullptr);
}

// --- The perturbation-free rule -----------------------------------------------
//
// Running a full checkpointed scenario with tracing on must produce an event
// digest bit-identical to the same scenario with tracing off: telemetry never
// schedules events, never consumes randomness, never changes a code path a
// component observes.

template <typename Run>
uint64_t RunCheckpointedScenario() {
  typename Run::Params params;
  params.seed = 11;
  Run run(params);
  run.AdvanceTo(200 * kMillisecond);
  run.CaptureCheckpoint();
  run.AdvanceTo(500 * kMillisecond);
  run.CaptureCheckpoint();
  run.AdvanceTo(800 * kMillisecond);
  return run.sim().Digest();
}

TEST_F(ObsTest, TracingIsPerturbationFreeOnBasicExperimentRun) {
  TraceSession::Global().Stop();
  const uint64_t digest_off = RunCheckpointedScenario<BasicExperimentRun>();

  TraceSession::Global().StartFull();
  const uint64_t digest_full = RunCheckpointedScenario<BasicExperimentRun>();
  EXPECT_GT(TraceSession::Global().recorded(), 0u)
      << "the traced run must actually have recorded spans";

  TraceSession::Global().StartRing(16);
  const uint64_t digest_ring = RunCheckpointedScenario<BasicExperimentRun>();

  EXPECT_EQ(digest_off, digest_full);
  EXPECT_EQ(digest_off, digest_ring);
}

// A stateful swap-out/in cycle of a one-node experiment, with the fs
// server's repository attached when `repo` is non-null. Returns the event
// digest at the end of the cycle; `saved_at` (optional) receives the
// swap-out checkpoint's saved instant.
uint64_t RunStatefulSwapCycle(CheckpointRepo* repo, SimTime* saved_at = nullptr) {
  Simulator sim;
  Testbed testbed(&sim, 77);
  testbed.AttachRepository(repo);
  ExperimentSpec spec("one-node");
  spec.AddNode("pc1");
  Experiment* experiment = testbed.CreateExperiment(spec);
  experiment->SwapIn(/*golden_cached=*/true, nullptr);
  sim.RunUntil(30 * kSecond);
  experiment->node("pc1")->kernel().block().Write(5000, {1, 2, 3, 4}, nullptr);
  sim.RunUntil(32 * kSecond);
  SwapRecord out, in;
  experiment->StatefulSwapOut(/*eager_precopy=*/false,
                              [&out](const SwapRecord& rec) { out = rec; });
  sim.RunUntil(332 * kSecond);
  experiment->StatefulSwapIn(/*lazy=*/false,
                             [&in](const SwapRecord& rec) { in = rec; });
  sim.RunUntil(632 * kSecond);
  EXPECT_EQ(experiment->state(), Experiment::State::kSwappedIn);
  if (repo != nullptr) {
    // The image went to disk and came back byte-identical.
    EXPECT_GT(out.repo_bytes_written, 0u);
    EXPECT_TRUE(out.repo_verified);
    EXPECT_GT(in.repo_bytes_read, 0u);
    EXPECT_TRUE(in.repo_verified);
    EXPECT_EQ(repo->live_image_count(), 1u) << repo->error();
  }
  const std::vector<LocalCheckpointRecord>& history =
      experiment->engine("pc1")->history();
  EXPECT_EQ(history.size(), 1u);
  if (saved_at != nullptr && !history.empty()) {
    *saved_at = history.back().saved_at;
  }
  return sim.Digest();
}

TEST_F(ObsTest, TracingIsPerturbationFreeOnRepoAttachedRun) {
  // A stateful swap through the fs server's durable repository: the put
  // path (verified parse, hashing, group commit, repo.spill instants) and
  // the swap-in read-back must not perturb the simulation either — with or
  // without tracing.
  namespace fs = std::filesystem;
  const std::string base =
      (fs::path(::testing::TempDir()) / "tcsim_obs_repo").string();
  SimTime saved_at = -1;
  auto run_with_repo = [&base, &saved_at](const char* tag) {
    const std::string dir = base + "_" + tag;
    fs::remove_all(dir);
    std::string error;
    auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
    EXPECT_NE(repo, nullptr) << error;
    const uint64_t digest = RunStatefulSwapCycle(repo.get(), &saved_at);
    fs::remove_all(dir);
    return digest;
  };

  TraceSession::Global().Stop();
  const uint64_t digest_off = run_with_repo("off");
  EXPECT_EQ(digest_off, RunStatefulSwapCycle(nullptr))
      << "attaching a repository must not perturb the run";

  MetricsRegistry::Global().ResetAll();
  TraceSession::Global().StartFull();
  const uint64_t digest_full = run_with_repo("on");
  EXPECT_EQ(digest_off, digest_full);

  // The repository telemetry landed: group commits, batched images, staged
  // bytes and the two publication flushes per commit.
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GT(reg.FindCounter("repo.batch.commits")->value(), 0u);
  EXPECT_GT(reg.FindCounter("repo.batch.images")->value(), 0u);
  EXPECT_GT(reg.FindCounter("repo.batch.staged_bytes")->value(), 0u);
  EXPECT_GT(reg.FindCounter("repo.commit.flushes")->value(), 0u);
  EXPECT_EQ(reg.FindCounter("repo.batch.failed_commits")->value(), 0u);
  // The spill is visible as the node's repo.spill instant, and the node's
  // one capture is recorded at its capture point: the saved instant, not
  // the later barrier where StatefulSwapOut reads last_image().
  const std::string json = TraceSession::Global().ExportChromeJson();
  EXPECT_NE(json.find("\"name\": \"repo.spill\""), std::string::npos);
  const std::string capture = "\"name\": \"ckpt.capture\"";
  const size_t first = json.find(capture);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find(capture, first + 1), std::string::npos)
      << "one swap-out, one capture";
  char at_saved[96];
  std::snprintf(at_saved, sizeof at_saved, "%s, \"ts\": %.3f,", capture.c_str(),
                ToMicroseconds(saved_at));
  EXPECT_NE(json.find(at_saved), std::string::npos)
      << "want " << at_saved << " got " << json.substr(first, 48);
}

TEST_F(ObsTest, TracingIsPerturbationFreeOnCpuExperimentRun) {
  TraceSession::Global().Stop();
  const uint64_t digest_off = RunCheckpointedScenario<CpuExperimentRun>();

  TraceSession::Global().StartFull();
  const uint64_t digest_full = RunCheckpointedScenario<CpuExperimentRun>();
  EXPECT_GT(TraceSession::Global().recorded(), 0u);

  EXPECT_EQ(digest_off, digest_full);
}

// --- Simulator sampling -------------------------------------------------------

TEST_F(ObsTest, CaptureSimulatorMetricsRecordsQueueGauges) {
  Simulator sim;
  for (int i = 0; i < 32; ++i) {
    sim.Schedule(i * kMillisecond, [] {});
  }
  sim.Run();
  obs::CaptureSimulatorMetrics(sim);

  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(reg.FindGauge("sim.queue.events_dispatched")->value(), 32.0);
  EXPECT_GE(reg.FindGauge("sim.queue.depth_high_water")->value(), 1.0);
  EXPECT_GT(reg.FindGauge("sim.queue.events_per_sim_sec")->value(), 0.0);
}

TEST_F(ObsTest, ExportJsonIsWellFormedEnoughForTheBenchReport) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.FindCounter("a.count")->Add(3);
  reg.FindGauge("b.gauge")->Set(1.5);
  reg.FindHistogram("c.hist")->Observe(2.0);
  const std::string json = reg.ExportJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST_F(ObsTest, HistogramExportCarriesTailPercentiles) {
  // A distribution with one fat decade and one extreme outlier: p999 must
  // sit below max (the outlier is *one* sample, not a tail), and both the
  // JSON and the table must say so — p99 alone cannot distinguish a fat
  // tail from a single spike.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.FindHistogram("test.obs.tail");
  for (int i = 0; i < 2000; ++i) {
    h->Observe(2.0);
  }
  h->Observe(100000.0);

  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"p999\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\""), std::string::npos) << json;
  const double p999 = h->ApproxPercentile(99.9);
  EXPECT_LT(p999, h->max())
      << "one outlier in 2001 samples must not reach p999";
  EXPECT_DOUBLE_EQ(p999, Histogram::BucketUpperBound(2));

  const std::string table = reg.ExportTable();
  EXPECT_NE(table.find("min="), std::string::npos) << table;
  EXPECT_NE(table.find("p999="), std::string::npos) << table;
  EXPECT_NE(table.find("mean="), std::string::npos) << table;
}

TEST_F(ObsTest, ChromeExportIsDeterministicAcrossTrackInternOrder) {
  // Two runs of the same workload may intern tracks in different orders
  // (worker threads race to first touch). The exports must not care: track
  // ids are assigned by sorted track name and records ordered by (track,
  // begin, id), so both sessions export byte-identical artifacts.
  auto record = [](TraceSession& s, bool zeta_first) {
    s.StartFull();
    auto span = [&s](const char* track, const char* name, SimTime b,
                     SimTime e) {
      const SpanId id = s.BeginSpan(track, name, b);
      s.EndSpan(id, e);
    };
    if (zeta_first) {
      span("zeta", "late_track_span", 1 * kMicrosecond, 2 * kMicrosecond);
      span("alpha", "early_track_span", 3 * kMicrosecond, 4 * kMicrosecond);
    } else {
      span("alpha", "early_track_span", 3 * kMicrosecond, 4 * kMicrosecond);
      span("zeta", "late_track_span", 1 * kMicrosecond, 2 * kMicrosecond);
    }
    s.Stop();
  };
  TraceSession a, b;
  record(a, /*zeta_first=*/true);
  record(b, /*zeta_first=*/false);

  const std::string json_a = a.ExportChromeJson();
  EXPECT_EQ(json_a, b.ExportChromeJson());
  EXPECT_EQ(a.ExportSummaryTable(), b.ExportSummaryTable());

  // "alpha" sorts first, so it owns tid 0 in both — even in the session
  // that interned "zeta" first.
  const size_t alpha_meta =
      json_a.find("\"thread_name\", \"args\": {\"name\": \"alpha\"}");
  const size_t zeta_meta =
      json_a.find("\"thread_name\", \"args\": {\"name\": \"zeta\"}");
  ASSERT_NE(alpha_meta, std::string::npos) << json_a;
  ASSERT_NE(zeta_meta, std::string::npos) << json_a;
  EXPECT_LT(alpha_meta, zeta_meta);
  // And alpha's span exports before zeta's despite beginning later in sim
  // time: the export order is (track, begin), track first.
  EXPECT_LT(json_a.find("early_track_span"), json_a.find("late_track_span"));
}

}  // namespace
}  // namespace tcsim
