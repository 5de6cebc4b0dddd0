// HA failover: recovery latency and output hold time under continuous
// micro-checkpointing at 100 and 1000 hosts, with the external-observer
// transparency gate inline.
//
// For each scale the same seeded experiment runs twice under the HA
// subsystem (two-phase capture, output-commit buffering): once fault-free
// and once with a seeded partition-kill schedule. The bench FAILS (non-zero
// exit) unless every kill recovers from the newest committed image AND the
// faulty run's external-observer trace is bit-identical to the fault-free
// one — same record sequence, zero time delta, zero value delta — with equal
// per-node behavior digests. Recovery latency (wall) and output hold time
// (simulated) are the reported costs of that transparency; neither gates.
//
//   $ ./build/bench/tab_failover [--mc-hz=N] [--kills=K] [--seed=S]
//        [--sim-ms=T] [--sync] [--ledger[=FILE]]
//
// --mc-hz sets the micro-checkpoint frequency in simulated hertz (default
// 50, i.e. a 20 ms epoch); --sync switches to synchronous capture (lag 0),
// the digest-oracle configuration. Hold time is bounded by (1 + lag)
// periods, so --sync roughly halves it; recovery latency is dominated by
// image restore + replay.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/emulab/external_observer.h"
#include "src/ha/fault_injector.h"
#include "src/ha/micro_checkpointer.h"
#include "src/net/topology.h"
#include "src/sim/digest.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

using namespace tcsim;

namespace {

struct Scale {
  uint32_t hosts;
  uint32_t hosts_per_lan;
  uint32_t lans_per_zone;
};

struct HaRun {
  TraceLog trace;
  uint64_t behavior_digest = 0;
  uint64_t epochs = 0;
  uint64_t released = 0;
  uint64_t replayed = 0;
  uint64_t discarded = 0;
  uint64_t suppressed = 0;
  double hold_ms_mean = 0;
  double hold_ms_max = 0;
  double recovery_ms_mean = 0;
  double recovery_ms_max = 0;
  double rollback_ms_mean = 0;
  size_t recoveries = 0;
  bool recovered_ok = true;
  double wall_s = 0;
};

HaRun RunOnce(const Scale& scale, SimTime period, SimTime horizon,
              bool sync_mode, ha::FaultInjector* faults) {
  obs::MetricsRegistry::Global().ResetAll();
  GeneratedTopologyParams params;
  params.hosts = scale.hosts;
  params.hosts_per_lan = scale.hosts_per_lan;
  params.lans_per_zone = scale.lans_per_zone;
  auto topo = GeneratedTopology::Build(params, /*partitions=*/4, /*workers=*/3);
  emulab::ExternalObserver observer;
  ha::MicroCheckpointPolicy policy;
  policy.period = period;
  policy.max_in_flight_epochs = sync_mode ? 0 : 1;
  policy.buffer_output = true;
  ha::MicroCheckpointer mc(topo.get(), policy);
  mc.SetObserver(&observer);
  if (faults != nullptr) {
    mc.SetFaultInjector(faults);
  }

  RestartLedger();
  const auto start = std::chrono::steady_clock::now();
  mc.RunUntil(horizon);
  const auto stop = std::chrono::steady_clock::now();

  HaRun r;
  r.trace = observer.trace();
  Fnv1aDigest behavior;
  for (size_t i = 0; i < topo->node_count(); ++i) {
    topo->node(i)->MixBehavior(&behavior);
  }
  r.behavior_digest = behavior.value();
  r.epochs = mc.epochs_committed();
  r.released = mc.output_buffer()->released_total();
  r.replayed = mc.output_buffer()->replayed_total();
  r.discarded = mc.output_buffer()->discarded_total();
  r.suppressed = mc.output_buffer()->suppressed_total();
  const obs::Histogram* hold =
      obs::MetricsRegistry::Global().FindHistogram("ha.buffer.hold_time_us");
  r.hold_ms_mean = hold->mean() / 1000.0;
  r.hold_ms_max = hold->max() / 1000.0;
  for (const ha::RecoveryRecord& rec : mc.failover()->recoveries()) {
    r.recovered_ok = r.recovered_ok && rec.ok;
    r.recovery_ms_mean += rec.wall_ms;
    r.recovery_ms_max = std::max(r.recovery_ms_max, rec.wall_ms);
    r.rollback_ms_mean += static_cast<double>(rec.killed_at - rec.restored_to) /
                          static_cast<double>(kMillisecond);
  }
  r.recoveries = mc.failover()->recoveries().size();
  if (r.recoveries > 0) {
    r.recovery_ms_mean /= static_cast<double>(r.recoveries);
    r.rollback_ms_mean /= static_cast<double>(r.recoveries);
  }
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  return r;
}

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_failover");

  const uint64_t mc_hz = FlagU64(argc, argv, "--mc-hz", 50);
  const uint32_t kills =
      static_cast<uint32_t>(FlagU64(argc, argv, "--kills", 3));
  const uint64_t seed = FlagU64(argc, argv, "--seed", 9);
  const SimTime horizon =
      static_cast<SimTime>(FlagU64(argc, argv, "--sim-ms", 200)) * kMillisecond;
  const bool sync_mode = HasFlag(argc, argv, "--sync");
  const SimTime period =
      std::max<SimTime>(1, kSecond / static_cast<SimTime>(mc_hz));

  PrintHeader("tab_failover",
              "HA failover: recovery latency, hold time, and the "
              "external-observer transparency gate");

  const Scale scales[] = {{100, 5, 5}, {1000, 10, 25}};
  bool ok = true;
  for (const Scale& scale : scales) {
    const HaRun clean = RunOnce(scale, period, horizon, sync_mode, nullptr);
    ha::FaultInjector faults(seed);
    faults.GenerateKillSchedule(/*partitions=*/4, kills, horizon);
    const HaRun faulty = RunOnce(scale, period, horizon, sync_mode, &faults);

    const TraceDiff diff = faulty.trace.Compare(clean.trace);
    const bool transparent =
        diff.comparable && diff.max_time_delta == 0 &&
        diff.max_value_delta == 0 &&
        faulty.behavior_digest == clean.behavior_digest &&
        faulty.recovered_ok && faulty.recoveries == kills;
    ok = ok && transparent;

    char section[96];
    std::snprintf(section, sizeof section,
                  "%u hosts, %llu Hz micro-checkpoints, %u kills", scale.hosts,
                  static_cast<unsigned long long>(mc_hz), kills);
    PrintSection(section);
    PrintValue("epochs committed", static_cast<double>(faulty.epochs), "");
    PrintValue("output released", static_cast<double>(faulty.released), "pkts");
    PrintValue("hold time mean", faulty.hold_ms_mean, "ms");
    PrintValue("hold time max", faulty.hold_ms_max, "ms");
    PrintValue("recovery latency mean", faulty.recovery_ms_mean, "ms");
    PrintValue("recovery latency max", faulty.recovery_ms_max, "ms");
    PrintValue("rollback depth mean", faulty.rollback_ms_mean, "sim ms");
    PrintValue("deliveries replayed", static_cast<double>(faulty.replayed), "");
    PrintValue("holds discarded", static_cast<double>(faulty.discarded), "");
    PrintValue("re-emissions suppressed",
               static_cast<double>(faulty.suppressed), "");
    if (transparent) {
      PrintNote("faulty trace bit-identical to fault-free at the external "
                "observer");
    } else {
      // Every value the gate read, so a failure explains itself.
      char why[256];
      std::snprintf(why, sizeof why,
                    "; max time delta %lld ns, max value delta %g; behavior "
                    "digest %016llx vs %016llx; %zu of %u kills recovered%s",
                    static_cast<long long>(diff.max_time_delta),
                    diff.max_value_delta,
                    static_cast<unsigned long long>(faulty.behavior_digest),
                    static_cast<unsigned long long>(clean.behavior_digest),
                    faulty.recoveries, kills,
                    faulty.recovered_ok ? "" : ", a recovery failed");
      PrintNote("TRANSPARENCY FAILED: " + diff.Describe() + why);
    }
  }

  if (!ok) {
    std::printf("\nFAIL: failover was visible to the external observer\n");
  }
  return bm.Finish(ok ? 0 : 1);
}
