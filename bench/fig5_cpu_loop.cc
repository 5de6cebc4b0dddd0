// Figure 5 (+ Dom0 interference table): a CPU-intensive job in a loop under
// periodic checkpointing.
//
// Paper setup: a fixed CPU-bound job measuring 236.6 ms per iteration
// unperturbed (90% of iterations within 9 ms), checkpointed every 5 s.
// Paper results: CPU allocation stays within ~27 ms of nominal at
// checkpoints; residual checkpoint activity in Dom0 explains the
// perturbation — even `ls` (5-7 ms), `sum` of the kernel image (13-17 ms)
// and `xm list` (~130 ms) in Dom0 visibly stretch iterations.

#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/microbench.h"
#include "src/checkpoint/local_checkpoint.h"
#include "src/guest/node.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

Summary RunLoop(size_t iterations, bool checkpointing,
                const std::function<void(Simulator&, ExperimentNode&)>& mid_run_hook,
                Samples* out = nullptr, bool audit = false, int* audit_rc = nullptr,
                uint64_t* digest = nullptr) {
  Simulator sim;
  NodeConfig cfg;
  cfg.name = "pc1";
  cfg.id = 1;
  ExperimentNode node(&sim, Rng(3), cfg);
  LocalCheckpointEngine engine(&sim, &node, CheckpointPolicy{});

  std::unique_ptr<InvariantRegistry> reg;
  if (audit) {
    reg = std::make_unique<InvariantRegistry>(&sim);
    node.RegisterInvariants(reg.get());
    reg->StartPeriodic(50 * kMillisecond);
  }

  CpuLoopApp::Params params;
  params.iterations = iterations;
  CpuLoopApp app(&node, params);
  bool done = false;
  app.Start([&] { done = true; });

  std::function<void()> periodic = [&] {
    if (!engine.in_progress()) {
      engine.CheckpointNow(nullptr);
    }
    sim.Schedule(5 * kSecond, periodic);
  };
  if (checkpointing) {
    sim.Schedule(5 * kSecond, periodic);
  }
  if (mid_run_hook) {
    mid_run_hook(sim, node);
  }

  while (!done && sim.Now() < 1200 * kSecond) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  if (out != nullptr) {
    *out = app.iteration_times_ms();
  }
  if (audit_rc != nullptr) {
    *audit_rc = FinishAudit(reg.get());
  }
  if (digest != nullptr) {
    *digest = sim.Digest();
  }
  return app.iteration_times_ms().Summarize();
}

// Measures how much a single Dom0 job stretches the loop's worst iteration.
double Dom0JobImpactMs(const char* name, double cpu_fraction, SimTime duration) {
  const Summary base = RunLoop(30, false, nullptr);
  const Summary with_job = RunLoop(
      30, false, [=](Simulator& sim, ExperimentNode& node) {
        sim.Schedule(3 * kSecond, [&node, name, cpu_fraction, duration] {
          node.hypervisor().RunDom0Job(name, cpu_fraction, duration);
        });
      });
  return with_job.max - base.mean;
}

int Run(bool audit) {
  PrintHeader("Figure 5", "CPU-intensive loop under periodic checkpointing");

  Samples iters;
  int audit_rc = 0;
  uint64_t digest = 0;
  const Summary base = RunLoop(100, false, nullptr);
  const Summary ckpt = RunLoop(600, true, nullptr, &iters, audit, &audit_rc, &digest);

  PrintSection("iteration time");
  PrintRow("nominal iteration (no checkpointing)", 236.6, base.mean, "ms");
  PrintRow("fraction within 9 ms of nominal", 0.90,
           iters.FractionWithin(base.mean, 9.0), "frac");
  PrintSection("checkpoint impact");
  PrintRow("max perturbation at checkpoints", 27.0, ckpt.max - base.mean, "ms");
  PrintNote("perturbation comes from Dom0 pre-copy/writeback CPU, not lost time");

  PrintSection("Dom0 interference experiment (Section 7.1)");
  // Modelled Dom0 jobs: (fraction of CPU, duration) chosen to represent the
  // cost of each command on the pc3000 nodes.
  PrintRow("ls /            impact", 6.0, Dom0JobImpactMs("ls", 0.45, 14 * kMillisecond),
           "ms");
  PrintRow("sum vmlinux     impact", 15.0, Dom0JobImpactMs("sum", 0.5, 30 * kMillisecond),
           "ms");
  PrintRow("xm list         impact", 130.0,
           Dom0JobImpactMs("xm-list", 0.6, 300 * kMillisecond), "ms");

  TimeSeries series;
  size_t i = 0;
  for (double v : iters.values()) {
    series.Add(static_cast<SimTime>(i++) * kSecond / 4, v);
  }
  PrintSeries("fig5.iteration_time_ms", series);

  std::printf("\nevent digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  return audit_rc;
}

}  // namespace
}  // namespace tcsim

int main(int argc, char** argv) {
  tcsim::BenchMain bm(argc, argv, "fig5_cpu_loop");
  return bm.Finish(tcsim::Run(tcsim::HasFlag(argc, argv, "--audit")));
}
