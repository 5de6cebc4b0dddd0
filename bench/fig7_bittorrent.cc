// Figure 7: a four-node BitTorrent experiment under periodic checkpointing.
//
// Paper setup: one seeder + three clients on a 100 Mbps LAN all downloading
// a 3 GB file; checkpointing starts 70 s into the run (after BitTorrent
// reaches steady state), takes a checkpoint every 5 s for 100 s, then stops.
// Paper results: each client averages ~1 MB/s from the seeder; every
// checkpoint causes a small dip, but repeated checkpointing does not move
// the obvious "center line" of the throughput plot.
//
// This reproduction scales the file to 768 MB by default (pass a byte count
// as argv[1] for the full 3 GB run) and scales the checkpoint window
// accordingly; the shape — steady center line, small dips — is the result.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/bittorrent.h"
#include "src/emulab/experiment.h"
#include "src/emulab/experiment_spec.h"
#include "src/emulab/testbed.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

int Run(uint64_t file_bytes, bool audit) {
  PrintHeader("Figure 7", "four-node BitTorrent under periodic checkpointing");

  Simulator sim;
  Testbed testbed(&sim, 42);
  ExperimentSpec spec("bt");
  spec.AddNode("seeder");
  spec.AddNode("c1");
  spec.AddNode("c2");
  spec.AddNode("c3");
  spec.AddLan("lan0", {"seeder", "c1", "c2", "c3"}, 100'000'000);
  Experiment* experiment = testbed.CreateExperiment(spec);
  experiment->SwapIn(true, nullptr);
  sim.RunUntil(sim.Now() + 10 * kSecond);

  std::unique_ptr<InvariantRegistry> reg;
  if (audit) {
    reg = std::make_unique<InvariantRegistry>(&sim);
    experiment->RegisterInvariants(reg.get());
    reg->StartPeriodic(50 * kMillisecond);
  }

  BitTorrentSwarm::Params params;
  params.file_bytes = file_bytes;
  std::vector<ExperimentNode*> nodes = {experiment->node("seeder"), experiment->node("c1"),
                                        experiment->node("c2"), experiment->node("c3")};
  BitTorrentSwarm swarm(nodes, params);
  bool done = false;
  swarm.Start([&] { done = true; });

  // Let the swarm reach steady state, then checkpoint every 5 s for a
  // window, then stop (scaled version of the paper's 70 s / 100 s / 100 s).
  const SimTime start = sim.Now();
  const SimTime ckpt_begin = 15 * kSecond;
  const SimTime ckpt_window = 30 * kSecond;
  std::function<void()> periodic = [&] {
    if (done || sim.Now() - start > ckpt_begin + ckpt_window) {
      return;
    }
    experiment->coordinator().CheckpointScheduled(
        500 * kMillisecond, [&](const DistributedCheckpointRecord&) {
          sim.Schedule(4500 * kMillisecond, periodic);
        });
  };
  sim.Schedule(ckpt_begin, periodic);

  while (!done && sim.Now() < start + 3600 * kSecond) {
    sim.RunUntil(sim.Now() + kSecond);
  }

  PrintSection("download results");
  for (size_t i = 1; i < swarm.peer_count(); ++i) {
    BitTorrentPeer* peer = swarm.peer(i);
    std::printf("client %zu: complete=%d pieces=%zu finished at t=%.1f s (virtual)\n",
                i, peer->complete(), peer->pieces_held(),
                ToSeconds(peer->completion_time()));
  }
  PrintValue("checkpoints taken",
             static_cast<double>(experiment->coordinator().history().size()), "");

  PrintSection("seeder outgoing throughput per client (the figure's 3 lines)");
  for (size_t i = 1; i < swarm.peer_count(); ++i) {
    const ThroughputMeter& meter = swarm.seeder_upload_meter(nodes[i]->id());
    const TimeSeries series =
        const_cast<ThroughputMeter&>(meter).Bucketize();
    // Center line: mean throughput in the checkpointed window vs outside it.
    const SimTime w0 = start + ckpt_begin;
    const SimTime w1 = w0 + ckpt_window;
    const double inside = series.MeanInWindow(w0, w1);
    const double outside = series.MeanInWindow(start, w0);
    std::printf("client %zu: mean MB/s before ckpts %.3f, during ckpts %.3f\n", i,
                outside, inside);
  }
  PrintNote("paper: ~1 MB/s per client on their hardware; shape criterion is that");
  PrintNote("the center line during the checkpointed window matches the line outside it.");

  const TimeSeries c1_series = swarm.seeder_upload_meter(nodes[1]->id()).Bucketize();
  PrintSeries("fig7.seeder_to_client1_MBps_1s_buckets", c1_series, 50);

  PrintDigest(sim);
  return FinishAudit(reg.get());
}

}  // namespace
}  // namespace tcsim

int main(int argc, char** argv) {
  tcsim::BenchMain bm(argc, argv, "fig7_bittorrent");
  uint64_t file_bytes = 768ull * 1024 * 1024;
  if (argc > 1 && argv[1][0] != '-') {
    file_bytes = std::strtoull(argv[1], nullptr, 10);
  }
  return bm.Finish(tcsim::Run(file_bytes, tcsim::HasFlag(argc, argv, "--audit")));
}
