// Dirty-tracking cost: frozen-window bytes and capture latency, with and
// without skipping unchanged components.
//
// With CheckpointPolicy::skip_unchanged a component whose state_version() has
// not moved since the previous capture is not re-serialized in the freeze
// phase; the commit frames its chunk from the payload tracked at that capture.
// This harness measures what that saves on the canonical "mostly cold state"
// profile: a guest that wrote a large burst of branch-store data early on
// (the cold chunk) and then settled into a timer-driven steady state.
// Without skipping, every capture copies the cold chunk inside the frozen
// window; with it, only the changed components are copied. The published
// image is the same self-contained image either way.
//
// Both modes run the identical deterministic scenario, checkpoint at the
// same instants, and every image is restored into a fresh node — the state
// digests must match pairwise across modes.
//
//   $ ./build/bench/tab_delta_capture
//
// Exit code is non-zero when a restore digest mismatches, a steady-state
// capture needs a CRC-compare fallback, or the steady-state staged-bytes
// reduction falls below 5x.

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/checkpoint/local_checkpoint.h"
#include "src/guest/node.h"
#include "src/sim/simulator.h"

using namespace tcsim;

namespace {

constexpr uint64_t kColdOps = 96;          // burst write operations
constexpr uint64_t kBlocksPerOp = 64;      // blocks per burst write
constexpr int kCaptures = 8;               // checkpoints in the steady phase
constexpr SimTime kCaptureSpacing = 500 * kMillisecond;

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

NodeConfig BenchNodeConfig() {
  NodeConfig cfg;
  cfg.name = "delta-bench";
  cfg.id = 1;
  cfg.domain.memory_bytes = 128ull * 1024 * 1024;
  return cfg;
}

CheckpointPolicy BenchPolicy(bool skip_unchanged) {
  CheckpointPolicy policy;
  policy.resume_timer_latency = 0;  // digests must be reproducible
  policy.skip_unchanged = skip_unchanged;
  return policy;
}

// Observable state of a node after a restore; captures from the two modes
// land at identical instants of the identical workload, so restored digests
// must match pairwise.
uint64_t NodeDigest(const Simulator& sim, ExperimentNode& node) {
  uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(sim.Now()));
  mix(static_cast<uint64_t>(node.domain().VirtualNow()));
  mix(static_cast<uint64_t>(node.kernel().GetTimeOfDay()));
  mix(node.store().current_delta_blocks());
  mix(node.store().aggregated_delta_blocks());
  return h;
}

struct Capture {
  uint64_t staged_bytes = 0;
  uint64_t image_bytes = 0;
  size_t payload_chunks = 0;
  size_t unchanged_chunks = 0;
  size_t version_skips = 0;
  size_t crc_fallbacks = 0;  // unchanged, proven by CRC compare
  double wall_s = 0;
  std::vector<uint8_t> image;  // the published self-contained image
};

struct ModeResult {
  std::vector<Capture> captures;
  uint64_t unchanged_total = 0;  // across all captures
};

// Restores `image` into a fresh node and returns its state digest, or 0 on
// restore failure (0 never collides with a real digest in practice — the
// mixer never returns the FNV basis untouched).
uint64_t RestoreDigest(const std::vector<uint8_t>& image) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(7), BenchNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, BenchPolicy(false));
  if (!engine.RestoreImage(image)) {
    return 0;
  }
  engine.ResumeRestored();
  return NodeDigest(sim, node);
}

ModeResult RunMode(bool skip_unchanged) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(7), BenchNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, BenchPolicy(skip_unchanged));

  // Phase 1: the cold chunk — a burst of branch-store writes, chained on
  // completion so the block frontend is drained before any capture.
  uint64_t ops_done = 0;
  std::function<void()> issue = [&] {
    if (ops_done == kColdOps) {
      return;
    }
    std::vector<uint64_t> contents(kBlocksPerOp, 0xC01Dull + ops_done);
    node.kernel().block().Write(4096 + ops_done * kBlocksPerOp, contents, [&] {
      ++ops_done;
      issue();
    });
  };
  sim.Schedule(10 * kMillisecond, [&] { issue(); });

  // Phase 2: steady state — a timer loop with no further disk writes; the
  // branch-store chunk stops changing and its version counter with it.
  std::function<void()> tick = [&] {
    node.kernel().Usleep(5 * kMillisecond, [&] { tick(); });
  };
  sim.Schedule(20 * kMillisecond, [&] { tick(); });

  sim.RunUntil(2 * kSecond);

  ModeResult result;
  for (int k = 0; k < kCaptures; ++k) {
    Capture cap;
    bool done = false;
    cap.wall_s = WallSeconds([&] {
      engine.CheckpointNow([&](const LocalCheckpointRecord&) { done = true; });
      while (!done) {
        sim.RunUntil(sim.Now() + kMillisecond);
      }
    });
    const CaptureStats& stats = engine.last_capture_stats();
    cap.staged_bytes = stats.staged_bytes;
    cap.image_bytes = stats.serialized_bytes;
    cap.payload_chunks = stats.payload_chunks;
    cap.unchanged_chunks = stats.unchanged_chunks;
    cap.version_skips = stats.version_skips;
    cap.crc_fallbacks = stats.crc_fallbacks;
    cap.image = *engine.last_image();
    result.unchanged_total += cap.unchanged_chunks;
    result.captures.push_back(std::move(cap));
    sim.RunUntil(sim.Now() + kCaptureSpacing);
  }
  return result;
}

double MeanBytes(const ModeResult& r, size_t from,
                 uint64_t Capture::*bytes) {
  double total = 0;
  for (size_t i = from; i < r.captures.size(); ++i) {
    total += static_cast<double>(r.captures[i].*bytes);
  }
  return total / static_cast<double>(r.captures.size() - from);
}

double MeanWallMs(const ModeResult& r, size_t from) {
  double total = 0;
  for (size_t i = from; i < r.captures.size(); ++i) {
    total += r.captures[i].wall_s;
  }
  return 1e3 * total / static_cast<double>(r.captures.size() - from);
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_delta_capture");

  ModeResult full = RunMode(/*skip_unchanged=*/false);
  ModeResult skip = RunMode(/*skip_unchanged=*/true);

  // Pairwise restore check: checkpoint k of either mode must restore to the
  // same observable state.
  bool restores_match = full.captures.size() == skip.captures.size();
  for (size_t k = 0; restores_match && k < full.captures.size(); ++k) {
    const uint64_t df = RestoreDigest(full.captures[k].image);
    const uint64_t ds = RestoreDigest(skip.captures[k].image);
    restores_match = df != 0 && df == ds;
  }

  // Steady state starts at the second capture: capture 0 has nothing to
  // skip (no previous capture) and would dilute the ratio.
  const double full_bytes = MeanBytes(full, 1, &Capture::staged_bytes);
  const double skip_bytes = MeanBytes(skip, 1, &Capture::staged_bytes);
  const double ratio = skip_bytes > 0 ? full_bytes / skip_bytes : 0;

  PrintHeader("tab_delta_capture",
              "skipping unchanged components at capture (cold burst + "
              "steady timers)");

  PrintSection("frozen-window staged bytes per checkpoint (steady state)");
  PrintValue("skipping off", full_bytes, "B");
  PrintValue("skipping on", skip_bytes, "B");
  PrintValue("reduction", ratio, "x");
  PrintValue("first capture, skipping on (nothing to skip)",
             static_cast<double>(skip.captures.front().staged_bytes), "B");

  PrintSection("published image bytes per checkpoint (steady state)");
  PrintValue("skipping off", MeanBytes(full, 1, &Capture::image_bytes), "B");
  PrintValue("skipping on", MeanBytes(skip, 1, &Capture::image_bytes), "B");

  PrintSection("capture latency (host wall clock, steady state)");
  PrintValue("skipping off", MeanWallMs(full, 1), "ms");
  PrintValue("skipping on", MeanWallMs(skip, 1), "ms");

  PrintSection("dirty tracking (last capture, skipping on)");
  PrintValue("payload chunks",
             static_cast<double>(skip.captures.back().payload_chunks), "");
  PrintValue("unchanged chunks",
             static_cast<double>(skip.captures.back().unchanged_chunks), "");
  PrintValue("version-counter skips (no SaveState run)",
             static_cast<double>(skip.captures.back().version_skips), "");
  PrintValue("CRC-compare fallbacks (SaveState re-run, bytes unchanged)",
             static_cast<double>(skip.captures.back().crc_fallbacks), "");
  PrintValue("unchanged chunks across all captures",
             static_cast<double>(skip.unchanged_total), "");

  // With every registered component carrying a real version counter, no
  // steady-state capture should need the CRC-compare fallback: an unchanged
  // chunk is proven unchanged by its counter alone. A nonzero count here
  // means some component lost (or never gained) its counter and is paying a
  // full re-serialization per capture just to discover nothing changed.
  size_t steady_fallbacks = 0;
  for (size_t k = 1; k < skip.captures.size(); ++k) {
    steady_fallbacks += skip.captures[k].crc_fallbacks;
  }
  const bool fallbacks_zero = steady_fallbacks == 0;
  PrintValue("steady-state CRC fallbacks (must be 0)",
             static_cast<double>(steady_fallbacks), "");

  PrintNote(restores_match
                ? "all restores digest-equal with and without skipping"
                : "RESTORE DIGEST MISMATCH between the two modes");

  const bool ok = restores_match && ratio >= 5.0 && fallbacks_zero;
  if (!ok) {
    std::printf("\nFAIL: %s\n",
                !restores_match      ? "restore digests mismatch"
                : !fallbacks_zero    ? "steady-state CRC fallbacks nonzero"
                                     : "staged-bytes reduction below 5x");
  }
  return bm.Finish(ok ? 0 : 1);
}
