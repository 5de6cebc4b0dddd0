// Durable checkpoint repository persistence throughput (new subsystem, no
// paper counterpart — the paper's file server stores swapped-out state but
// reports no storage-layer numbers).
//
// Measures the wall-clock cost of the repository's four verbs over a
// synthetic delta chain shaped like a stateful-swap series: one full image
// followed by deltas that each rewrite a few chunks and pin the rest to the
// parent by CRC.
//
//   put          — chain ingestion (logical MB/s, dedup ratio)
//   materialize  — streaming read-back of every stored image (MB/s)
//   compact      — folding the whole chain into self-contained records
//   gc + reopen  — epoch rewrite, then recovery scan of the new epoch
//
// Every phase re-verifies byte identity of the chain head against the
// pre-phase materialization; a mismatch fails the bench.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/digest.h"
#include "src/sim/image.h"

namespace tcsim {
namespace {

constexpr size_t kChunkBytes = 256 * 1024;
constexpr size_t kChunksPerImage = 16;
constexpr size_t kDeltaCount = 24;       // chain: 1 full + 24 deltas
constexpr size_t kRewritesPerDelta = 4;  // chunks changed per delta

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  const double s = std::chrono::duration<double>(dt).count();
  return s > 1e-9 ? s : 1e-9;
}

std::vector<uint8_t> ChunkPayload(uint64_t seed) {
  std::vector<uint8_t> bytes(kChunkBytes);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < bytes.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(&bytes[i], &x, 8);
  }
  return bytes;
}

std::string ChunkId(size_t index) { return "blk" + std::to_string(index); }

int Run() {
  namespace fs = std::filesystem;
  PrintHeader("repo-persist",
              "durable checkpoint repository put/materialize/compact/GC");

  const fs::path dir = fs::temp_directory_path() / "tcsim_bench_repo_persist";
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::string err;
  std::unique_ptr<CheckpointRepo> repo =
      CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  if (repo == nullptr) {
    std::fprintf(stderr, "tab_repo_persist: cannot open repository: %s\n",
                 err.c_str());
    return 1;
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  int rc = 0;

  // The evolving guest state: chunk index -> current payload. Deltas rewrite
  // a sliding window of chunks and pin the rest to the parent by CRC.
  std::vector<std::vector<uint8_t>> state(kChunksPerImage);
  uint64_t next_seed = 1;
  for (size_t c = 0; c < kChunksPerImage; ++c) {
    state[c] = ChunkPayload(next_seed++);
  }
  std::vector<std::vector<uint8_t>> images;
  {
    CheckpointImageBuilder full;
    full.SetDeltaHeader(/*image_id=*/1, /*parent_id=*/0);
    for (size_t c = 0; c < kChunksPerImage; ++c) {
      full.AddChunk(ChunkId(c), state[c]);
    }
    images.push_back(full.Serialize());
  }
  for (size_t d = 1; d <= kDeltaCount; ++d) {
    CheckpointImageBuilder delta;
    delta.SetDeltaHeader(/*image_id=*/d + 1, /*parent_id=*/d);
    const size_t first = (d * kRewritesPerDelta) % kChunksPerImage;
    for (size_t c = 0; c < kChunksPerImage; ++c) {
      const bool rewritten =
          c >= first && c < first + kRewritesPerDelta;
      if (rewritten) {
        // Every third delta reverts its window to the base image's content —
        // repeated payloads that content addressing must store only once.
        state[c] = ChunkPayload(d % 3 == 0 ? c + 1 : next_seed++);
        delta.AddChunk(ChunkId(c), state[c]);
      } else {
        delta.AddDeltaChunk(ChunkId(c), Crc32(state[c]));
      }
    }
    images.push_back(delta.Serialize());
  }

  PrintSection("put (full image + delta chain)");
  std::vector<uint64_t> handles;
  const auto put_t0 = std::chrono::steady_clock::now();
  for (const std::vector<uint8_t>& bytes : images) {
    const uint64_t parent = handles.empty() ? 0 : handles.back();
    const uint64_t handle = repo->PutImage(bytes, parent);
    if (handle == 0) {
      std::fprintf(stderr, "tab_repo_persist: put rejected: %s\n",
                   repo->error().c_str());
      return 1;
    }
    handles.push_back(handle);
  }
  const double put_s = SecondsSince(put_t0);
  const double logical_mb =
      static_cast<double>(repo->logical_put_bytes()) / kMiB;
  const double physical_mb =
      static_cast<double>(repo->physical_put_bytes()) / kMiB;
  const double dedup = physical_mb > 0 ? logical_mb / physical_mb : 1.0;
  PrintValue("images put", static_cast<double>(handles.size()), "images");
  PrintValue("chain depth at head",
             static_cast<double>(repo->ChainDepth(handles.back())), "hops");
  PrintValue("logical bytes put", logical_mb, "MB");
  PrintValue("physical bytes appended", physical_mb, "MB");
  PrintValue("dedup ratio (logical/physical)", dedup, "x");
  PrintValue("put throughput", logical_mb / put_s, "MB/s");

  PrintSection("materialize (streaming read of every image)");
  const std::vector<uint8_t> head_before = repo->Materialize(handles.back());
  uint64_t materialized_bytes = 0;
  const auto mat_t0 = std::chrono::steady_clock::now();
  for (uint64_t handle : handles) {
    const std::vector<uint8_t> out = repo->Materialize(handle);
    if (out.empty()) {
      std::fprintf(stderr, "tab_repo_persist: materialize failed: %s\n",
                   repo->error().c_str());
      return 1;
    }
    materialized_bytes += out.size();
  }
  const double mat_s = SecondsSince(mat_t0);
  const double mat_mb = static_cast<double>(materialized_bytes) / kMiB;
  PrintValue("bytes materialized", mat_mb, "MB");
  PrintValue("materialize throughput", mat_mb / mat_s, "MB/s");

  PrintSection("compaction (fold every chain to depth 0)");
  const auto compact_t0 = std::chrono::steady_clock::now();
  const size_t folded = repo->CompactChains(/*max_depth=*/0);
  const double compact_s = SecondsSince(compact_t0);
  PrintValue("images folded", static_cast<double>(folded), "images");
  PrintValue("compaction time", compact_s * 1000.0, "ms");
  if (repo->Materialize(handles.back()) != head_before) {
    PrintNote("COMPACTION CHANGED MATERIALIZED BYTES");
    rc = 1;
  }

  PrintSection("GC (retire all but the chain head, rewrite the epoch)");
  for (size_t i = 0; i + 1 < handles.size(); ++i) {
    repo->RetireImage(handles[i]);
  }
  const auto gc_t0 = std::chrono::steady_clock::now();
  const CheckpointRepo::GcResult gc = repo->CollectGarbage();
  const double gc_s = SecondsSince(gc_t0);
  if (!gc.ok) {
    std::fprintf(stderr, "tab_repo_persist: GC failed: %s\n",
                 repo->error().c_str());
    return 1;
  }
  PrintValue("GC time", gc_s * 1000.0, "ms");
  PrintValue("bytes reclaimed", static_cast<double>(gc.reclaimed_bytes) / kMiB,
             "MB");
  PrintValue("live bytes after GC", static_cast<double>(gc.live_bytes) / kMiB,
             "MB");
  if (repo->Materialize(handles.back()) != head_before) {
    PrintNote("GC CHANGED MATERIALIZED BYTES");
    rc = 1;
  }

  PrintSection("reopen (recovery scan of the post-GC epoch)");
  repo.reset();
  const auto reopen_t0 = std::chrono::steady_clock::now();
  repo = CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  const double reopen_s = SecondsSince(reopen_t0);
  if (repo == nullptr) {
    std::fprintf(stderr, "tab_repo_persist: reopen failed: %s\n", err.c_str());
    return 1;
  }
  PrintValue("reopen time (recovery scan)", reopen_s * 1000.0, "ms");
  PrintValue("live images after reopen",
             static_cast<double>(repo->live_image_count()), "images");
  const bool survivor_ok = repo->Materialize(handles.back()) == head_before;
  PrintNote(survivor_ok
                ? "chain head byte-identical through compaction, GC and reopen"
                : "REOPEN CHANGED MATERIALIZED BYTES");
  if (!survivor_ok) {
    rc = 1;
  }

  repo.reset();
  fs::remove_all(dir, ec);

  // --- Epoch spill sweep: concurrent writers × group commit --------------------
  //
  // Models the swap-out epoch: every host of a fat tree publishes one small
  // per-node image, and the fs server must make the whole epoch durable. The
  // per-put baseline commits each image with its own journal record and
  // flushes (the pre-batch repository path); the batched path stages the
  // same images — from 1, 2 or 4 writer threads — and group-commits once.
  // Gated: every variant's repository must materialize byte-identically to
  // the per-put oracle, the concurrent variants' files must be byte-identical
  // to the single-writer batch, and a cross-process reopen must reproduce the
  // same bytes.
  struct SpillShape {
    size_t hosts;
    size_t chunks_per_host;
    size_t chunk_bytes;
  };
  const SpillShape shapes[] = {
      {100, 8, 4096},
      {1000, 8, 4096},
  };
  bool spill_verified = true;

  for (const SpillShape& shape : shapes) {
    char title[96];
    std::snprintf(title, sizeof title,
                  "epoch spill (%zu hosts x %zu chunks x %zu KiB)", shape.hosts,
                  shape.chunks_per_host, shape.chunk_bytes / 1024);
    PrintSection(title);

    // Per-host images. A third of each host's chunks hold common content
    // (the same base system pages on every host) so dedup has real work.
    std::vector<std::shared_ptr<const std::vector<uint8_t>>> epoch;
    epoch.reserve(shape.hosts);
    uint64_t spill_logical = 0;
    for (size_t h = 0; h < shape.hosts; ++h) {
      CheckpointImageBuilder b;
      for (size_t c = 0; c < shape.chunks_per_host; ++c) {
        std::vector<uint8_t> payload(shape.chunk_bytes);
        const uint64_t seed = c < shape.chunks_per_host / 3
                                  ? 0xBA5Eull + c
                                  : 0xF00Dull + h * 131 + c;
        uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
        for (size_t i = 0; i < payload.size(); i += 8) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          std::memcpy(&payload[i], &x, 8);
        }
        b.AddChunk(ChunkId(c), payload);
      }
      auto image = std::make_shared<const std::vector<uint8_t>>(b.Serialize());
      spill_logical += image->size();
      epoch.push_back(std::move(image));
    }
    const double spill_mb = static_cast<double>(spill_logical) / kMiB;

    auto fold_repo = [](CheckpointRepo* r) {
      Fnv1aDigest folded;
      for (const uint64_t handle : r->LiveHandles()) {
        const std::vector<uint8_t> out = r->Materialize(handle);
        folded.MixBytes(out.data(), out.size());
      }
      return folded.value();
    };
    auto file_bytes = [](const fs::path& p) {
      std::ifstream in(p, std::ios::binary);
      return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>());
    };

    // Baseline: the per-put path, one commit per image, inline hashing.
    const fs::path per_put_dir = dir.string() + "_spill_per_put";
    fs::remove_all(per_put_dir, ec);
    RepoOptions per_put_opts;
    per_put_opts.hash_threads = 0;
    std::unique_ptr<CheckpointRepo> per_put =
        CheckpointRepo::Open(per_put_dir.string(), per_put_opts, &err);
    if (per_put == nullptr) {
      std::fprintf(stderr, "tab_repo_persist: %s\n", err.c_str());
      return 1;
    }
    const auto per_put_t0 = std::chrono::steady_clock::now();
    for (const auto& image : epoch) {
      if (per_put->PutImage(*image) == 0) {
        std::fprintf(stderr, "tab_repo_persist: spill put rejected: %s\n",
                     per_put->error().c_str());
        return 1;
      }
    }
    const double per_put_s = SecondsSince(per_put_t0);
    const uint64_t oracle_fold = fold_repo(per_put.get());
    per_put.reset();
    PrintValue("per-put spill", spill_mb / per_put_s, "MB/s");

    // Batched: writers stage concurrently with sequence = host index, one
    // group commit for the whole epoch.
    double best_batch_s = 0.0;
    std::vector<uint8_t> batch_segment, batch_journal;
    for (const size_t writers : {size_t{1}, size_t{2}, size_t{4}}) {
      const fs::path batch_dir =
          dir.string() + "_spill_w" + std::to_string(writers);
      fs::remove_all(batch_dir, ec);
      std::unique_ptr<CheckpointRepo> batched =
          CheckpointRepo::Open(batch_dir.string(), RepoOptions{}, &err);
      if (batched == nullptr) {
        std::fprintf(stderr, "tab_repo_persist: %s\n", err.c_str());
        return 1;
      }
      const auto batch_t0 = std::chrono::steady_clock::now();
      auto batch = batched->BeginBatch();
      if (writers == 1) {
        for (size_t h = 0; h < epoch.size(); ++h) {
          batch->Stage(epoch[h], 0, 0, /*sequence=*/h + 1);
        }
      } else {
        std::vector<std::thread> stagers;
        for (size_t w = 0; w < writers; ++w) {
          stagers.emplace_back([&batch, &epoch, w, writers] {
            for (size_t h = w; h < epoch.size(); h += writers) {
              batch->Stage(epoch[h], 0, 0, /*sequence=*/h + 1);
            }
          });
        }
        for (std::thread& t : stagers) {
          t.join();
        }
      }
      const CheckpointRepo::BatchCommitResult result =
          batched->CommitBatch(std::move(batch));
      const double batch_s = SecondsSince(batch_t0);
      if (!result.ok) {
        std::fprintf(stderr, "tab_repo_persist: batch commit failed: %s\n",
                     result.error.c_str());
        return 1;
      }
      char row[64];
      std::snprintf(row, sizeof row, "batched spill, %zu writer%s", writers,
                    writers == 1 ? "" : "s");
      PrintValue(row, spill_mb / batch_s, "MB/s");
      if (best_batch_s == 0.0 || batch_s < best_batch_s) {
        best_batch_s = batch_s;
      }

      // Digest oracle: same materialized bytes as the per-put repository.
      if (fold_repo(batched.get()) != oracle_fold) {
        PrintNote("BATCHED SPILL DIVERGED FROM THE PER-PUT ORACLE");
        spill_verified = false;
      }
      batched.reset();
      // Determinism: every writer count produces the same files; reopen
      // (a fresh process) sees the same bytes and can materialize them.
      const std::vector<uint8_t> seg = file_bytes(batch_dir / "segment.1");
      const std::vector<uint8_t> jnl = file_bytes(batch_dir / "journal.1");
      if (writers == 1) {
        batch_segment = seg;
        batch_journal = jnl;
      } else if (seg != batch_segment || jnl != batch_journal) {
        PrintNote("CONCURRENT STAGERS CHANGED THE REPOSITORY BYTES");
        spill_verified = false;
      }
      std::unique_ptr<CheckpointRepo> reopened =
          CheckpointRepo::Open(batch_dir.string(), RepoOptions{}, &err);
      if (reopened == nullptr || fold_repo(reopened.get()) != oracle_fold) {
        PrintNote("REOPENED BATCH REPOSITORY DIVERGED");
        spill_verified = false;
      }
      reopened.reset();
      fs::remove_all(batch_dir, ec);
    }
    fs::remove_all(per_put_dir, ec);

    PrintValue("group-commit speedup", per_put_s / best_batch_s, "x");
  }
  PrintNote(spill_verified
                ? "spill sweep digest-identical across writers and reopen"
                : "SPILL SWEEP VERIFICATION FAILED");
  if (!spill_verified) {
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace tcsim

int main(int argc, char** argv) {
  tcsim::BenchMain bm(argc, argv, "tab_repo_persist");
  return bm.Finish(tcsim::Run());
}
