// Restore-path cost: image-based rollback vs deterministic re-execution.
//
// The universal checkpoint-image layer makes rollback O(image): a fresh
// simulator is built and overwritten from the target checkpoint's composite
// image, instead of re-executing the experiment from t=0. This harness
// measures the host wall-clock cost of both restore paths for every
// checkpoint of a recorded run. Re-execution cost grows with how deep into
// the run the checkpoint is; image restore stays flat — that gap is the
// point of the layer.
//
//   $ ./build/bench/tab_restore_path

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/timetravel/basic_run.h"
#include "src/timetravel/checkpoint_tree.h"

using namespace tcsim;

namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

struct Row {
  int id = 0;
  double time_s = 0;
  uint64_t image_bytes = 0;
  bool restore_ok = false;
  bool reexec_ok = false;
  double restore_image_wall_s = 0;
  double reexec_wall_s = 0;
};

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_restore_path");

  TimeTravelTree tree([] {
    BasicExperimentRun::Params params;
    params.seed = 11;
    return std::make_unique<BasicExperimentRun>(params);
  });
  const std::vector<int> ids = tree.RecordOriginalRun(30 * kSecond, 3 * kSecond);

  std::vector<Row> rows;
  for (int id : ids) {
    Row row;
    row.id = id;
    row.time_s = ToSeconds(tree.tree()[id].time);
    row.image_bytes = tree.tree()[id].image_bytes;
    // Both paths build a fresh run and reconstruct the checkpoint's state,
    // verifying the digest against the recording — an apples-to-apples
    // "rollback and check" operation.
    row.restore_image_wall_s =
        WallSeconds([&] { row.restore_ok = tree.VerifyImageRestore(id); });
    row.reexec_wall_s =
        WallSeconds([&] { row.reexec_ok = tree.VerifyDeterministicReplay(id); });
    rows.push_back(row);
  }

  bool all_ok = true;
  for (const Row& row : rows) {
    all_ok = all_ok && row.restore_ok && row.reexec_ok;
  }

  std::printf("Restore path: image-based rollback vs re-execution from t=0\n");
  std::printf("(wall-clock on this host; re-execution grows with checkpoint "
              "depth, image restore stays flat)\n\n");
  std::printf("%4s  %8s  %10s  %14s  %12s  %8s  %s\n", "ckpt", "t (s)",
              "image(MB)", "restore-img(s)", "reexec(s)", "speedup", "digests");
  for (const Row& row : rows) {
    std::printf("%4d  %8.1f  %10.2f  %14.4f  %12.4f  %7.1fx  %s\n", row.id,
                row.time_s, static_cast<double>(row.image_bytes) / (1 << 20),
                row.restore_image_wall_s, row.reexec_wall_s,
                row.restore_image_wall_s > 0
                    ? row.reexec_wall_s / row.restore_image_wall_s
                    : 0.0,
                row.restore_ok && row.reexec_ok ? "match" : "MISMATCH");
  }
  std::printf("\nall digests %s\n", all_ok ? "match" : "MISMATCH");
  return bm.Finish(all_ok ? 0 : 1);
}
