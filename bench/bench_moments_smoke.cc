// Out-of-core moment-store smoke: proves a dataset whose RESIDENT moment
// columns exceed the process's address-space cap still clusters to
// completion on the Mapped (mmap-backed .umom) MomentStore backend, where
// the Resident backend dies. CI runs this twice on the same
// dataset_gen-produced file under a hard `ulimit -v`:
//
//   --mode=mapped   -> decoded moment batches go straight into the .umom
//                      sidecar (O(batch + chunk) heap), then UK-means runs over
//                      chunk-granular mapped windows (bounded address
//                      space). Expected to finish: MOMENTS_SMOKE RESULT=OK.
//   --mode=resident -> the classic flat columns: (3 n m + n) doubles must
//                      fit the cap. Expected to exhaust it:
//                      MOMENTS_SMOKE RESULT=OOM.
//
// The RESULT= marker is machine-readable on purpose: CI greps for it instead
// of inspecting bare exit codes, so an unrelated crash cannot masquerade as
// the expected out-of-memory outcome (same scheme as bench_pairwise_smoke
// and bench_ingest_smoke). Both modes print a moment fingerprint; on an
// uncapped run the two must agree (the backends are bit-identical).
//
// Flags:
//   --dataset=PATH   binary dataset file                      (required)
//   --mode=mapped|resident                                    (default mapped)
//   --sidecar=PATH   .umom location        (default: dataset path + ".umom")
//   --reuse_sidecar=0|1  reuse a matching sidecar             (default 1)
//   --k=K            clusters for the UK-means run            (default 8)
//   --max_iters=I    UK-means iteration cap                   (default 30)
//   --batch=B        streaming batch size                     (default 4096)
//   --seed=S         clustering seed                          (default 1)
//   --threads=N --block_size=B --memory_budget_mb=M           engine knobs
#include <cstdint>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/ukmeans.h"
#include "common/cli.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "io/mmap_file.h"
#include "io/moment_file.h"
#include "uncertain/moment_store.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

int Run(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::string path = args.GetString("dataset", "");
  if (path.empty()) {
    std::fprintf(stderr, "moments smoke: --dataset=PATH is required\n");
    return 1;
  }
  const std::string mode = args.GetString("mode", "mapped");
  const int k = static_cast<int>(args.GetInt("k", 8));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  clustering::Ukmeans::Params params;
  params.max_iters = static_cast<int>(args.GetInt("max_iters", 30));
  const engine::Engine eng(
      bench::EngineConfigFromFlagsOrDie(args, "moments smoke"));

  io::MomentStoreOptions options;
  options.batch_size = static_cast<std::size_t>(args.GetInt("batch", 4096));
  options.sidecar_path = args.GetString("sidecar", "");
  options.reuse_sidecar = args.GetBool("reuse_sidecar", true);
  args.RejectUnknownFlags();
  if (mode == "mapped") {
    options.backend = io::BackendChoice::kMapped;
  } else if (mode == "resident") {
    options.backend = io::BackendChoice::kResident;
  } else {
    std::fprintf(stderr,
                 "moments smoke: --mode must be mapped or resident\n");
    return 1;
  }

  std::printf("[moments smoke] mode=%s dataset=%s batch=%zu\n",
              mode.c_str(), path.c_str(), options.batch_size);

  common::Stopwatch sw;
  std::vector<int> labels;
  auto opened = io::StreamMomentStoreFromFile(path, eng, options, &labels);
  if (!opened.ok()) {
    std::fprintf(stderr, "moments smoke: %s\n",
                 opened.status().ToString().c_str());
    std::printf("MOMENTS_SMOKE RESULT=FAIL\n");
    return 1;
  }
  const uncertain::MomentStorePtr store = std::move(opened).ValueOrDie();
  const uncertain::MomentView mm = store->view();
  std::printf("[moments smoke] backend=%s n=%zu m=%zu built in %.1fms, "
              "moment_bytes_resident=%zu, rss=%ld KB\n",
              uncertain::MomentBackendName(store->backend()).c_str(),
              mm.size(), mm.dims(), sw.ElapsedMs(),
              store->moment_bytes_resident(), bench::PeakRssKb());
  std::printf("[moments smoke] fingerprint=%016llx\n",
              static_cast<unsigned long long>(bench::MomentFingerprint(mm)));
  // Size sanity must precede the clustering call: RunOnMoments requires
  // n >= k (assert-only, compiled out in Release).
  if (k < 1 || mm.size() < static_cast<std::size_t>(k)) {
    std::fprintf(stderr, "moments smoke: n=%zu smaller than k=%d\n",
                 mm.size(), k);
    std::printf("MOMENTS_SMOKE RESULT=FAIL\n");
    return 1;
  }

  sw.Reset();
  const auto outcome =
      clustering::Ukmeans::RunOnMoments(mm, k, seed, params, eng);
  std::printf("[moments smoke] UK-means k=%d: objective=%.4f iterations=%d "
              "in %.1fms, moment_bytes_resident=%zu, rss=%ld KB\n",
              k, outcome.objective, outcome.iterations, sw.ElapsedMs(),
              store->moment_bytes_resident(), bench::PeakRssKb());
  if (outcome.labels.size() != mm.size()) {
    std::printf("MOMENTS_SMOKE RESULT=FAIL\n");
    return 1;
  }
  if (const auto* mapped =
          dynamic_cast<const io::MappedMomentStore*>(store.get())) {
    // Diagnose whether the windows actually came from mmap or from the
    // graceful heap-read fallback — same values either way, different
    // paging behavior.
    std::printf("[moments smoke] mmap_windows=%s (mmap supported: %s) "
                "chunk_rows=%zu\n",
                mapped->used_mmap() ? "yes" : "no",
                io::MmapSupported() ? "yes" : "no", mapped->chunk_rows());
  }
  std::printf("MOMENTS_SMOKE RESULT=OK mode=%s backend=%s n=%zu\n",
              mode.c_str(),
              uncertain::MomentBackendName(store->backend()).c_str(),
              mm.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    // Out of memory (e.g. under a CI `ulimit -v` cap): report it in the
    // machine-readable channel and exit non-zero.
    std::printf("MOMENTS_SMOKE RESULT=OOM\n");
    std::fflush(stdout);
    return 3;
  }
}
