// CK-means smoke: proves the bound-pruned fast path is exact AND cheaper,
// and that the mini-batch epoch-streaming driver clusters a dataset whose
// resident moment columns exceed the process's address-space cap. CI greps
// the machine-readable CKMEANS RESULT= marker (same scheme as
// bench_pairwise_smoke / bench_moments_smoke), so an unrelated crash cannot
// masquerade as an expected outcome. Modes:
//
//   --mode=compare   -> ingest the dataset's moments, run the direct
//                       UK-means sweeps and the reduced+bounded CK-means
//                       path on the same seed, and require bit-identical
//                       labels/objective/iterations AND bounded
//                       center_distance_evals <= max_eval_ratio x the
//                       direct count. CKMEANS RESULT=OK only when both the
//                       exactness and the pruning-win gates hold.
//   --mode=resident  -> the classic flat moment columns ((3m + 1) n
//                       doubles) followed by the in-memory run. Under CI's
//                       `ulimit -v` cap this is expected to exhaust the
//                       address space: CKMEANS RESULT=OOM (exit 3).
//   --mode=minibatch -> CkMeans::ClusterFile under a --memory_budget_mb
//                       below the (m + 1) n-double reduction: epoch
//                       streaming re-reads the file once per iteration
//                       holding only O(n) labels/bounds plus one
//                       budget-sized batch of moments — expected to finish
//                       under the same cap: CKMEANS RESULT=OK. A budget the
//                       reduction fits (or none) is a usage error.
//
// Flags:
//   --dataset=PATH       binary dataset file                   (required)
//   --mode=compare|resident|minibatch                  (default compare)
//   --k=K                clusters                              (default 8)
//   --max_iters=I        Lloyd iteration cap                   (default 30)
//   --max_eval_ratio=X   compare-mode pruning gate             (default 0.5)
//   --seed=S             clustering seed                       (default 1)
//   --threads=N --block_size=B --memory_budget_mb=M            engine knobs
#include <cstdint>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/ckmeans.h"
#include "clustering/ukmeans.h"
#include "common/cli.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "uncertain/moment_store.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

constexpr const char* kFail = "CKMEANS RESULT=FAIL\n";

int Run(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::string path = args.GetString("dataset", "");
  if (path.empty()) {
    std::fprintf(stderr, "ckmeans smoke: --dataset=PATH is required\n");
    return 1;
  }
  const std::string mode = args.GetString("mode", "compare");
  const int k = static_cast<int>(args.GetInt("k", 8));
  const int max_iters = static_cast<int>(args.GetInt("max_iters", 30));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const double max_eval_ratio = args.GetDouble("max_eval_ratio", 0.5);
  const engine::Engine eng(
      bench::EngineConfigFromFlagsOrDie(args, "ckmeans smoke"));
  args.RejectUnknownFlags();

  std::printf("[ckmeans smoke] mode=%s dataset=%s k=%d max_iters=%d\n",
              mode.c_str(), path.c_str(), k, max_iters);

  if (mode == "minibatch") {
    io::MomentBatchStream file;
    if (const common::Status st = file.Open(path); !st.ok()) {
      std::fprintf(stderr, "ckmeans smoke: %s\n", st.ToString().c_str());
      std::printf(kFail);
      return 1;
    }
    const std::size_t budget = eng.memory_budget_bytes();
    const std::size_t reduced_bytes =
        (file.dims() + 1) * file.size() * sizeof(double);
    if (budget == 0 || reduced_bytes <= budget) {
      std::fprintf(stderr,
                   "ckmeans smoke: minibatch mode needs a memory budget "
                   "below the %zu-byte reduced moments\n",
                   reduced_bytes);
      return 1;
    }
    clustering::CkMeans::Params p;
    p.max_iters = max_iters;
    common::Stopwatch sw;
    auto r = clustering::CkMeans::ClusterFile(path, k, seed, p, eng);
    if (!r.ok()) {
      std::fprintf(stderr, "ckmeans smoke: %s\n",
                   r.status().ToString().c_str());
      std::printf(kFail);
      return 1;
    }
    const clustering::ClusteringResult& out = r.ValueOrDie();
    std::printf("[ckmeans smoke] epoch-streamed n=%zu: objective=%.4f "
                "iterations=%d evals=%lld skipped=%lld in %.1fms, "
                "rss=%ld KB\n",
                out.labels.size(), out.objective, out.iterations,
                static_cast<long long>(out.center_distance_evals),
                static_cast<long long>(out.bounds_skipped), sw.ElapsedMs(),
                bench::PeakRssKb());
    if (out.labels.empty()) {
      std::printf(kFail);
      return 1;
    }
    std::printf("CKMEANS RESULT=OK mode=minibatch n=%zu batch=%zu\n",
                out.labels.size(),
                clustering::CkMeans::EpochBatchRows(file.dims(), budget));
    return 0;
  }

  // compare / resident both start from fully ingested resident columns.
  common::Stopwatch sw;
  io::MomentStoreOptions options;
  options.backend = io::BackendChoice::kResident;
  auto opened = io::StreamMomentStoreFromFile(path, eng, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "ckmeans smoke: %s\n",
                 opened.status().ToString().c_str());
    std::printf(kFail);
    return 1;
  }
  const uncertain::MomentStorePtr store = std::move(opened).ValueOrDie();
  const uncertain::MomentView mm = store->view();
  std::printf("[ckmeans smoke] resident moments n=%zu m=%zu built in "
              "%.1fms, rss=%ld KB\n",
              mm.size(), mm.dims(), sw.ElapsedMs(), bench::PeakRssKb());
  if (k < 1 || mm.size() < static_cast<std::size_t>(k)) {
    std::fprintf(stderr, "ckmeans smoke: n=%zu smaller than k=%d\n",
                 mm.size(), k);
    std::printf(kFail);
    return 1;
  }

  if (mode == "resident") {
    clustering::CkMeans::Params p;
    p.max_iters = max_iters;
    sw.Reset();
    const auto out = clustering::CkMeans::RunOnMoments(mm, k, seed, p, eng);
    std::printf("[ckmeans smoke] resident run: objective=%.4f iterations=%d "
                "in %.1fms\n",
                out.objective, out.iterations, sw.ElapsedMs());
    std::printf("CKMEANS RESULT=OK mode=resident n=%zu\n", mm.size());
    return 0;
  }
  if (mode != "compare") {
    std::fprintf(stderr,
                 "ckmeans smoke: --mode must be compare, resident, or "
                 "minibatch\n");
    return 1;
  }

  clustering::Ukmeans::Params dp;
  dp.max_iters = max_iters;
  sw.Reset();
  const auto direct =
      clustering::Ukmeans::RunOnMoments(mm, k, seed, dp, eng);
  const double direct_ms = sw.ElapsedMs();

  clustering::CkMeans::Params cp;
  cp.max_iters = max_iters;  // reduction + bounds on by default
  sw.Reset();
  const auto fast = clustering::CkMeans::RunOnMoments(mm, k, seed, cp, eng);
  const double fast_ms = sw.ElapsedMs();

  const double ratio =
      direct.center_distance_evals > 0
          ? static_cast<double>(fast.center_distance_evals) /
                static_cast<double>(direct.center_distance_evals)
          : 1.0;
  std::printf("[ckmeans smoke] direct:  %8.1fms iterations=%d evals=%lld\n",
              direct_ms, direct.iterations,
              static_cast<long long>(direct.center_distance_evals));
  std::printf("[ckmeans smoke] bounded: %8.1fms iterations=%d evals=%lld "
              "skipped=%lld (eval ratio %.3f, gate %.3f)\n",
              fast_ms, fast.iterations,
              static_cast<long long>(fast.center_distance_evals),
              static_cast<long long>(fast.bounds_skipped), ratio,
              max_eval_ratio);

  if (fast.labels != direct.labels || fast.objective != direct.objective ||
      fast.iterations != direct.iterations) {
    std::fprintf(stderr,
                 "ckmeans smoke: bounded run diverged from the direct "
                 "sweeps (exactness contract broken)\n");
    std::printf(kFail);
    return 1;
  }
  if (ratio > max_eval_ratio) {
    std::fprintf(stderr,
                 "ckmeans smoke: pruning win too small: eval ratio %.3f > "
                 "gate %.3f\n",
                 ratio, max_eval_ratio);
    std::printf(kFail);
    return 1;
  }
  std::printf("CKMEANS RESULT=OK mode=compare n=%zu eval_ratio=%.3f\n",
              mm.size(), ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    // Out of memory (e.g. under a CI `ulimit -v` cap): report it in the
    // machine-readable channel and exit non-zero.
    std::printf("CKMEANS RESULT=OOM\n");
    std::fflush(stdout);
    return 3;
  }
}
