// Large-n memory smoke for the PairwiseStore backends: runs UK-medoids
// (closed form) at a size whose dense n x n ED^ table cannot fit the
// process's address-space limit, proving the budgeted backends cluster
// where the dense table would OOM. CI runs this twice under a hard
// `ulimit -v`:
//
//   --memory_budget_bytes=0   -> dense backend, expected to die on the
//                                table allocation;
//   --memory_budget_bytes=64M -> tiled backend, expected to finish and to
//                                keep peak table bytes within the budget.
//
// Every terminal outcome is reported through one machine-readable marker so
// CI can grep for the expected state instead of inspecting bare exit codes
// (an unrelated crash — segfault, assert — emits no marker and therefore
// cannot masquerade as the expected OOM):
//
//   [pairwise smoke] RESULT=OOM   allocation failure (std::bad_alloc)
//   [pairwise smoke] RESULT=OK    clustered within its own budget
//   [pairwise smoke] RESULT=FAIL  clustered but violated budget/shape checks
//
// Budgeted runs additionally emit a tile-policy marker with the run's
// kernel-eval and warm-row counters:
//
//   [pairwise smoke] TILE_POLICY RESULT=OK|FAIL evals=..
//
// TILE_POLICY RESULT=OK asserts the gather-tile swap sweep actually beat
// the full-table sweep's evaluation count (< iterations * n * (n - 1), the
// floor of a full-table swap sweep on a recomputing backend).
//
// Budgeted runs additionally gate FDBSCAN's indexed eps-sweep on a smaller
// separable dataset:
//
//   [pairwise smoke] INDEX RESULT=OK|FAIL bound_tests=.. pair_evaluations=..
//
// INDEX RESULT=OK asserts that the index answered its candidate queries at
// <= 0.2x the n * (n - 1) / 2 pair-bound floor, that the sweep evaluated
// exactly the pairs PairwiseBoundIndex::ProvablyBeyond does not rule out
// (counted by brute force, so a candidate the index drops shows), and that
// its labels equal the unbudgeted run's.
//
// Exit code: 0 for OK, 1 for FAIL, 3 for OOM.
//
// Flags:
//   --n=N                      objects               (default 20000)
//   --index_n=N                indexed-sweep objects (default 6000)
//   --m=M                      dimensions            (default 2)
//   --k=K                      clusters              (default 8)
//   --max_iters=I              PAM iteration cap     (default 2)
//   --threads=N --block_size=B --memory_budget_bytes=B   engine knobs
//   --seed=S                   master seed           (default 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "clustering/fdbscan.h"
#include "clustering/pruning.h"
#include "clustering/ukmedoids.h"
#include "common/cli.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"

namespace {

int Run(int argc, char** argv) {
  using namespace uclust;  // NOLINT: bench brevity
  const common::ArgParser args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 20000));
  const std::size_t m = static_cast<std::size_t>(args.GetInt("m", 2));
  const int k = static_cast<int>(args.GetInt("k", 8));
  const int max_iters = static_cast<int>(args.GetInt("max_iters", 2));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::size_t index_n =
      static_cast<std::size_t>(args.GetInt("index_n", 6000));

  const engine::EngineConfig config =
      bench::EngineConfigFromFlagsOrDie(args, "pairwise smoke");
  args.RejectUnknownFlags();
  const engine::Engine eng(config);

  std::printf("[pairwise smoke] n=%zu m=%zu k=%d budget=%zu bytes "
              "(dense table would be %.2f GiB)\n",
              n, m, k, config.memory_budget_bytes,
              static_cast<double>(n) * n * sizeof(double) /
                  (1024.0 * 1024.0 * 1024.0));

  data::MixtureParams mp;
  mp.n = n;
  mp.dims = m;
  mp.classes = k;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(mp, seed, "pairwise-smoke");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const data::UncertainDataset ds =
      data::UncertaintyModel(d, up, seed + 1).Uncertain();
  std::printf("[pairwise smoke] dataset built, rss=%ld KB\n", bench::PeakRssKb());

  clustering::UkMedoids::Params params;
  params.use_closed_form = true;
  params.max_iters = max_iters;
  clustering::UkMedoids algo(params);
  algo.set_engine(eng);
  const clustering::ClusteringResult r = algo.Cluster(ds, k, seed);

  std::printf("[pairwise smoke] backend=%s iterations=%d clusters=%d "
              "offline=%.1fms online=%.1fms table_peak=%zu bytes "
              "rss=%ld KB\n",
              r.pairwise_backend.c_str(), r.iterations, r.clusters_found,
              r.offline_ms, r.online_ms, r.table_bytes_peak, bench::PeakRssKb());

  if (r.clusters_found < 1 ||
      r.labels.size() != ds.size()) {
    std::fprintf(stderr, "degenerate clustering\n");
    std::printf("[pairwise smoke] RESULT=FAIL\n");
    return 1;
  }
  // One row is the hard floor of row-granular access (see
  // PairwiseStore::StreamRows), so a sub-row budget is checked against it.
  const std::size_t budget_floor =
      std::max(config.memory_budget_bytes, n * sizeof(double));
  if (config.memory_budget_bytes > 0 && r.table_bytes_peak > budget_floor) {
    std::fprintf(stderr, "table peak %zu exceeded the %zu-byte budget\n",
                 r.table_bytes_peak, budget_floor);
    std::printf("[pairwise smoke] RESULT=FAIL\n");
    return 1;
  }
  if (config.memory_budget_bytes > 0) {
    // A full-table swap sweep costs n * (n - 1) evaluations per iteration
    // on a recomputing backend; the gather-tile sweep must land strictly
    // below that floor.
    const int64_t full_sweep_floor = static_cast<int64_t>(r.iterations) *
                                     static_cast<int64_t>(n) *
                                     static_cast<int64_t>(n - 1);
    const bool tile_ok = r.pair_evaluations < full_sweep_floor;
    std::printf("[pairwise smoke] TILE_POLICY RESULT=%s "
                "evals=%lld full_sweep_floor=%lld warm_hits=%lld "
                "warm_misses=%lld\n",
                tile_ok ? "OK" : "FAIL",
                static_cast<long long>(r.pair_evaluations),
                static_cast<long long>(full_sweep_floor),
                static_cast<long long>(r.tile_warm_hits),
                static_cast<long long>(r.tile_warm_misses));
    if (!tile_ok) {
      std::printf("[pairwise smoke] RESULT=FAIL\n");
      return 1;
    }
  }
  if (config.memory_budget_bytes > 0) {
    // Spatial-index gate: FDBSCAN's indexed eps-sweep must answer its
    // candidate queries well below the n * (n - 1) / 2 pair-bound floor the
    // all-pairs predicate sweep pays — the whole point of candidate-SET
    // pruning — without losing a pair the predicate would have evaluated.
    // The regime a range index targets: 3-D, broad clusters (moderate local
    // density) and localized uncertainty regions well below eps. Tight 2-D
    // cluster cores or fat regions push the TRUE eps-neighbor count — which
    // no exact index can undercut — toward all pairs.
    data::MixtureParams imp;
    imp.n = index_n;
    imp.dims = 3;
    imp.classes = k;
    imp.sigma_min = 0.15;
    imp.sigma_max = 0.25;
    imp.min_separation = 0.4;
    const data::DeterministicDataset id =
        data::MakeGaussianMixture(imp, seed + 2, "pairwise-smoke-index");
    data::UncertaintyParams iup = up;
    iup.min_scale_frac = 0.002;
    iup.max_scale_frac = 0.01;
    const data::UncertainDataset ids =
        data::UncertaintyModel(id, iup, seed + 3).Uncertain();
    clustering::Fdbscan::Params fp;
    fp.eps = 0.02;  // well below the class separation: most pairs prune
    const auto sweep = [&](std::size_t budget) {
      engine::EngineConfig icfg = config;
      icfg.memory_budget_bytes = budget;
      clustering::Fdbscan fdbscan(fp);
      fdbscan.set_engine(engine::Engine(icfg));
      return fdbscan.Cluster(ids, k, seed);
    };
    const clustering::ClusteringResult unbudgeted = sweep(0);
    const clustering::ClusteringResult indexed =
        sweep(config.memory_budget_bytes);
    // The pairs the all-pairs predicate sweep would evaluate.
    const clustering::PairwiseBoundIndex bounds(ids.objects());
    int64_t not_beyond = 0;
    for (std::size_t i = 0; i < index_n; ++i) {
      for (std::size_t j = i + 1; j < index_n; ++j) {
        not_beyond += bounds.ProvablyBeyond(i, j, fp.eps) ? 0 : 1;
      }
    }
    const int64_t pair_floor = static_cast<int64_t>(index_n) *
                               static_cast<int64_t>(index_n - 1) / 2;
    const int64_t index_cost =
        indexed.index_bound_tests + indexed.index_candidates;
    const bool labels_match = indexed.labels == unbudgeted.labels;
    const bool index_ok = labels_match &&
                          indexed.pair_evaluations == not_beyond &&
                          index_cost * 5 <= pair_floor;  // <= 0.2x the floor
    std::printf("[pairwise smoke] INDEX RESULT=%s n=%zu bound_tests=%lld "
                "candidates=%lld cost=%lld pair_floor=%lld "
                "pair_evaluations=%lld not_beyond_pairs=%lld "
                "labels_match_unbudgeted=%d online=%.1fms\n",
                index_ok ? "OK" : "FAIL", index_n,
                static_cast<long long>(indexed.index_bound_tests),
                static_cast<long long>(indexed.index_candidates),
                static_cast<long long>(index_cost),
                static_cast<long long>(pair_floor),
                static_cast<long long>(indexed.pair_evaluations),
                static_cast<long long>(not_beyond), labels_match ? 1 : 0,
                indexed.online_ms);
    if (!index_ok) {
      std::printf("[pairwise smoke] RESULT=FAIL\n");
      return 1;
    }
  }
  std::printf("[pairwise smoke] RESULT=OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    std::printf("[pairwise smoke] RESULT=OOM\n");
    std::fflush(stdout);
    return 3;
  }
}
