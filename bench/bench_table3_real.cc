// Reproduces Table 3: internal quality Q on the two microarray datasets
// (inherent probe-level Normal uncertainty) across cluster counts
// k in {2,3,5,10,15,20,25,30} for the 7 algorithms.
//
// Defaults are laptop-scaled: the simulated datasets carry the paper's
// condition counts but a reduced gene count, and the O(n^2)-class baselines
// run on a further subsample. Flags:
//   --genes=N     genes per dataset                       (default 1500)
//   --slow_cap=N  max genes for UKmed/UAHC/FDB/FOPT       (default 400)
//   --runs=N      repetitions per cell                    (default 2)
//   --seed=S      master seed                             (default 1)
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/uahc.h"
#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "clustering/ukmedoids.h"
#include "common/cli.h"
#include "data/microarray_gen.h"
#include "engine/engine.h"
#include "eval/internal.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

struct AlgoEntry {
  std::unique_ptr<clustering::Clusterer> algo;
  bool slow;
};

std::vector<AlgoEntry> MakeAlgorithms(const engine::Engine& eng) {
  std::vector<AlgoEntry> out;
  out.push_back({std::make_unique<clustering::Fdbscan>(), true});
  out.push_back({std::make_unique<clustering::Foptics>(), true});
  out.push_back({std::make_unique<clustering::Uahc>(), true});
  out.push_back({std::make_unique<clustering::UkMedoids>(), true});
  out.push_back({std::make_unique<clustering::Ukmeans>(), false});
  out.push_back({std::make_unique<clustering::Mmvar>(), false});
  out.push_back({std::make_unique<clustering::Ucpc>(), false});
  for (auto& e : out) e.algo->set_engine(eng);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const int genes = static_cast<int>(args.GetInt("genes", 1500));
  const std::size_t slow_cap =
      static_cast<std::size_t>(args.GetInt("slow_cap", 400));
  const int runs = static_cast<int>(args.GetInt("runs", 2));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  const auto algorithms = MakeAlgorithms(
      engine::Engine(bench::EngineConfigFromFlagsOrDie(args, "table3")));
  args.RejectUnknownFlags();
  const int cluster_counts[] = {2, 3, 5, 10, 15, 20, 25, 30};

  std::printf("=== Table 3: internal quality Q on real (microarray-like) "
              "datasets (genes=%d, slow_cap=%zu, runs=%d) ===\n\n",
              genes, slow_cap, runs);

  std::map<std::string, std::pair<double, int>> overall;
  for (const auto& spec : data::PaperMicroarraySpecs()) {
    const double scale =
        static_cast<double>(genes) / static_cast<double>(spec.genes);
    const auto full =
        data::MakeMicroarrayByName(spec.name, seed, scale).ValueOrDie();
    const auto small = full.Subsampled(slow_cap, seed + 1);
    std::printf("%-14s %4s | ", spec.name, "k");
    for (const auto& e : algorithms) {
      std::printf("%10s ", e.algo->name().c_str());
    }
    std::printf("\n");
    std::map<std::string, std::pair<double, int>> per_dataset;
    for (int k : cluster_counts) {
      std::printf("%-14s %4d | ", "", k);
      for (const auto& entry : algorithms) {
        const auto& ds = entry.slow ? small : full;
        double q_sum = 0.0;
        for (int r = 0; r < runs; ++r) {
          const auto result =
              entry.algo->Cluster(ds, k, seed + 13 * k + r);
          q_sum += eval::EvaluateInternal(
                       ds.moments(), result.labels,
                       std::max(k, result.clusters_found))
                       .q;
        }
        const double q = q_sum / runs;
        std::printf("%+10.3f ", q);
        auto& pd = per_dataset[entry.algo->name()];
        pd.first += q;
        pd.second += 1;
        auto& ov = overall[entry.algo->name()];
        ov.first += q;
        ov.second += 1;
      }
      std::printf("\n");
    }
    std::printf("%-14s %4s | ", spec.name, "avg");
    for (const auto& entry : algorithms) {
      const auto& [sum, count] = per_dataset.at(entry.algo->name());
      std::printf("%+10.3f ", sum / count);
    }
    std::printf("\n\n");
  }

  std::printf("--- overall average Q (paper: UCPC best; MMVar closest "
              "competitor among partitional) ---\n%-19s | ",
              "all");
  double ucpc_q = 0.0;
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = overall.at(entry.algo->name());
    const double avg = sum / count;
    if (entry.algo->name() == "UCPC") ucpc_q = avg;
    std::printf("%+10.3f ", avg);
  }
  std::printf("\n--- overall average gain of UCPC ---\n%-19s | ", "gain");
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = overall.at(entry.algo->name());
    std::printf("%+10.3f ", ucpc_q - sum / count);
  }
  std::printf("\n");
  return 0;
}
