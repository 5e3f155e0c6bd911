// A tour of every clustering algorithm in the library on one uncertain
// workload: accuracy (F-measure vs the planted classes), internal quality Q,
// online runtime, and the number of expensive expected-distance
// integrations. A compact, runnable version of the paper's Tables 2-3 and
// Figure 4 story.
//
//   $ ./algorithm_tour [--n=300] [--classes=4] [--family=normal]
//                      [--threads=1] [--block_size=1024]
#include <cstdio>
#include <memory>
#include <vector>

#include "clustering/basic_ukmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/uahc.h"
#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "clustering/ukmedoids.h"
#include "common/cli.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "eval/external.h"
#include "eval/internal.h"

int main(int argc, char** argv) {
  using namespace uclust;  // NOLINT: example brevity
  const common::ArgParser args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 300));
  const int classes = static_cast<int>(args.GetInt("classes", 4));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 3));
  auto family = data::PdfFamily::kNormal;
  if (auto parsed = data::ParsePdfFamily(args.GetString("family", "normal"));
      parsed.ok()) {
    family = parsed.ValueOrDie();
  }

  data::MixtureParams mix;
  mix.n = n;
  mix.dims = 4;
  mix.classes = classes;
  const auto source = data::MakeGaussianMixture(mix, seed, "tour");
  data::UncertaintyParams up;
  up.family = family;
  const auto ds = data::UncertaintyModel(source, up, seed + 1).Uncertain();

  std::vector<std::unique_ptr<clustering::Clusterer>> algorithms;
  algorithms.push_back(std::make_unique<clustering::Ucpc>());
  algorithms.push_back(std::make_unique<clustering::Ukmeans>());
  algorithms.push_back(std::make_unique<clustering::Mmvar>());
  algorithms.push_back(std::make_unique<clustering::BasicUkmeans>());
  {
    clustering::BasicUkmeans::Params p;
    p.pruning = clustering::PruningStrategy::kMinMaxBB;
    p.cluster_shift = true;
    algorithms.push_back(std::make_unique<clustering::BasicUkmeans>(p));
    p.pruning = clustering::PruningStrategy::kVoronoi;
    algorithms.push_back(std::make_unique<clustering::BasicUkmeans>(p));
  }
  algorithms.push_back(std::make_unique<clustering::UkMedoids>());
  algorithms.push_back(std::make_unique<clustering::Uahc>());
  algorithms.push_back(std::make_unique<clustering::Fdbscan>());
  algorithms.push_back(std::make_unique<clustering::Foptics>());
  // One shared engine for the whole tour; --threads=N parallelizes every
  // algorithm without changing any of the reported numbers except runtime.
  engine::EngineConfig engine_cfg;
  const common::Status engine_st = common::ParseEngineFlags(args, &engine_cfg);
  if (!engine_st.ok()) {
    std::fprintf(stderr, "algorithm_tour: %s\n",
                 engine_st.ToString().c_str());
    return 1;
  }
  const engine::Engine eng(engine_cfg);
  for (auto& algo : algorithms) algo->set_engine(eng);

  const int runs = static_cast<int>(args.GetInt("runs", 5));
  args.RejectUnknownFlags();
  std::printf("algorithm_tour: n=%zu m=%zu classes=%d family=%s runs=%d\n\n",
              ds.size(), ds.dims(), classes, data::PdfFamilyName(family),
              runs);
  std::printf("%-18s %8s %8s %10s %12s %6s\n", "algorithm", "F", "Q",
              "online_ms", "ED evals", "k");
  for (const auto& algo : algorithms) {
    double f = 0.0, q = 0.0, ms = 0.0;
    long long evals = 0;
    int found = 0;
    for (int r = 0; r < runs; ++r) {
      const clustering::ClusteringResult result =
          algo->Cluster(ds, classes, seed + r);
      f += eval::FMeasure(ds.labels(), result.labels);
      q += eval::EvaluateInternal(ds.moments(), result.labels,
                                  std::max(classes, result.clusters_found))
               .q;
      ms += result.online_ms;
      evals += result.ed_evaluations;
      found = result.clusters_found;
    }
    std::printf("%-18s %8.3f %8.3f %10.2f %12lld %6d\n",
                algo->name().c_str(), f / runs, q / runs, ms / runs,
                evals / runs, found);
  }
  std::printf("\nUCPC matches the fast group's runtime while leading on "
              "accuracy — the paper's headline claim.\n");
  return 0;
}
