// Ablation: pruning power of the basic-UK-means accelerators (Section 2.2).
// For each strategy, reports the number of exact sample-integrated expected
// distance computations, the fraction saved w.r.t. the unpruned baseline,
// the online runtime, and verifies that the final partitions are identical
// (the pruners are exact).
//
// Flags: --n=2000 --k=5,10,20 --samples=32 --seed=1 --threads=1
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/basic_ukmeans.h"
#include "common/cli.h"
#include "common/csv.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"

namespace {
using namespace uclust;  // NOLINT: bench brevity
}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 2000));
  const int samples = static_cast<int>(args.GetInt("samples", 32));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  std::vector<int> ks;
  for (const std::string& tok :
       common::SplitString(args.GetString("k", "5,10,20"), ',')) {
    ks.push_back(std::stoi(tok));
  }
  const engine::Engine eng(
      bench::EngineConfigFromFlagsOrDie(args, "ablation pruning"));
  args.RejectUnknownFlags();

  data::MixtureParams mix;
  mix.n = n;
  mix.dims = 6;
  mix.classes = ks.back();
  const auto source = data::MakeGaussianMixture(mix, seed, "pruning");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const auto ds = data::UncertaintyModel(source, up, seed + 1).Uncertain();

  struct Config {
    const char* label;
    clustering::PruningStrategy strategy;
    bool shift;
  };
  const Config configs[] = {
      {"bUK-means (none)", clustering::PruningStrategy::kNone, false},
      {"MinMax-BB", clustering::PruningStrategy::kMinMaxBB, false},
      {"MinMax-BB+shift", clustering::PruningStrategy::kMinMaxBB, true},
      {"VDBiP", clustering::PruningStrategy::kVoronoi, false},
      {"VDBiP+shift", clustering::PruningStrategy::kVoronoi, true},
  };

  std::printf("=== Ablation: pruning power (n=%zu, m=6, S=%d) ===\n\n", n,
              samples);
  for (int k : ks) {
    std::printf("--- k = %d ---\n", k);
    std::printf("%-20s %14s %10s %12s %10s\n", "strategy", "ED evals",
                "saved", "online_ms", "same part.");
    int64_t baseline_evals = 0;
    std::vector<int> baseline_labels;
    for (const Config& cfg : configs) {
      clustering::BasicUkmeans::Params p;
      p.samples = samples;
      p.pruning = cfg.strategy;
      p.cluster_shift = cfg.shift;
      clustering::BasicUkmeans algo(p);
      algo.set_engine(eng);
      const auto r = algo.Cluster(ds, k, seed + 3);
      if (cfg.strategy == clustering::PruningStrategy::kNone) {
        baseline_evals = r.ed_evaluations;
        baseline_labels = r.labels;
      }
      const double saved =
          baseline_evals > 0
              ? 100.0 * (1.0 - static_cast<double>(r.ed_evaluations) /
                                   static_cast<double>(baseline_evals))
              : 0.0;
      std::printf("%-20s %14lld %9.1f%% %12.2f %10s\n", cfg.label,
                  static_cast<long long>(r.ed_evaluations), saved,
                  r.online_ms,
                  r.labels == baseline_labels ? "yes" : "NO!");
    }
    std::printf("\n");
  }
  std::printf("Expected shape (paper/Section 2.2 literature): both pruners "
              "avoid most exact ED\nintegrations; cluster-shift tightens "
              "further; results stay bit-identical.\n");
  return 0;
}
