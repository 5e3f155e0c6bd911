// Microarray analysis scenario (Table 3 of the paper in miniature): gene
// expression levels carry probe-level uncertainty; genes are clustered into
// co-expression modules at several cluster counts and scored with the
// internal validity criterion Q = inter - intra.
//
//   $ ./microarray_pipeline [--genes=2000] [--dataset=Neuroblastoma]
#include <cstdio>
#include <string>

#include "clustering/mmvar.h"
#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "common/cli.h"
#include "data/microarray_gen.h"
#include "eval/internal.h"
#include "eval/model_selection.h"

int main(int argc, char** argv) {
  const uclust::common::ArgParser args(argc, argv);
  const std::string name = args.GetString("dataset", "Neuroblastoma");
  const int genes = static_cast<int>(args.GetInt("genes", 2000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 11));
  args.RejectUnknownFlags();

  // Scale the paper-sized dataset down to the requested gene count.
  const auto specs = uclust::data::PaperMicroarraySpecs();
  double scale = 0.1;
  for (const auto& spec : specs) {
    if (name == spec.name) {
      scale = static_cast<double>(genes) / static_cast<double>(spec.genes);
    }
  }
  auto result = uclust::data::MakeMicroarrayByName(name, seed, scale);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const uclust::data::UncertainDataset ds = std::move(result).ValueOrDie();
  std::printf("microarray_pipeline: %s, %zu genes x %zu conditions "
              "(probe-level Normal uncertainty)\n",
              ds.name().c_str(), ds.size(), ds.dims());

  const uclust::clustering::Ucpc ucpc;
  const uclust::clustering::Mmvar mmvar;
  const uclust::clustering::Ukmeans ukmeans;
  std::printf("%6s %10s %10s %10s\n", "k", "Q(UCPC)", "Q(MMVar)", "Q(UKM)");
  for (int k : {2, 3, 5, 10, 15}) {
    const auto ru = ucpc.Cluster(ds, k, seed + k);
    const auto rm = mmvar.Cluster(ds, k, seed + k);
    const auto rk = ukmeans.Cluster(ds, k, seed + k);
    const double qu =
        uclust::eval::EvaluateInternal(ds.moments(), ru.labels, k).q;
    const double qm =
        uclust::eval::EvaluateInternal(ds.moments(), rm.labels, k).q;
    const double qk =
        uclust::eval::EvaluateInternal(ds.moments(), rk.labels, k).q;
    std::printf("%6d %10.4f %10.4f %10.4f\n", k, qu, qm, qk);
  }
  std::printf("(higher Q = more separated, more cohesive clustering)\n");

  // How many modules does the data actually support? Model selection via
  // the expected-distance silhouette (library extension).
  const auto selection =
      uclust::eval::SelectK(ds, ucpc, 2, 12,
                            uclust::eval::SelectionCriterion::kSilhouette,
                            /*runs=*/2, seed + 99);
  std::printf("\nmodel selection (expected-distance silhouette): "
              "best k = %d\n",
              selection.best_k);
  for (const auto& row : selection.scores) {
    std::printf("  k=%2d  silhouette=%.4f\n", row.k, row.score);
  }
  return 0;
}
