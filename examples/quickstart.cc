// Quickstart: build a handful of uncertain objects by hand, cluster them
// with UCPC, and inspect the result.
//
//   $ ./quickstart
//
// Walks through the four core concepts of the library:
//   1. an UncertainObject = per-dimension pdfs over a box region,
//   2. the UCPC clusterer behind the shared Clusterer interface,
//   3. expected distances and the closed-form objective,
//   4. the execution engine (thread count is a config knob; results are
//      bit-identical for any number of threads).
#include <cstdio>
#include <vector>

#include "clustering/ucpc.h"
#include "common/cli.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "uncertain/expected_distance.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

int main(int argc, char** argv) {
  uclust::common::ArgParser(argc, argv).RejectUnknownFlags();  // takes none
  using uclust::uncertain::PdfPtr;
  using uclust::uncertain::TruncatedNormalPdf;
  using uclust::uncertain::UncertainObject;
  using uclust::uncertain::UniformPdf;

  // Two groups of 2-D uncertain objects: sensors near (0, 0) with Normal
  // noise and sensors near (5, 5) with Uniform noise.
  std::vector<UncertainObject> objects;
  const double centers[][2] = {{0.0, 0.2}, {0.3, -0.1}, {-0.2, 0.1},
                               {5.0, 5.1}, {5.2, 4.9},  {4.8, 5.0}};
  for (int i = 0; i < 6; ++i) {
    std::vector<PdfPtr> dims;
    for (int j = 0; j < 2; ++j) {
      if (i < 3) {
        dims.push_back(TruncatedNormalPdf::Make(centers[i][j], 0.3));
      } else {
        dims.push_back(UniformPdf::Centered(centers[i][j], 0.4));
      }
    }
    objects.emplace_back(std::move(dims));
  }

  // Wrap them in a dataset (labels optional) and cluster with UCPC. The
  // engine is optional — the default is serial — and changing num_threads
  // never changes the labels or the objective.
  const uclust::data::UncertainDataset dataset("quickstart",
                                               std::move(objects), {}, 0);
  uclust::engine::EngineConfig engine_config;
  engine_config.num_threads = 0;  // 0 = all hardware threads
  uclust::clustering::Ucpc ucpc;
  ucpc.set_engine(uclust::engine::Engine(engine_config));
  const uclust::clustering::ClusteringResult result =
      ucpc.Cluster(dataset, /*k=*/2, /*seed=*/42);

  std::printf("UCPC clustered %zu objects into %d clusters "
              "(objective %.4f, %d passes)\n",
              dataset.size(), result.clusters_found, result.objective,
              result.iterations);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& o = dataset.object(i);
    std::printf("  object %zu: mean=(%.2f, %.2f) sigma2=%.3f -> cluster %d\n",
                i, o.mean()[0], o.mean()[1], o.total_variance(),
                result.labels[i]);
  }

  // Expected distances come in closed form (Lemma 3 / Eq. 8 of the paper).
  const double cross = uclust::uncertain::ExpectedSquaredDistance(
      dataset.object(0), dataset.object(3));
  const double within = uclust::uncertain::ExpectedSquaredDistance(
      dataset.object(0), dataset.object(1));
  std::printf("ED^(o0, o3) = %.3f (across groups), ED^(o0, o1) = %.3f "
              "(within group)\n",
              cross, within);
  return 0;
}
