// Tests for the relocation local search (Algorithm 1) and its UCPC / MMVar
// wrappers: convergence, objective monotonicity, cluster-count invariants,
// determinism, and recovery of planted structure.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "clustering/cluster_stats.h"
#include "clustering/init.h"
#include "clustering/local_search.h"
#include "clustering/mmvar.h"
#include "clustering/ucpc.h"
#include "common/rng.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"

namespace uclust::clustering {
namespace {

using uncertain::MomentMatrix;

// Planted mixture wrapped in mild Normal uncertainty.
data::UncertainDataset PlantedDataset(std::size_t n, std::size_t m,
                                      int classes, uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  params.sigma_min = 0.02;
  params.sigma_max = 0.04;
  params.min_separation = 0.5;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "planted");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const data::UncertaintyModel model(d, up, seed + 1);
  return model.Uncertain();
}

class LocalSearchObjective : public ::testing::TestWithParam<ObjectiveKind> {
};

TEST_P(LocalSearchObjective, ProducesExactlyKNonEmptyClusters) {
  const auto ds = PlantedDataset(120, 3, 4, 1);
  const MomentMatrix& mm = ds.moments();
  LocalSearchParams params;
  params.objective = GetParam();
  common::Rng rng(2);
  const LocalSearchOutcome out = RunLocalSearch(mm, 4, params, &rng);
  ASSERT_EQ(out.labels.size(), 120u);
  const auto sizes = ClusterSizes(out.labels, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_GT(sizes[c], 0u) << "cluster " << c << " is empty";
  }
  EXPECT_EQ(CountClusters(out.labels), 4);
}

TEST_P(LocalSearchObjective, ObjectiveNeverIncreasesFromInitialPartition) {
  const auto ds = PlantedDataset(80, 2, 3, 3);
  const MomentMatrix& mm = ds.moments();
  common::Rng rng(4);
  std::vector<int> init = RandomPartition(mm.size(), 3, &rng);
  const double before = TotalObjective(GetParam(), mm, init, 3);
  LocalSearchParams params;
  params.objective = GetParam();
  const LocalSearchOutcome out = RunLocalSearchFrom(mm, 3, params, init);
  EXPECT_LE(out.objective, before + 1e-9);
  // Reported objective matches an independent recomputation from labels.
  EXPECT_NEAR(out.objective, TotalObjective(GetParam(), mm, out.labels, 3),
              1e-9 * (1.0 + out.objective));
}

// No single relocation of `labels` strictly improves `kind`'s objective by
// the Corollary 1 closed forms (local optimality, Proposition 4's fixed
// point). Relocations that would empty their source are not moves.
void ExpectOneMoveOptimal(ObjectiveKind kind, const MomentMatrix& mm,
                          const std::vector<int>& labels, int k,
                          double objective) {
  std::vector<ClusterMoments> stats(k, ClusterMoments(mm.dims()));
  for (std::size_t i = 0; i < mm.size(); ++i) stats[labels[i]].Add(mm, i);
  for (std::size_t i = 0; i < mm.size(); ++i) {
    const int src = labels[i];
    if (stats[src].size() <= 1) continue;
    const double j_src = Objective(kind, stats[src]);
    const double j_src_minus = ObjectiveAfterRemove(kind, stats[src], mm, i);
    for (int c = 0; c < k; ++c) {
      if (c == src) continue;
      const double j_c = Objective(kind, stats[c]);
      const double j_c_plus = ObjectiveAfterAdd(kind, stats[c], mm, i);
      const double delta = (j_src_minus + j_c_plus) - (j_src + j_c);
      EXPECT_GE(delta, -1e-7 * (1.0 + objective))
          << "object " << i << " -> cluster " << c;
    }
  }
}

TEST_P(LocalSearchObjective, ConvergedStateIsOneMoveOptimal) {
  const auto ds = PlantedDataset(60, 2, 3, 5);
  const MomentMatrix& mm = ds.moments();
  LocalSearchParams params;
  params.objective = GetParam();
  common::Rng rng(6);
  const LocalSearchOutcome out = RunLocalSearch(mm, 3, params, &rng);
  ExpectOneMoveOptimal(params.objective, mm, out.labels, 3, out.objective);
}

TEST_P(LocalSearchObjective, StartsFromAnEmptyClusterExactly) {
  // {0, 0, 1, 1, 0, 0, ...} with k = 3: cluster 2 starts empty, so the
  // proposal sweep prices moves into it with the s = 0 coefficients (the
  // exact singleton objective, no 0/0).
  const auto ds = PlantedDataset(60, 2, 3, 29);
  const MomentMatrix& mm = ds.moments();
  std::vector<int> init(mm.size());
  for (std::size_t i = 0; i < init.size(); ++i) {
    init[i] = static_cast<int>((i / 2) % 2);
  }
  LocalSearchParams params;
  params.objective = GetParam();
  const LocalSearchOutcome out = RunLocalSearchFrom(mm, 3, params, init);
  ASSERT_TRUE(std::isfinite(out.objective));
  EXPECT_NEAR(out.objective, TotalObjective(GetParam(), mm, out.labels, 3),
              1e-9 * (1.0 + out.objective));
  EXPECT_GT(out.moves, 0);
  ExpectOneMoveOptimal(params.objective, mm, out.labels, 3, out.objective);
}

TEST_P(LocalSearchObjective, DeterministicGivenSeed) {
  const auto ds = PlantedDataset(100, 3, 4, 7);
  const MomentMatrix& mm = ds.moments();
  LocalSearchParams params;
  params.objective = GetParam();
  common::Rng rng_a(11), rng_b(11);
  const auto a = RunLocalSearch(mm, 4, params, &rng_a);
  const auto b = RunLocalSearch(mm, 4, params, &rng_b);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.passes, b.passes);
}

TEST_P(LocalSearchObjective, RespectsMaxPasses) {
  const auto ds = PlantedDataset(200, 4, 5, 9);
  LocalSearchParams params;
  params.objective = GetParam();
  params.max_passes = 1;
  common::Rng rng(10);
  const auto out = RunLocalSearch(ds.moments(), 5, params, &rng);
  EXPECT_LE(out.passes, 1);
}

std::string ObjectiveName(
    const ::testing::TestParamInfo<ObjectiveKind>& param_info) {
  const std::string raw = ObjectiveKindName(param_info.param);
  return raw == "UK-means" ? "UKmeans" : raw;
}

INSTANTIATE_TEST_SUITE_P(AllObjectives, LocalSearchObjective,
                         ::testing::Values(ObjectiveKind::kUcpc,
                                           ObjectiveKind::kMmvar,
                                           ObjectiveKind::kUkmeans),
                         ObjectiveName);

TEST(LocalSearch, KEqualsOneKeepsEverything) {
  const auto ds = PlantedDataset(30, 2, 2, 13);
  LocalSearchParams params;
  common::Rng rng(14);
  const auto out = RunLocalSearch(ds.moments(), 1, params, &rng);
  for (int l : out.labels) EXPECT_EQ(l, 0);
}

TEST(LocalSearch, KEqualsNMakesSingletons) {
  const auto ds = PlantedDataset(12, 2, 2, 15);
  LocalSearchParams params;
  common::Rng rng(16);
  const auto out = RunLocalSearch(ds.moments(), 12, params, &rng);
  const auto sizes = ClusterSizes(out.labels, 12);
  for (auto s : sizes) EXPECT_EQ(s, 1u);
}

TEST(Ucpc, RecoversPlantedClusters) {
  const auto ds = PlantedDataset(240, 3, 3, 17);
  const Ucpc algo;
  const ClusteringResult result = algo.Cluster(ds, 3, 18);
  EXPECT_EQ(result.clusters_found, 3);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), result.labels), 0.9);
  EXPECT_GT(result.iterations, 0);
}

TEST(Ucpc, KernelAgreesWithClustererInterface) {
  const auto ds = PlantedDataset(90, 2, 3, 19);
  const Ucpc algo;
  const ClusteringResult via_interface = algo.Cluster(ds, 3, 20);
  const LocalSearchOutcome via_kernel =
      Ucpc::RunOnMoments(ds.moments(), 3, 20);
  EXPECT_EQ(via_interface.labels, via_kernel.labels);
  EXPECT_DOUBLE_EQ(via_interface.objective, via_kernel.objective);
}

TEST(Ucpc, NameAndDiagnostics) {
  const Ucpc algo;
  EXPECT_EQ(algo.name(), "UCPC");
  const auto ds = PlantedDataset(40, 2, 2, 21);
  const ClusteringResult r = algo.Cluster(ds, 2, 22);
  EXPECT_EQ(r.k_requested, 2);
  EXPECT_GE(r.online_ms, 0.0);
  EXPECT_EQ(r.ed_evaluations, 0);  // closed-form algorithm
}

TEST(Mmvar, RecoversPlantedClusters) {
  const auto ds = PlantedDataset(240, 3, 3, 23);
  const Mmvar algo;
  const ClusteringResult result = algo.Cluster(ds, 3, 24);
  EXPECT_EQ(result.clusters_found, 3);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), result.labels), 0.85);
}

TEST(Mmvar, ObjectiveIsMixtureVarianceSum) {
  const auto ds = PlantedDataset(60, 2, 2, 25);
  const Mmvar algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 26);
  EXPECT_NEAR(r.objective,
              TotalObjective(ObjectiveKind::kMmvar, ds.moments(), r.labels, 2),
              1e-9 * (1.0 + r.objective));
}

TEST(UcpcVsMmvar, ObjectivesDisagreeInGeneral) {
  // Although J_MM is proportional to J_UK per cluster, the *sums* over a
  // clustering weight clusters differently, so the two algorithms are not
  // the same algorithm. Sanity check: on a dataset with heavy variance
  // structure the final partitions typically differ for at least one seed.
  const auto ds = PlantedDataset(150, 2, 3, 27);
  bool differ = false;
  for (uint64_t seed = 0; seed < 5 && !differ; ++seed) {
    const auto u = Ucpc::RunOnMoments(ds.moments(), 3, seed);
    const auto m = Mmvar::RunOnMoments(ds.moments(), 3, seed);
    differ = u.labels != m.labels;
  }
  SUCCEED();  // structural smoke check; equality is permitted but unlikely
}

}  // namespace
}  // namespace uclust::clustering
