// Tests for the CK-means fast path (clustering/ckmeans.h): reduction and
// bound pruning must reproduce the direct UK-means sweeps
// (Ukmeans::RunOnMoments) bit-for-bit on every moment backend, the
// maintained bounds must actually bound, the evaluation counters must
// satisfy their accounting contract, and CkMeans::ClusterFile must match the
// fully ingested run under any memory budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/registry.h"
#include "clustering/ukmeans.h"
#include "common/math_utils.h"
#include "data/benchmark_gen.h"
#include "data/synthetic_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "io/moment_file.h"

namespace uclust::clustering {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "ckmeans");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

engine::Engine EngineWith(int threads, std::size_t budget = 0) {
  engine::EngineConfig config;
  config.num_threads = threads;
  config.block_size = 128;
  config.memory_budget_bytes = budget;
  return engine::Engine(config);
}

// ---------------------------------------------------------------------------
// Reduction layer.

TEST(CkmeansReduction, CopiesMeansAndConstantsExactly) {
  const auto ds = TestDataset(200, 4, 3, 21);
  const auto mm = ds.moments().view();
  const ReducedMoments red = CkmeansReduce(EngineWith(4), mm);
  ASSERT_EQ(red.n, mm.size());
  ASSERT_EQ(red.m, mm.dims());
  const auto view = red.view();
  for (std::size_t i = 0; i < red.n; ++i) {
    const auto a = mm.mean(i);
    const auto b = view.mean(i);
    ASSERT_EQ(std::vector<double>(a.begin(), a.end()),
              std::vector<double>(b.begin(), b.end())) << "object " << i;
    ASSERT_EQ(mm.total_variance(i), view.total_variance(i)) << "object " << i;
  }
}

TEST(CkmeansReduction, MatchesDirectOnChunkedMappedBackend) {
  // Write the moments into a .umom with tiny chunks, reopen through the
  // Mapped backend, and check both the reduction copy and the clustering
  // outcome are bit-identical to the flat view.
  const auto ds = TestDataset(300, 4, 4, 23);
  const auto flat = ds.moments().view();
  const std::string sidecar = TempPath("ckmeans_chunked.umom");
  ASSERT_TRUE(io::WriteMomentFile(flat, sidecar, /*chunk_rows=*/8).ok());
  auto store = io::MappedMomentStore::Open(sidecar);
  ASSERT_TRUE(store.ok());
  const auto mapped = store.ValueOrDie()->view();

  const auto direct = Ukmeans::RunOnMoments(flat, 4, 5, Ukmeans::Params(),
                                            EngineWith(1));
  for (int threads : kThreadCounts) {
    CkMeans::Params p;
    const auto out =
        CkMeans::RunOnMoments(mapped, 4, 5, p, EngineWith(threads));
    EXPECT_EQ(out.labels, direct.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, direct.objective) << "threads=" << threads;
    EXPECT_EQ(out.iterations, direct.iterations) << "threads=" << threads;
  }
  std::remove(sidecar.c_str());
}

// ---------------------------------------------------------------------------
// Bit-identity against the direct reference.

TEST(Ckmeans, MatchesDirectPathAtEveryThreadCount) {
  const auto ds = TestDataset(500, 3, 4, 25);
  const auto mm = ds.moments().view();
  const auto direct =
      Ukmeans::RunOnMoments(mm, 4, 9, Ukmeans::Params(), EngineWith(1));
  for (int threads : kThreadCounts) {
    const auto out =
        CkMeans::RunOnMoments(mm, 4, 9, CkMeans::Params(), EngineWith(threads));
    EXPECT_EQ(out.labels, direct.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, direct.objective) << "threads=" << threads;
    EXPECT_EQ(out.iterations, direct.iterations) << "threads=" << threads;
    EXPECT_LT(out.center_distance_evals, direct.center_distance_evals)
        << "threads=" << threads;
  }
}

TEST(Ckmeans, PlusPlusSeedingMatchesDirectPath) {
  const auto ds = TestDataset(400, 3, 4, 27);
  const auto mm = ds.moments().view();
  Ukmeans::Params dp;
  dp.init = InitStrategy::kPlusPlus;
  const auto direct = Ukmeans::RunOnMoments(mm, 4, 11, dp, EngineWith(1));
  CkMeans::Params p;
  p.init = InitStrategy::kPlusPlus;
  const auto out = CkMeans::RunOnMoments(mm, 4, 11, p, EngineWith(2));
  EXPECT_EQ(out.labels, direct.labels);
  EXPECT_EQ(out.objective, direct.objective);
  EXPECT_EQ(out.iterations, direct.iterations);
}

// ---------------------------------------------------------------------------
// Bound invariants and counter accounting.

TEST(Ckmeans, MaintainedBoundsActuallyBound) {
  const auto ds = TestDataset(300, 3, 4, 29);
  const auto mm = ds.moments().view();
  int audits = 0;
  CkMeans::Params p;
  p.bound_audit = [&](int iteration, std::span<const double> centroids,
                      std::span<const int> labels,
                      std::span<const double> upper,
                      std::span<const double> lower) {
    ASSERT_FALSE(upper.empty());
    ASSERT_FALSE(lower.empty());
    const std::size_t m = mm.dims();
    const int k = static_cast<int>(centroids.size() / m);
    for (std::size_t i = 0; i < mm.size(); ++i) {
      const auto mean = mm.mean(i);
      double assigned = 0.0;
      double min_other = std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const double d = std::sqrt(common::SquaredDistance(
            mean, std::span<const double>(centroids.data() + c * m, m)));
        if (c == labels[i]) {
          assigned = d;
        } else {
          min_other = std::min(min_other, d);
        }
      }
      // The loosened bounds must still bracket the true distances (the
      // 1e-9 headroom only covers this test's own recomputation error).
      ASSERT_GE(upper[i], assigned - 1e-9)
          << "iter " << iteration << " object " << i;
      ASSERT_LE(lower[i], min_other + 1e-9)
          << "iter " << iteration << " object " << i;
    }
    ++audits;
  };
  (void)CkMeans::RunOnMoments(mm, 4, 13, p, EngineWith(2));
  EXPECT_GT(audits, 0);
}

TEST(Ckmeans, CountersSatisfyAccountingContract) {
  const auto ds = TestDataset(600, 3, 5, 31);
  const auto mm = ds.moments().view();
  const int64_t n = static_cast<int64_t>(mm.size());
  const int k = 5;

  // Sweeps actually run: iterations + 1 on a converged run (the final
  // no-change sweep executes before the loop breaks), iterations at the cap.
  const auto expected_slots = [&](int iterations, int max_iters) {
    const int sweeps = iterations < max_iters ? iterations + 1 : iterations;
    return static_cast<int64_t>(sweeps) * n * k;
  };

  // Direct reference: counts every pair every sweep.
  const auto direct =
      Ukmeans::RunOnMoments(mm, k, 15, Ukmeans::Params(), EngineWith(2));
  EXPECT_EQ(direct.center_distance_evals,
            expected_slots(direct.iterations, Ukmeans::Params().max_iters));

  CkMeans::Params on;
  const auto bounded = CkMeans::RunOnMoments(mm, k, 15, on, EngineWith(2));
  EXPECT_EQ(bounded.iterations, direct.iterations);
  EXPECT_EQ(bounded.center_distance_evals + bounded.bounds_skipped,
            expected_slots(bounded.iterations, on.max_iters));
  EXPECT_LT(bounded.center_distance_evals, direct.center_distance_evals);
  EXPECT_GT(bounded.bounds_skipped, 0);
  // The bounded run's total accounts for exactly the direct run's slots.
  EXPECT_EQ(bounded.center_distance_evals + bounded.bounds_skipped,
            direct.center_distance_evals);
}

TEST(Ckmeans, CountersMonotoneInIterationCap) {
  const auto ds = TestDataset(400, 3, 4, 33);
  const auto mm = ds.moments().view();
  int64_t prev_evals = 0;
  int64_t prev_total = 0;
  for (const int cap : {1, 2, 4, 8}) {
    CkMeans::Params p;
    p.max_iters = cap;
    const auto out = CkMeans::RunOnMoments(mm, 4, 17, p, EngineWith(2));
    const int64_t total = out.center_distance_evals + out.bounds_skipped;
    EXPECT_GE(out.center_distance_evals, prev_evals) << "cap=" << cap;
    EXPECT_GE(total, prev_total) << "cap=" << cap;
    prev_evals = out.center_distance_evals;
    prev_total = total;
  }
}

// ---------------------------------------------------------------------------
// Ukmeans::Cluster routing and the registry entry.

TEST(Ckmeans, UkmeansClusterRunsFastPathWithDirectResults) {
  const auto ds = TestDataset(500, 3, 4, 35);
  const auto direct = Ukmeans::RunOnMoments(
      ds.moments().view(), 4, 19, Ukmeans::Params(), EngineWith(1));

  Ukmeans fast_algo;
  fast_algo.set_engine(EngineWith(2));
  const ClusteringResult fast = fast_algo.Cluster(ds, 4, 19);

  EXPECT_EQ(fast.labels, direct.labels);
  EXPECT_EQ(fast.objective, direct.objective);
  EXPECT_EQ(fast.iterations, direct.iterations);
  EXPECT_LT(fast.center_distance_evals, direct.center_distance_evals);
  EXPECT_GT(fast.bounds_skipped, 0);
  EXPECT_EQ(fast.center_distance_evals + fast.bounds_skipped,
            direct.center_distance_evals);
}

TEST(Ckmeans, RegistryEntryMatchesUkmeans) {
  const auto ds = TestDataset(300, 3, 3, 37);
  auto ck = MakeClusterer("CK-means");
  ASSERT_TRUE(ck.ok());
  const ClusteringResult a = ck.ValueOrDie()->Cluster(ds, 3, 21);
  const ClusteringResult b = Ukmeans().Cluster(ds, 3, 21);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
}

// ---------------------------------------------------------------------------
// CkMeans::ClusterFile: resident reduction under a budget it fits, epoch
// streaming under one it does not.

struct FileFixture {
  std::string path;
  std::size_t reduced_bytes = 0;  // (m + 1) * n doubles
  Ukmeans::Outcome direct;  // reference over the fully ingested file
  CkMeans::Outcome bounded;  // the same, through the bounded kernel
  int k = 4;
  uint64_t seed = 23;
};

FileFixture MakeFileFixture(std::size_t n, std::size_t m) {
  FileFixture f;
  f.path = TempPath("ckmeans_stream_" + std::to_string(n) + "x" +
                    std::to_string(m) + ".ubin");
  f.reduced_bytes = (m + 1) * n * sizeof(double);
  data::SyntheticGenParams gp;
  gp.n = n;
  gp.m = m;
  gp.classes = 4;
  gp.seed = 97;
  EXPECT_TRUE(data::WriteSyntheticDataset(gp, f.path, "stream").ok());
  auto store = io::StreamMomentStoreFromFile(f.path);
  EXPECT_TRUE(store.ok());
  // Same block size as EngineWith: the objective's blocked summation order
  // is part of the determinism contract (fixed partition, any threads).
  const uncertain::MomentView mm = store.ValueOrDie()->view();
  f.direct = Ukmeans::RunOnMoments(mm, f.k, f.seed, Ukmeans::Params(),
                                   EngineWith(1));
  f.bounded = CkMeans::RunOnMoments(mm, f.k, f.seed, CkMeans::Params(),
                                    EngineWith(1));
  return f;
}

void ExpectMatchesIngestedRun(const FileFixture& f,
                              const ClusteringResult& out,
                              const std::string& label) {
  EXPECT_EQ(out.labels, f.direct.labels) << label;
  EXPECT_EQ(out.objective, f.direct.objective) << label;
  EXPECT_EQ(out.iterations, f.direct.iterations) << label;
  EXPECT_EQ(out.center_distance_evals, f.bounded.center_distance_evals)
      << label;
  EXPECT_EQ(out.bounds_skipped, f.bounded.bounds_skipped) << label;
}

TEST(CkmeansClusterFile, ResidentWhenTheReductionFitsTheBudget) {
  const FileFixture f = MakeFileFixture(600, 6);
  for (const std::size_t budget : {std::size_t{0}, f.reduced_bytes}) {
    for (int threads : kThreadCounts) {
      auto r = CkMeans::ClusterFile(f.path, f.k, f.seed, CkMeans::Params(),
                                    EngineWith(threads, budget));
      const std::string label = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      ASSERT_TRUE(r.ok()) << label;
      ExpectMatchesIngestedRun(f, r.ValueOrDie(), label);
    }
  }
  std::remove(f.path.c_str());
}

TEST(CkmeansClusterFile, EpochBatchRowsFitTheBudget) {
  const std::size_t row_bytes = (3 * 6 + 1) * sizeof(double);
  EXPECT_EQ(CkMeans::EpochBatchRows(6, 0), io::kDefaultBatchSize);
  EXPECT_EQ(CkMeans::EpochBatchRows(6, 1), 1u);
  EXPECT_EQ(CkMeans::EpochBatchRows(6, 2 * row_bytes - 1), 1u);
  EXPECT_EQ(CkMeans::EpochBatchRows(6, 37 * row_bytes + 5), 37u);
  EXPECT_EQ(CkMeans::EpochBatchRows(6, std::size_t{1} << 40),
            io::kDefaultBatchSize);
}

// Every budget below the reduction streams epochs; the budgets are chosen
// so the derived batch takes 1 row, non-powers of two and the
// kDefaultBatchSize cap. Results match the ingested run exactly.
TEST(CkmeansClusterFile, EveryBudgetDerivedBatchMatchesIngestedRun) {
  struct Case {
    std::size_t n, m, batch;
  };
  for (const Case c : {Case{600, 6, 1}, Case{600, 6, 37},
                       Case{10000, 2, 1000},
                       Case{10000, 2, io::kDefaultBatchSize}}) {
    const FileFixture f = MakeFileFixture(c.n, c.m);
    const std::size_t budget = c.batch * (3 * c.m + 1) * sizeof(double);
    ASSERT_LT(budget, f.reduced_bytes);
    ASSERT_EQ(CkMeans::EpochBatchRows(c.m, budget), c.batch);
    for (int threads : {1, 8}) {
      auto r = CkMeans::ClusterFile(f.path, f.k, f.seed, CkMeans::Params(),
                                    EngineWith(threads, budget));
      const std::string label = "n=" + std::to_string(c.n) +
                                " batch=" + std::to_string(c.batch) +
                                " threads=" + std::to_string(threads);
      ASSERT_TRUE(r.ok()) << label;
      ExpectMatchesIngestedRun(f, r.ValueOrDie(), label);
    }
    std::remove(f.path.c_str());
  }
}

TEST(CkmeansClusterFile, RejectsPlusPlusInEpochMode) {
  const std::string path = TempPath("ckmeans_pp_reject.ubin");
  data::SyntheticGenParams gp;
  gp.n = 100;
  gp.m = 3;
  gp.classes = 2;
  ASSERT_TRUE(data::WriteSyntheticDataset(gp, path, "pp").ok());
  CkMeans::Params p;
  p.init = InitStrategy::kPlusPlus;
  // A budget below the (3 + 1) * 100-double reduction selects epoch
  // streaming.
  const auto r = CkMeans::ClusterFile(path, 2, 1, p, EngineWith(1, 1024));
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uclust::clustering
