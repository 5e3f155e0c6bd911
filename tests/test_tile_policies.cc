// Workload-aware PairwiseStore tile-policy contract: asymmetric gather
// blocks serve the same bits the dense table holds, the gather-tile
// UK-medoids swap sweep is clustering-identical to the dense full sweep
// below the full-sweep kernel-evaluation floor, the warm-row cache obeys
// its hit/miss counters and generation/invalidation protocol under the
// memory budget, the column-pruned FDBSCAN sweep serves the unpruned
// sweep's exact values while skipping pairs whose distance probability is
// provably 0, and the spatial-index-fed candidate sweep serves the pruned
// sweep's exact values with the same evaluated/pruned split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "clustering/fdbscan.h"
#include "clustering/pairwise_store.h"
#include "clustering/pruning.h"
#include "clustering/spatial_index.h"
#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "uncertain/sample_store.h"
#include "uncertain/uniform_pdf.h"

namespace uclust::clustering {
namespace {

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed,
                                   double min_separation = 0.25) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  params.min_separation = min_separation;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "tile-policies");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

PairwiseStoreOptions Explicit(PairwiseBackend backend, std::size_t tile_rows,
                              std::size_t max_tiles, bool warm_rows,
                              std::size_t warm_capacity) {
  PairwiseStoreOptions o;
  o.backend = backend;
  o.tile_rows = tile_rows;
  o.max_cached_tiles = max_tiles;
  o.warm_rows = warm_rows;
  o.warm_capacity_bytes = warm_capacity;
  return o;
}

engine::Engine BudgetEngine(std::size_t budget) {
  engine::EngineConfig config;
  config.num_threads = 1;
  config.block_size = 32;
  config.memory_budget_bytes = budget;
  return engine::Engine(config);
}

// Strict upper-triangle tails, row by row, as a sweep visits them.
using Tails = std::vector<std::vector<double>>;

PairwiseStore::UpperVisitor CollectInto(Tails* tails) {
  return [tails](std::size_t i, std::span<const double> tail) {
    (*tails)[i].assign(tail.begin(), tail.end());
  };
}

// Per-row candidate columns j > i from SpatialIndex::QueryWithin at the
// slacked eps^2 threshold: the lists FDBSCAN's indexed sweep is fed.
std::vector<std::vector<std::size_t>> IndexCandidates(
    const data::UncertainDataset& ds, double eps) {
  const SpatialIndex index(ds.objects());
  const double threshold2 = SlackedSquaredThreshold(eps * eps);
  std::vector<std::vector<std::size_t>> cands(ds.size());
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    index.QueryWithin(ds.object(i).region(), threshold2, i, &hits);
    cands[i].assign(std::upper_bound(hits.begin(), hits.end(), i),
                    hits.end());
  }
  return cands;
}

// The store-level reference FDBSCAN's pairwise sweep must reproduce: the
// all-pairs PairwiseBoundIndex predicate sweep (VisitUpperTriangle with
// ProvablyBeyond) over the distance-probability kernel of the same samples,
// on the backend `budget` selects. No spatial index is involved.
struct PredicateSweep {
  Tails tails;
  int64_t evaluations = 0;
  int64_t pruned = 0;
  int64_t ed_evaluations = 0;
};

PredicateSweep PredicateSweepReference(const data::UncertainDataset& ds,
                                       const Fdbscan::Params& fp,
                                       std::size_t budget) {
  const engine::Engine eng;
  const uncertain::ResidentSampleStore samples(ds.objects(), fp.samples,
                                               fp.sample_seed, eng);
  const PairwiseBoundIndex bounds(ds.objects());
  PairwiseStore store(
      eng, kernels::PairwiseKernel::DistanceProbability(samples.view(), fp.eps),
      PairwiseStoreOptions::FromBudget(budget, ds.size()));
  PredicateSweep ref;
  ref.tails.resize(ds.size());
  store.VisitUpperTriangle(CollectInto(&ref.tails),
                           [&](std::size_t i, std::size_t j) {
                             return bounds.ProvablyBeyond(i, j, fp.eps);
                           });
  ref.evaluations = store.evaluations();
  ref.pruned = store.pruned_pairs();
  ref.ed_evaluations = store.ed_evaluations();
  return ref;
}

std::vector<double> CollectSymmetricBlock(PairwiseStore* store,
                                          std::span<const std::size_t> ids) {
  std::vector<double> block(ids.size() * ids.size(), -1.0);
  store->VisitSymmetricBlock(
      ids, [&](std::size_t a, std::span<const double> row) {
        for (std::size_t b = 0; b < row.size(); ++b) {
          block[a * ids.size() + b] = row[b];
        }
      });
  return block;
}

TEST(TilePolicies, VisitSymmetricBlockMatchesDenseReference) {
  const auto ds = TestDataset(57, 3, 3, 101);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  PairwiseStore reference(eng, kernel,
                          Explicit(PairwiseBackend::kDense, 0, 0, false, 0));

  // Every other object — an id set crossing several tiles.
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < n; i += 2) ids.push_back(i);

  for (PairwiseBackend backend :
       {PairwiseBackend::kDense, PairwiseBackend::kTiled,
        PairwiseBackend::kOnTheFly}) {
    const bool warm = backend == PairwiseBackend::kTiled;
    PairwiseStore store(
        eng, kernel,
        Explicit(backend, 5, 2, warm, warm ? 8 * n * sizeof(double) : 0));
    // Seed the warm cache / resident tiles so the block mixes served rows
    // (copied and mirrored) with computed rows.
    std::vector<double> seeded;
    store.GatherRows(std::vector<std::size_t>{ids[1], ids[3]}, &seeded);
    if (backend == PairwiseBackend::kTiled) store.Row(ids[0]);

    const std::vector<double> block = CollectSymmetricBlock(&store, ids);
    for (std::size_t a = 0; a < ids.size(); ++a) {
      for (std::size_t b = 0; b < ids.size(); ++b) {
        ASSERT_EQ(block[a * ids.size() + b],
                  reference.Value(ids[a], ids[b]))
            << PairwiseBackendName(backend) << " " << a << "," << b;
      }
    }
  }
}

// A budget too small to hold the whole |ids| x |ids| slab must stream
// bounded row stripes — same values, scratch within the one-block-row
// floor, never an O(|ids|^2) allocation inside the store.
TEST(TilePolicies, VisitSymmetricBlockStripesOversizedBlocks) {
  const auto ds = TestDataset(90, 2, 2, 131);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  PairwiseStore reference(eng, kernel,
                          Explicit(PairwiseBackend::kDense, 0, 0, false, 0));

  std::vector<std::size_t> ids(n);  // the worst case: one giant cluster
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;

  // Budget of ~3 block rows: far below the n x n slab, so the visit must
  // stripe. Warm cache off to pin the expected evaluation count.
  PairwiseStoreOptions o = Explicit(PairwiseBackend::kTiled, 4, 1, false, 0);
  o.memory_budget_bytes = 3 * n * sizeof(double);
  PairwiseStore store(eng, kernel, o);
  const std::vector<double> block = CollectSymmetricBlock(&store, ids);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      ASSERT_EQ(block[a * n + b], reference.Value(a, b)) << a << "," << b;
    }
  }
  // Scratch stayed within the budget (stripes, not the whole slab).
  EXPECT_LE(store.table_bytes_peak(),
            o.memory_budget_bytes + 4 * n * sizeof(double));  // + tile LRU
}

// The gather-tile swap sweep of the recomputing backends must reproduce the
// dense full-sweep clustering bit-for-bit while evaluating fewer pairs than
// a full-table swap sweep would: n * (n - 1) per iteration.
TEST(TilePolicies, UkMedoidsGatherPolicyBitIdenticalWithFewerEvaluations) {
  const auto ds = TestDataset(120, 3, 3, 103);
  const int64_t n = static_cast<int64_t>(ds.size());
  const std::size_t row_bytes = ds.size() * sizeof(double);

  UkMedoids::Params mp;
  mp.use_closed_form = true;
  const auto run = [&](std::size_t budget) {
    UkMedoids algo(mp);
    algo.set_engine(BudgetEngine(budget));
    return algo.Cluster(ds, 3, 7);
  };

  const ClusteringResult dense = run(0);
  ASSERT_EQ(dense.pairwise_backend, "dense");
  for (const std::size_t budget : {12 * row_bytes, std::size_t{1}}) {
    const ClusteringResult gathered = run(budget);
    EXPECT_NE(gathered.pairwise_backend, "dense") << "budget=" << budget;
    EXPECT_EQ(gathered.labels, dense.labels) << "budget=" << budget;
    EXPECT_EQ(gathered.iterations, dense.iterations) << "budget=" << budget;
    EXPECT_EQ(gathered.objective, dense.objective) << "budget=" << budget;
    EXPECT_LT(gathered.pair_evaluations, gathered.iterations * n * (n - 1))
        << "budget=" << budget;
  }
}

TEST(TilePolicies, WarmRowCountersAndGenerationInvalidation) {
  const auto ds = TestDataset(48, 2, 2, 107);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  PairwiseStoreOptions options =
      Explicit(PairwiseBackend::kTiled, 8, 1, true, 4 * n * sizeof(double));
  options.warm_retain_generations = 2;
  PairwiseStore store(eng, kernel, options);

  std::vector<double> row;
  store.GatherRow(40, &row);  // outside any resident tile: computed
  EXPECT_EQ(store.warm_misses(), 1);
  EXPECT_EQ(store.warm_hits(), 0);

  store.GatherRow(40, &row);  // retained: a warm hit, no new evaluations
  const int64_t evals_after_first = store.evaluations();
  EXPECT_EQ(store.warm_hits(), 1);
  EXPECT_EQ(store.warm_misses(), 1);
  EXPECT_EQ(store.evaluations(), evals_after_first);

  // Within the retention window the row stays warm.
  store.BeginGeneration();
  store.GatherRow(40, &row);
  EXPECT_EQ(store.warm_hits(), 2);
  EXPECT_EQ(store.warm_misses(), 1);

  // Untouched past the retention window: invalidated at generation start.
  store.BeginGeneration();
  store.BeginGeneration();
  store.BeginGeneration();
  store.GatherRow(40, &row);
  EXPECT_EQ(store.warm_hits(), 2);
  EXPECT_EQ(store.warm_misses(), 2);

  // Explicit invalidation drops the row immediately.
  store.InvalidateWarmRows();
  EXPECT_EQ(store.warm_bytes(), std::size_t{0});
  store.GatherRow(40, &row);
  EXPECT_EQ(store.warm_misses(), 3);

  // Counters only ever grow (monotonicity is what makes them per-phase
  // differences meaningful in ClusteringResult).
  EXPECT_GE(store.warm_hits(), 2);
  EXPECT_GE(store.warm_misses(), 3);
}

TEST(TilePolicies, WarmCacheEvictsWithinItsCapacityAndBudget) {
  const auto ds = TestDataset(64, 2, 2, 109);
  const std::size_t n = ds.size();
  const std::size_t row_bytes = n * sizeof(double);
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());

  // Budget-derived tiled store: tile LRU + warm cache must fit the budget.
  const std::size_t budget = 12 * row_bytes;
  PairwiseStore store(eng, kernel,
                      PairwiseStoreOptions::FromBudget(budget, n));
  ASSERT_EQ(store.backend(), PairwiseBackend::kTiled);
  ASSERT_TRUE(store.options().warm_rows);
  std::vector<double> row;
  for (std::size_t i = 0; i < n; ++i) {
    store.GatherRow(i, &row);
    EXPECT_LE(store.warm_bytes(), store.options().warm_capacity_bytes);
  }
  store.VisitAllRows([](std::size_t, std::span<const double>) {});
  EXPECT_LE(store.table_bytes_peak(), budget);

  // A warm capacity below one row disables the policy instead of thrashing.
  PairwiseStore tiny(eng, kernel,
                     Explicit(PairwiseBackend::kTiled, 4, 2, true,
                              row_bytes - 1));
  EXPECT_FALSE(tiny.options().warm_rows);
}

// Pruned sweep contract on a separable dataset: the FDBSCAN distance-
// probability sweep with the PairwiseBoundIndex predicate serves, tail for
// tail, the values of the un-predicated sweep over the same kernel, and
// every pair is accounted as either evaluated or pruned. FDBSCAN itself
// must report that predicate sweep's evaluated/pruned split.
TEST(TilePolicies, FdbscanPrunedSweepBitIdenticalWithFewerEvaluations) {
  const auto ds = TestDataset(150, 2, 3, 113, /*min_separation=*/0.45);
  const std::size_t n = ds.size();
  const int64_t all_pairs =
      static_cast<int64_t>(n) * static_cast<int64_t>(n - 1) / 2;

  Fdbscan::Params fp;
  fp.eps = 0.08;  // well below the class separation: cross-class pairs prune
  const engine::Engine eng;
  const uncertain::ResidentSampleStore samples(ds.objects(), fp.samples,
                                               fp.sample_seed, eng);
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::DistanceProbability(samples.view(), fp.eps);

  const std::size_t row_bytes = n * sizeof(double);
  for (const std::size_t budget : {std::size_t{0}, 10 * row_bytes}) {
    PairwiseStore plain_store(eng, kernel,
                              PairwiseStoreOptions::FromBudget(budget, n));
    Tails plain(n);
    plain_store.VisitUpperTriangle(CollectInto(&plain));
    const PredicateSweep pruned = PredicateSweepReference(ds, fp, budget);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(pruned.tails[i], plain[i])
          << "row " << i << " budget=" << budget;
    }
    EXPECT_EQ(plain_store.evaluations(), all_pairs) << "budget=" << budget;
    EXPECT_GT(pruned.pruned, 0) << "budget=" << budget;
    EXPECT_EQ(pruned.evaluations + pruned.pruned, all_pairs)
        << "budget=" << budget;

    Fdbscan algo(fp);
    algo.set_engine(BudgetEngine(budget));
    const ClusteringResult r = algo.Cluster(ds, 3, 17);
    EXPECT_EQ(r.pair_evaluations, pruned.evaluations) << "budget=" << budget;
    EXPECT_EQ(r.pairs_pruned, pruned.pruned) << "budget=" << budget;
  }
}

// The index-fed candidate sweep against the all-pairs predicate sweep, at
// store level on every backend: candidates from SpatialIndex::QueryWithin,
// filtered by the same predicate, must serve bit-identical tails and the
// same evaluated/pruned split. This is the exactness FDBSCAN's indexed
// sweep rests on.
TEST(TilePolicies, IndexedCandidateSweepMatchesPredicateSweep) {
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    const auto ds = TestDataset(150, m, 3, 151 + m, /*min_separation=*/0.45);
    const std::size_t n = ds.size();
    Fdbscan::Params fp;
    // Distances grow like sqrt(m): scaling eps with them keeps within-class
    // neighbors at every m while cross-class pairs still prune.
    fp.eps = 0.08 * std::sqrt(static_cast<double>(m) / 2.0);
    const engine::Engine eng;
    const uncertain::ResidentSampleStore samples(ds.objects(), fp.samples,
                                                 fp.sample_seed, eng);
    const kernels::PairwiseKernel kernel =
        kernels::PairwiseKernel::DistanceProbability(samples.view(), fp.eps);
    const PairwiseBoundIndex bounds(ds.objects());
    const auto cands = IndexCandidates(ds, fp.eps);

    const std::size_t row_bytes = n * sizeof(double);
    // Dense, tiled (~10 rows), and on-the-fly (below one row).
    for (const std::size_t budget :
         {std::size_t{0}, 10 * row_bytes, std::size_t{1}}) {
      const PredicateSweep want = PredicateSweepReference(ds, fp, budget);
      PairwiseStore indexed(eng, kernel,
                            PairwiseStoreOptions::FromBudget(budget, n));
      Tails got(n);
      indexed.VisitUpperTriangleCandidates(
          CollectInto(&got),
          [&](std::size_t i) {
            return std::span<const std::size_t>(cands[i]);
          },
          [&](std::size_t i, std::size_t j) {
            return bounds.ProvablyBeyond(i, j, fp.eps);
          });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want.tails[i])
            << "row " << i << " m=" << m << " budget=" << budget;
      }
      EXPECT_EQ(indexed.evaluations(), want.evaluations)
          << "m=" << m << " budget=" << budget;
      EXPECT_EQ(indexed.pruned_pairs(), want.pruned)
          << "m=" << m << " budget=" << budget;
      // Both sides did real work and real pruning.
      EXPECT_GT(want.evaluations, 0) << "m=" << m;
      EXPECT_GT(want.pruned, 0) << "m=" << m;
    }
  }
}

// Zero-radius (Dirac) and degenerate-box pairs: the bound must be the EXACT
// squared center distance — the sqrt/re-square round trip of the radius
// bound can overshoot by ulps and would turn a valid lower bound into an
// invalid one at the eps boundary.
TEST(TilePolicies, PairwiseBoundIndexExactOnZeroRadiusPairs) {
  // Coordinates chosen so sqrt(d2) is irrational: the round trip through
  // sqrt is where the historical overshoot lived.
  const std::vector<std::vector<double>> points = {
      {0.1, 0.2}, {0.4, 0.7}, {-0.3, 0.55}, {0.1, 0.2}};
  std::vector<uncertain::UncertainObject> objects;
  for (const auto& p : points) {
    objects.push_back(uncertain::UncertainObject::Deterministic(p));
  }
  const PairwiseBoundIndex bounds(objects);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (std::size_t j = i + 1; j < objects.size(); ++j) {
      double d2 = 0.0;
      for (std::size_t m = 0; m < points[i].size(); ++m) {
        const double diff = points[i][m] - points[j][m];
        d2 += diff * diff;
      }
      EXPECT_EQ(bounds.MinSquaredDistance(i, j), d2) << i << "," << j;
      // ProvablyBeyond decides on the exact center distance: beyond for any
      // eps below the true distance, not beyond at or above it.
      const double dist = std::sqrt(d2);
      if (d2 > 0.0) {
        EXPECT_TRUE(bounds.ProvablyBeyond(i, j, dist * 0.999999));
      }
      EXPECT_FALSE(bounds.ProvablyBeyond(i, j, dist));
      EXPECT_FALSE(bounds.ProvablyBeyond(i, j, dist * 1.000001));
    }
  }
  // The coincident Dirac pair: exact zero, never provably beyond.
  EXPECT_EQ(bounds.MinSquaredDistance(0, 3), 0.0);
  EXPECT_FALSE(bounds.ProvablyBeyond(0, 3, 0.0));
}

// A mixed pair (one degenerate box, one fat box) must stay a valid lower
// bound and agree with the exact box-box separation.
TEST(TilePolicies, PairwiseBoundIndexMixedDegeneratePairs) {
  std::vector<uncertain::UncertainObject> objects;
  objects.push_back(
      uncertain::UncertainObject::Deterministic(std::vector<double>{0.0, 0.0}));
  std::vector<uncertain::PdfPtr> dims;
  dims.push_back(uncertain::UniformPdf::Centered(1.0, 0.25));
  dims.push_back(uncertain::UniformPdf::Centered(0.0, 0.25));
  objects.emplace_back(std::move(dims));
  const PairwiseBoundIndex bounds(objects);
  const double exact =
      objects[0].region().MinSquaredDistanceTo(objects[1].region());
  const double lb = bounds.MinSquaredDistance(0, 1);
  EXPECT_LE(lb, exact);   // a lower bound on any realization distance
  EXPECT_GE(lb, exact * (1.0 - 1e-12));  // and a tight one: the box bound
  // Inside overlap there is nothing to prove.
  EXPECT_FALSE(bounds.ProvablyBeyond(0, 1, std::sqrt(exact) * 1.01));
  EXPECT_TRUE(bounds.ProvablyBeyond(0, 1, std::sqrt(exact) * 0.9));
}

// The indexed FDBSCAN sweep composes "index narrows, predicate filters":
// the evaluated pairs — and with them both pruning counters and the kernel
// work — must equal the all-pairs store-level predicate sweep's, with only
// the bound-test count dropping. The tails themselves are pinned by
// IndexedCandidateSweepMatchesPredicateSweep, so the labels built on them
// must agree across backends.
TEST(TilePolicies, FdbscanIndexedSweepCounterIdentical) {
  const auto ds = TestDataset(150, 2, 3, 113, /*min_separation=*/0.45);
  const std::size_t n = ds.size();

  Fdbscan::Params fp;
  fp.eps = 0.08;
  const auto run = [&](std::size_t budget) {
    Fdbscan algo(fp);
    algo.set_engine(BudgetEngine(budget));
    return algo.Cluster(ds, 3, 17);
  };

  const std::size_t row_bytes = n * sizeof(double);
  const int64_t all_pairs =
      static_cast<int64_t>(n) * static_cast<int64_t>(n - 1) / 2;
  const ClusteringResult dense = run(0);
  for (const std::size_t budget : {std::size_t{0}, 10 * row_bytes}) {
    const PredicateSweep ref = PredicateSweepReference(ds, fp, budget);
    const ClusteringResult indexed = run(budget);
    EXPECT_EQ(indexed.labels, dense.labels) << "budget=" << budget;
    // The exact counter identity: same pairs evaluated, same pairs
    // predicate-pruned, every pair accounted for.
    EXPECT_EQ(indexed.pair_evaluations, ref.evaluations) << budget;
    EXPECT_EQ(indexed.pairs_pruned, ref.pruned) << budget;
    EXPECT_EQ(indexed.ed_evaluations, ref.ed_evaluations) << budget;
    EXPECT_EQ(indexed.pair_evaluations + indexed.pairs_pruned, all_pairs)
        << "budget=" << budget;
    EXPECT_EQ(indexed.index_candidates + indexed.pairs_pruned_by_index,
              all_pairs)
        << "budget=" << budget;
    // The index did real narrowing on this separable dataset. (The
    // bound-cost advantage over the n*(n-1)/2 floor only materializes at
    // scale — bench_pairwise_smoke gates it at CI size.)
    EXPECT_GT(indexed.pairs_pruned_by_index, 0) << budget;
    EXPECT_GT(indexed.index_candidates, 0) << budget;
    EXPECT_GT(indexed.index_bound_tests, 0) << budget;
  }
}

// The bound the pruned sweep consults must hold for every realization pair
// the distance-probability kernel integrates over.
TEST(TilePolicies, PairwiseBoundIndexLowerBoundsSampleDistances) {
  const auto ds = TestDataset(40, 3, 3, 127);
  const engine::Engine eng;
  const uncertain::ResidentSampleStore store(ds.objects(), 16, 0x5eed, eng);
  const uncertain::SampleView cache = store.view();
  const PairwiseBoundIndex bounds(ds.objects());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = i + 1; j < ds.size(); ++j) {
      const double lb = bounds.MinSquaredDistance(i, j);
      for (int s = 0; s < cache.samples_per_object(); ++s) {
        double d2 = 0.0;
        const auto a = cache.SampleOf(i, s);
        const auto b = cache.SampleOf(j, s);
        for (std::size_t m = 0; m < a.size(); ++m) {
          const double diff = a[m] - b[m];
          d2 += diff * diff;
        }
        ASSERT_LE(lb, d2 * (1.0 + 1e-12)) << i << "," << j << " s=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
