// Cross-thread-count determinism of the clustering stack: for a fixed seed
// and block size, labels, objectives, diagnostics, and cached samples must
// be bit-identical for num_threads in {1, 2, 8}. This is the library-wide
// engine contract (fixed block partition + ordered reductions + per-object
// rng sub-streams) that lets production deployments change parallelism
// without changing results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clustering/basic_ukmeans.h"
#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/registry.h"
#include "clustering/simd/simd.h"
#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "io/moment_file.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "determinism");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

engine::Engine EngineWith(int threads) {
  engine::EngineConfig config;
  config.num_threads = threads;
  config.block_size = 128;  // several blocks even on the small test sets
  return engine::Engine(config);
}

TEST(ParallelDeterminism, UkmeansBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(700, 4, 5, 31);
  const auto baseline = Ukmeans::RunOnMoments(ds.moments(), 5, 7,
                                              Ukmeans::Params(),
                                              EngineWith(1));
  for (int threads : kThreadCounts) {
    const auto out = Ukmeans::RunOnMoments(ds.moments(), 5, 7,
                                           Ukmeans::Params(),
                                           EngineWith(threads));
    EXPECT_EQ(out.labels, baseline.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, baseline.objective) << "threads=" << threads;
    EXPECT_EQ(out.iterations, baseline.iterations) << "threads=" << threads;
  }
}

// CK-means sweep over moment backends x thread counts: the reduced,
// bound-pruned path must reproduce the direct UK-means sweeps bit-for-bit
// whether it reduces resident columns or a chunked mapped .umom view. The
// evaluation/skip counters are a pure function of the (deterministic)
// pruning decisions, so they must be identical across threads and backends.
TEST(ParallelDeterminism, CkmeansBackendSweepBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(700, 4, 5, 31);
  const auto resident = ds.moments().view();
  const std::string sidecar = ::testing::TempDir() + "/ckmeans_sweep.umom";
  ASSERT_TRUE(io::WriteMomentFile(resident, sidecar, /*chunk_rows=*/64).ok());
  auto mapped_store = io::MappedMomentStore::Open(sidecar);
  ASSERT_TRUE(mapped_store.ok());
  const auto mapped = mapped_store.ValueOrDie()->view();
  const auto direct = Ukmeans::RunOnMoments(resident, 5, 7, Ukmeans::Params(),
                                            EngineWith(1));
  const auto serial =
      CkMeans::RunOnMoments(resident, 5, 7, CkMeans::Params(), EngineWith(1));
  for (const bool use_mapped : {false, true}) {
    for (int threads : kThreadCounts) {
      const auto out =
          CkMeans::RunOnMoments(use_mapped ? mapped : resident, 5, 7,
                                CkMeans::Params(), EngineWith(threads));
      EXPECT_EQ(out.labels, direct.labels)
          << "mapped=" << use_mapped << " threads=" << threads;
      EXPECT_EQ(out.objective, direct.objective)
          << "mapped=" << use_mapped << " threads=" << threads;
      EXPECT_EQ(out.iterations, direct.iterations)
          << "mapped=" << use_mapped << " threads=" << threads;
      EXPECT_EQ(out.center_distance_evals, serial.center_distance_evals)
          << "mapped=" << use_mapped << " threads=" << threads;
      EXPECT_EQ(out.bounds_skipped, serial.bounds_skipped)
          << "mapped=" << use_mapped << " threads=" << threads;
    }
  }
  std::remove(sidecar.c_str());
}

// The SIMD dispatch path is a second "parallelism" axis with the same
// contract as the thread count: every compiled-and-supported simd_isa,
// at every thread count, must reproduce the serial forced-scalar
// clustering bit-for-bit — labels, objective, iterations, and the
// pruning counters (which are a pure function of the identical
// distances). This is the lane-blocked accumulation guarantee of
// src/clustering/simd surfacing at the EngineConfig level.
TEST(ParallelDeterminism, SimdIsaSweepBitIdenticalAcrossThreadCounts) {
  namespace simd = clustering::simd;
  std::vector<std::string> isas;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::TableFor(isa) != nullptr) isas.push_back(simd::IsaName(isa));
  }
  const auto ds = TestDataset(700, 4, 5, 31);
  const auto with = [&](const std::string& isa, int threads) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 128;
    config.simd_isa = isa;
    return engine::Engine(config);
  };
  const CkMeans::Params p;
  const auto baseline =
      CkMeans::RunOnMoments(ds.moments(), 5, 7, p, with("scalar", 1));
  for (const std::string& isa : isas) {
    for (int threads : kThreadCounts) {
      const auto out =
          CkMeans::RunOnMoments(ds.moments(), 5, 7, p, with(isa, threads));
      EXPECT_EQ(out.labels, baseline.labels)
          << "isa=" << isa << " threads=" << threads;
      EXPECT_EQ(out.objective, baseline.objective)
          << "isa=" << isa << " threads=" << threads;
      EXPECT_EQ(out.iterations, baseline.iterations)
          << "isa=" << isa << " threads=" << threads;
      EXPECT_EQ(out.center_distance_evals, baseline.center_distance_evals)
          << "isa=" << isa << " threads=" << threads;
      EXPECT_EQ(out.bounds_skipped, baseline.bounds_skipped)
          << "isa=" << isa << " threads=" << threads;
    }
  }
  simd::ForceIsa(simd::Isa::kAuto);  // leave the process on auto dispatch
}

TEST(ParallelDeterminism, UcpcBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(600, 3, 4, 33);
  const auto baseline =
      Ucpc::RunOnMoments(ds.moments(), 4, 9, Ucpc::Params(), EngineWith(1));
  for (int threads : kThreadCounts) {
    const auto out =
        Ucpc::RunOnMoments(ds.moments(), 4, 9, Ucpc::Params(),
                           EngineWith(threads));
    EXPECT_EQ(out.labels, baseline.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, baseline.objective) << "threads=" << threads;
    EXPECT_EQ(out.passes, baseline.passes) << "threads=" << threads;
    EXPECT_EQ(out.moves, baseline.moves) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, MmvarBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(600, 3, 4, 35);
  const auto baseline =
      Mmvar::RunOnMoments(ds.moments(), 4, 11, Mmvar::Params(), EngineWith(1));
  for (int threads : kThreadCounts) {
    const auto out = Mmvar::RunOnMoments(ds.moments(), 4, 11, Mmvar::Params(),
                                         EngineWith(threads));
    EXPECT_EQ(out.labels, baseline.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, baseline.objective) << "threads=" << threads;
    EXPECT_EQ(out.passes, baseline.passes) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, ResidentSampleContentsBitIdentical) {
  const auto ds = TestDataset(300, 3, 3, 37);
  const uncertain::ResidentSampleStore serial(ds.objects(), 16, 0x5eed,
                                              EngineWith(1));
  const uncertain::SampleView sv = serial.view();
  for (int threads : kThreadCounts) {
    const uncertain::ResidentSampleStore parallel(ds.objects(), 16, 0x5eed,
                                                  EngineWith(threads));
    const uncertain::SampleView pv = parallel.view();
    ASSERT_EQ(pv.size(), sv.size());
    for (std::size_t i = 0; i < sv.size(); ++i) {
      for (int s = 0; s < sv.samples_per_object(); ++s) {
        const auto a = sv.SampleOf(i, s);
        const auto b = pv.SampleOf(i, s);
        ASSERT_EQ(std::vector<double>(a.begin(), a.end()),
                  std::vector<double>(b.begin(), b.end()))
            << "object " << i << " sample " << s << " threads=" << threads;
      }
    }
  }
}

// Regression for the latent draw-order bug class: object i's sample bytes
// must be a pure function of (pdf, seed, i, S) — never of which objects were
// materialized first or in what order. A visitation-order-dependent rng
// (e.g. one shared stream advanced per draw) would pass the thread-count
// test at num_threads=1 yet change bytes whenever the fill order changes;
// this pins the bytes against per-object draws issued in REVERSE order and
// one-object-at-a-time.
TEST(ParallelDeterminism, SampleBytesIndependentOfMaterializationOrder) {
  const auto ds = TestDataset(120, 3, 3, 47);
  const int s_per = 8;
  const uint64_t seed = 0x5eed;
  const uncertain::ResidentSampleStore store(ds.objects(), s_per, seed,
                                             EngineWith(8));
  const uncertain::SampleView view = store.view();
  const std::size_t row = static_cast<std::size_t>(s_per) * ds.dims();
  std::vector<double> out(row);
  for (std::size_t rev = ds.size(); rev-- > 0;) {
    uncertain::DrawObjectSamples(ds.object(rev), seed, rev, s_per, out);
    const auto got = view.ObjectSamples(rev);
    ASSERT_EQ(std::vector<double>(got.begin(), got.end()), out)
        << "object " << rev << " depends on materialization order";
  }
}

// Same guarantee on the mapped backend, against its chunk-fault order: a
// chunked view must serve identical bytes whether chunks are faulted
// front-to-back or back-to-front (and regardless of the window LRU state in
// between).
TEST(ParallelDeterminism, MappedSampleBytesIndependentOfFaultOrder) {
  const auto ds = TestDataset(120, 3, 3, 49);
  const uncertain::ResidentSampleStore resident(ds.objects(), 8, 0x5eed,
                                                EngineWith(1));
  const std::string sidecar =
      ::testing::TempDir() + "determinism_fault_order.usmp";
  ASSERT_TRUE(io::WriteSampleFile(resident.view(), sidecar, 0x5eed,
                                  /*chunk_rows=*/16)
                  .ok());
  auto opened = io::MappedSampleStore::Open(sidecar);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uncertain::SampleView mapped = opened.ValueOrDie()->view();
  const uncertain::SampleView flat = resident.view();
  const auto expect_row = [&](std::size_t i) {
    const auto a = flat.ObjectSamples(i);
    const auto b = mapped.ObjectSamples(i);
    ASSERT_EQ(std::vector<double>(a.begin(), a.end()),
              std::vector<double>(b.begin(), b.end()))
        << "object " << i;
  };
  for (std::size_t i = 0; i < ds.size(); ++i) expect_row(i);   // forward
  for (std::size_t i = ds.size(); i-- > 0;) expect_row(i);     // backward
  std::remove(sidecar.c_str());
}

// Sampled-workload determinism sweep: for each sampled algorithm, the
// clustering must be bit-identical across the sample backend (Resident vs
// the mmap-backed .usmp spill) and the thread count — labels, objective,
// iteration count, and both evaluation counters. Chunk-size identity is
// covered at store level (SidecarStoreTest.ChunkBoundarySweepIsBitIdentical).
// The mapped arm's budget sits between the pairwise table (60^2 doubles)
// and the sample block (60 * S * 3 doubles), so ONLY the sample backend
// flips; the pairwise store stays dense in every arm and the counters are
// comparable across the whole sweep.
TEST(ParallelDeterminism, SampledWorkloadsBitIdenticalAcrossSampleBackends) {
  const auto ds = TestDataset(60, 3, 3, 51);
  // Dense pairwise table: 60 * 60 * 8 = 28800 bytes. Smallest sample block
  // in the sweep: 60 * 24 * 3 * 8 = 34560 bytes.
  const std::size_t mapped_budget = 30000;
  const auto make = [](const std::string& name, int threads,
                       std::size_t budget) -> std::unique_ptr<Clusterer> {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    const engine::Engine eng(config);
    if (name == "UK-medoids") {
      UkMedoids::Params p;
      p.use_closed_form = false;  // the sampled fuzzy-distance mode
      auto algo = std::make_unique<UkMedoids>(p);
      algo->set_engine(eng);
      return algo;
    }
    if (name == "FDBSCAN") {
      auto algo = std::make_unique<Fdbscan>();
      algo->set_engine(eng);
      return algo;
    }
    auto algo = std::make_unique<Foptics>();
    algo->set_engine(eng);
    return algo;
  };
  for (const std::string& name :
       {std::string("UK-medoids"), std::string("FDBSCAN"),
        std::string("FOPTICS")}) {
    const ClusteringResult baseline =
        make(name, 1, 0)->Cluster(ds, 3, 13);
    EXPECT_EQ(baseline.pairwise_backend, "dense") << name;
    for (const std::size_t budget : {std::size_t{0}, mapped_budget}) {
      for (int threads : kThreadCounts) {
        const ClusteringResult out =
            make(name, threads, budget)->Cluster(ds, 3, 13);
        const std::string label = name + " budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(out.pairwise_backend, baseline.pairwise_backend) << label;
        EXPECT_EQ(out.labels, baseline.labels) << label;
        if (!std::isnan(baseline.objective)) {
          EXPECT_EQ(out.objective, baseline.objective) << label;
        }
        EXPECT_EQ(out.iterations, baseline.iterations) << label;
        EXPECT_EQ(out.ed_evaluations, baseline.ed_evaluations) << label;
        EXPECT_EQ(out.pair_evaluations, baseline.pair_evaluations) << label;
      }
    }
  }
}

// The Tiled PairwiseStore backend (engine memory budget smaller than the
// dense table) must preserve the whole-registry determinism contract:
// labels, objective, iterations, and ED evaluation counts independent of
// the thread count. The pairwise consumers (UK-medoids, UAHC, FOPTICS,
// FDBSCAN) exercise tile faulting and LRU reuse; the moment-kernel
// algorithms simply ignore the budget.
TEST(ParallelDeterminism, TiledBackendBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(140, 3, 3, 41);
  // ~10 rows of budget: far below the 140 x 140 dense table, so every
  // pairwise consumer runs tiled.
  const std::size_t budget = 10 * ds.size() * sizeof(double);
  const auto make = [&](const std::string& name, int threads) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    return MakeClustererOrDie(name, engine::Engine(config));
  };
  for (const std::string& name :
       {std::string("UK-medoids"), std::string("UAHC"),
        std::string("FOPTICS"), std::string("FDBSCAN")}) {
    const ClusteringResult baseline = make(name, 1)->Cluster(ds, 3, 13);
    EXPECT_EQ(baseline.pairwise_backend, "tiled") << name;
    for (int threads : {2, 8}) {
      const ClusteringResult out = make(name, threads)->Cluster(ds, 3, 13);
      EXPECT_EQ(out.labels, baseline.labels) << name << " threads=" << threads;
      EXPECT_EQ(out.iterations, baseline.iterations)
          << name << " threads=" << threads;
      EXPECT_EQ(out.ed_evaluations, baseline.ed_evaluations)
          << name << " threads=" << threads;
      EXPECT_EQ(out.table_bytes_peak, baseline.table_bytes_peak)
          << name << " threads=" << threads;
      if (!std::isnan(baseline.objective)) {
        EXPECT_EQ(out.objective, baseline.objective)
            << name << " threads=" << threads;
      }
    }
  }
}

// The tile policies (gather tiles, warm rows, pruned sweeps) run wherever
// the backend recomputes: every backend, at any thread count, must
// reproduce the serial dense-table clustering bit-for-bit. (Evaluation
// counts legitimately differ ACROSS backends — that is the point — but not
// across thread counts on a fixed backend.)
TEST(ParallelDeterminism, TilePoliciesBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(140, 3, 3, 43);
  const std::size_t row_bytes = ds.size() * sizeof(double);
  const auto make = [&](const std::string& name, int threads,
                        std::size_t budget) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    return MakeClustererOrDie(name, engine::Engine(config));
  };
  for (const std::string& name :
       {std::string("UK-medoids"), std::string("UAHC"),
        std::string("FDBSCAN")}) {
    const ClusteringResult baseline = make(name, 1, 0)->Cluster(ds, 3, 13);
    EXPECT_EQ(baseline.pairwise_backend, "dense") << name;
    // Dense, tiled (~10 rows), and on-the-fly (below two rows).
    for (const std::size_t budget :
         {std::size_t{0}, 10 * row_bytes, std::size_t{1}}) {
      ClusteringResult serial;
      for (int threads : {1, 2, 8}) {
        const ClusteringResult out =
            make(name, threads, budget)->Cluster(ds, 3, 13);
        EXPECT_EQ(out.labels, baseline.labels)
            << name << " threads=" << threads << " budget=" << budget;
        EXPECT_EQ(out.iterations, baseline.iterations) << name;
        if (!std::isnan(baseline.objective)) {
          EXPECT_EQ(out.objective, baseline.objective) << name;
        }
        if (threads == 1) {
          serial = out;
        } else {
          // Recompute effort itself is thread-count independent.
          EXPECT_EQ(out.pair_evaluations, serial.pair_evaluations)
              << name << " threads=" << threads << " budget=" << budget;
          EXPECT_EQ(out.tile_warm_hits, serial.tile_warm_hits) << name;
          EXPECT_EQ(out.pairs_pruned, serial.pairs_pruned) << name;
        }
      }
    }
  }
}

// The spatial index is a pure recompute optimization with the same
// contract as the tile policies. FDBSCAN sweeps its candidates on every
// backend, FOPTICS and UK-medoids only where rows are recomputed: dense
// FOPTICS reads all rows, so tiled against dense compares its indexed core
// distances with the all-rows path. Every (backend, thread count) cell must
// reproduce the serial dense clustering bit-for-bit, and the index
// counters, being pure functions of the data, must be thread-count
// independent at a fixed budget.
TEST(ParallelDeterminism, SpatialIndexBitIdenticalAcrossBackendsAndThreads) {
  const auto ds = TestDataset(140, 3, 3, 45);
  const std::size_t tiled_budget = 10 * ds.size() * sizeof(double);
  const auto make = [&](const std::string& name, int threads,
                        std::size_t budget) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    return MakeClustererOrDie(name, engine::Engine(config));
  };
  for (const std::string& name :
       {std::string("FDBSCAN"), std::string("FOPTICS"),
        std::string("UK-medoids")}) {
    const ClusteringResult dense = make(name, 1, 0)->Cluster(ds, 3, 13);
    for (const std::size_t budget : {std::size_t{0}, tiled_budget}) {
      ClusteringResult serial;
      for (int threads : kThreadCounts) {
        const ClusteringResult out =
            make(name, threads, budget)->Cluster(ds, 3, 13);
        EXPECT_EQ(out.labels, dense.labels)
            << name << " budget=" << budget << " threads=" << threads;
        EXPECT_EQ(out.iterations, dense.iterations)
            << name << " budget=" << budget << " threads=" << threads;
        if (!std::isnan(dense.objective)) {
          EXPECT_EQ(out.objective, dense.objective)
              << name << " budget=" << budget << " threads=" << threads;
        }
        if (threads == 1) {
          serial = out;
        } else {
          EXPECT_EQ(out.index_candidates, serial.index_candidates)
              << name << " budget=" << budget << " threads=" << threads;
          EXPECT_EQ(out.pairs_pruned_by_index, serial.pairs_pruned_by_index)
              << name << " budget=" << budget << " threads=" << threads;
          EXPECT_EQ(out.index_bound_tests, serial.index_bound_tests)
              << name << " budget=" << budget << " threads=" << threads;
          EXPECT_EQ(out.ed_evaluations, serial.ed_evaluations)
              << name << " budget=" << budget << " threads=" << threads;
          EXPECT_EQ(out.pair_evaluations, serial.pair_evaluations)
              << name << " budget=" << budget << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelDeterminism, EveryRegisteredAlgorithmMatchesSerial) {
  // End-to-end sweep over the registry (pruned variants, medoids, density
  // methods included): labels and objective must not depend on the thread
  // count. Small n keeps the quadratic algorithms fast.
  const auto ds = TestDataset(140, 3, 3, 39);
  for (const std::string& name : RegisteredClusterers()) {
    engine::EngineConfig serial_config;
    serial_config.num_threads = 1;
    serial_config.block_size = 32;
    const auto serial_algo =
        MakeClustererOrDie(name, engine::Engine(serial_config));
    const ClusteringResult baseline = serial_algo->Cluster(ds, 3, 13);
    for (int threads : {2, 8}) {
      engine::EngineConfig config;
      config.num_threads = threads;
      config.block_size = 32;
      const auto algo =
          MakeClustererOrDie(name, engine::Engine(config));
      const ClusteringResult out = algo->Cluster(ds, 3, 13);
      EXPECT_EQ(out.labels, baseline.labels)
          << name << " threads=" << threads;
      if (!std::isnan(baseline.objective)) {
        EXPECT_EQ(out.objective, baseline.objective)
            << name << " threads=" << threads;
      }
      EXPECT_EQ(out.iterations, baseline.iterations)
          << name << " threads=" << threads;
      EXPECT_EQ(out.ed_evaluations, baseline.ed_evaluations)
          << name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
