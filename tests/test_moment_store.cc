// Moment-specific cases of the MomentStore abstraction: the fast
// algorithms cluster bit-identically on the Resident and Mapped backends at
// every thread count, and the .umom sidecar build writes the resident
// moments for any batch partition. The cases both sidecar formats
// share (format rejection, chunk sweep, reuse guard, ...) are in
// test_sidecar_store.cc.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/mmvar.h"
#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "io/moment_file.h"
#include "sidecar_test_util.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust {
namespace {

using namespace testing_util;  // NOLINT(build/namespaces)
using uncertain::MomentBackend;
using uncertain::MomentMatrix;
using uncertain::MomentStorePtr;
using uncertain::MomentView;

// Opens a forced-backend store over `path`.
MomentStorePtr OpenStore(const std::string& path, io::BackendChoice choice,
                         std::size_t chunk_rows = 0,
                         const std::string& sidecar = "") {
  io::MomentStoreOptions options;
  options.backend = choice;
  options.chunk_rows = chunk_rows;
  options.sidecar_path = sidecar;
  auto store =
      io::StreamMomentStoreFromFile(path, engine::Engine::Serial(), options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueOrDie();
}

TEST(MomentStoreTest, FastAlgorithmsBitIdenticalAcrossBackendsAndThreads) {
  const auto objects = MakeTestObjects(150, 4, /*seed=*/13);
  const std::string path = WriteTestFile("fastgroup.ubin", objects);
  const std::string sidecar = TempPath("fastgroup.umom");
  constexpr int kClusters = 5;
  constexpr uint64_t kSeed = 99;

  // The engine contract is bit-identity at FIXED block_size for any thread
  // count, so the whole sweep pins block_size and varies only num_threads.
  engine::EngineConfig one;
  one.num_threads = 1;
  one.block_size = 16;
  engine::EngineConfig two = one;
  two.num_threads = 2;
  engine::EngineConfig eight = one;
  eight.num_threads = 8;
  const engine::Engine engines[] = {engine::Engine(one), engine::Engine(two),
                                    engine::Engine(eight)};

  // Reference run: resident backend, single thread.
  const MomentStorePtr resident =
      OpenStore(path, io::BackendChoice::kResident);
  ASSERT_EQ(MomentBackend::kResident, resident->backend());
  const auto ref_ukm = clustering::Ukmeans::RunOnMoments(
      resident->view(), kClusters, kSeed, clustering::Ukmeans::Params(),
      engines[0]);
  const auto ref_mmv = clustering::Mmvar::RunOnMoments(
      resident->view(), kClusters, kSeed, clustering::Mmvar::Params(),
      engines[0]);
  const auto ref_ucpc = clustering::Ucpc::RunOnMoments(
      resident->view(), kClusters, kSeed, clustering::Ucpc::Params(),
      engines[0]);

  // Small chunks so every run crosses many chunk boundaries.
  const MomentStorePtr mapped =
      OpenStore(path, io::BackendChoice::kMapped, /*chunk_rows=*/16, sidecar);
  ASSERT_EQ(MomentBackend::kMapped, mapped->backend());

  for (const engine::Engine& eng : engines) {
    for (const auto* store : {&resident, &mapped}) {
      const MomentView view = (*store)->view();
      const auto ukm = clustering::Ukmeans::RunOnMoments(
          view, kClusters, kSeed, clustering::Ukmeans::Params(), eng);
      EXPECT_EQ(ref_ukm.labels, ukm.labels);
      EXPECT_EQ(ref_ukm.objective, ukm.objective);
      EXPECT_EQ(ref_ukm.iterations, ukm.iterations);
      const auto mmv = clustering::Mmvar::RunOnMoments(
          view, kClusters, kSeed, clustering::Mmvar::Params(), eng);
      EXPECT_EQ(ref_mmv.labels, mmv.labels);
      EXPECT_EQ(ref_mmv.objective, mmv.objective);
      const auto ucpc = clustering::Ucpc::RunOnMoments(
          view, kClusters, kSeed, clustering::Ucpc::Params(), eng);
      EXPECT_EQ(ref_ucpc.labels, ucpc.labels);
      EXPECT_EQ(ref_ucpc.objective, ucpc.objective);
    }
  }
  EXPECT_GT(mapped->moment_bytes_resident(), 0u);
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(MomentStoreTest, SpillModeMatchesResidentBuilderForAnyBatchPartition) {
  const auto objects = MakeTestObjects(53, 3, /*seed=*/31);
  const std::string path = WriteTestFile("spill.ubin", objects);
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  engine::EngineConfig threaded;
  threaded.num_threads = 3;
  threaded.block_size = 4;
  const engine::Engine engines[] = {engine::Engine::Serial(),
                                    engine::Engine(threaded)};
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{5}, std::size_t{53}, std::size_t{60}}) {
    for (const engine::Engine& eng : engines) {
      const std::string sidecar = TempPath("spill.umom");
      ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, eng,
                                         /*chunk_rows=*/8, batch)
                      .ok());
      auto store = io::MappedMomentStore::Open(sidecar);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      EXPECT_EQ(8u, store.ValueOrDie()->chunk_rows());
      ExpectMomentsBitIdentical(reference.view(), store.ValueOrDie()->view());
      std::remove(sidecar.c_str());
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uclust
