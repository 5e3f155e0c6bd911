// Sample-specific cases of the SampleStore factory: reuse also requires the
// draw parameters (S and seed), temp spills self-delete, the param-encoded
// default sidecar is reused across calls, a registry-annotated sidecar pin
// is honored only when its header matches the requested (S, seed), and the
// clusterer-facing failure policy falls back to the Resident backend. The
// cases both sidecar formats share (format rejection, chunk sweep, reuse
// guard, ...) are in test_sidecar_store.cc.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "engine/engine.h"
#include "io/sample_file.h"
#include "io/sidecar_format.h"
#include "sidecar_test_util.h"
#include "uncertain/sample_store.h"

namespace uclust {
namespace {

using namespace testing_util;  // NOLINT(build/namespaces)
using uncertain::ResidentSampleStore;
using uncertain::SampleBackend;
using uncertain::SampleStorePtr;

// Opens a Mapped store over `ds`.
SampleStorePtr OpenMapped(const data::UncertainDataset& ds,
                          int samples_per_object, uint64_t seed,
                          const std::string& sidecar = "",
                          std::size_t chunk_rows = 0) {
  io::SampleStoreOptions options;
  options.backend = io::BackendChoice::kMapped;
  options.chunk_rows = chunk_rows;
  options.sidecar_path = sidecar;
  auto store = io::MakeSampleStore(ds, samples_per_object, seed,
                                   engine::Engine::Serial(), options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueOrDie();
}

TEST(SampleStoreTest, SidecarReuseRequiresDrawParameters) {
  // The reuse guard extends the moment store's with the DRAW parameters: a
  // sidecar over the right dataset but drawn with a different seed or S is
  // not the requested artifact. Poison the payload each time and prove the
  // poison does NOT survive — the store rebuilt instead of reusing.
  const auto objects = MakeTestObjects(30, 2, /*seed=*/23);
  const auto ds = LoadDataset(WriteTestFile("smp_drawparams.ubin", objects));
  const std::string sidecar = TempPath("smp_drawparams.usmp");
  const ResidentSampleStore reference(objects, 4, 0x5eed);
  {
    const SampleStorePtr store = OpenMapped(ds, 4, 0x5eed, sidecar, 8);
    ExpectSamplesBitIdentical(reference.view(), store->view());
    const auto* mapped = dynamic_cast<const io::MappedSampleStore*>(store.get());
    ASSERT_NE(nullptr, mapped);
    EXPECT_EQ(0x5eedu, mapped->seed());
  }
  const double poison = 1234.5;
  uint64_t poison_bits = 0;
  std::memcpy(&poison_bits, &poison, sizeof(poison));

  // A different master seed (offset 48).
  PatchFile(sidecar, 48, 0x5eee);
  PatchFile(sidecar, io::kSampleHeaderBytes, poison_bits);
  ExpectSamplesBitIdentical(reference.view(),
                            OpenMapped(ds, 4, 0x5eed, sidecar, 8)->view());

  // A different samples-per-object (offset 32): the size check fails for
  // the declared S, so the file is invalid and silently rebuilt.
  PatchFile(sidecar, 32, 5);
  PatchFile(sidecar, io::kSampleHeaderBytes, poison_bits);
  ExpectSamplesBitIdentical(reference.view(),
                            OpenMapped(ds, 4, 0x5eed, sidecar, 8)->view());
  std::remove(sidecar.c_str());
  std::remove(ds.source_path().c_str());
}

TEST(SampleStoreTest, TempSpillSelfDeletesWithTheStore) {
  // In-memory dataset (no source path, no annotation): the Mapped backend
  // spills into a temp .usmp that is unlinked when the store dies.
  const auto objects = MakeTestObjects(20, 2, /*seed=*/81);
  data::UncertainDataset ds("inmem", objects, {}, 0);
  const ResidentSampleStore reference(objects, 4, 0x5eed);
  std::string spill;
  {
    const SampleStorePtr store =
        OpenMapped(ds, 4, 0x5eed);
    spill = store->sidecar_path();
    ASSERT_FALSE(spill.empty());
    EXPECT_TRUE(std::filesystem::exists(spill));
    ExpectSamplesBitIdentical(reference.view(), store->view());
  }
  EXPECT_FALSE(std::filesystem::exists(spill))
      << "temp spill leaked: " << spill;
}

TEST(SampleStoreTest, DefaultSidecarIsReusedAcrossFactoryCalls) {
  // A file-backed dataset with no explicit sidecar gets the param-encoded
  // default path next to its source; a second store over the same (S, seed)
  // must reuse it. Poison proves the reuse (and distinguishes it from a
  // silent rebuild).
  const auto objects = MakeTestObjects(30, 2, /*seed=*/91);
  const std::string path = WriteTestFile("smp_default.ubin", objects);
  const auto ds = LoadDataset(path);
  const std::string sidecar = io::DefaultSampleSidecarPath(path, 4, 0x5eed);
  {
    const SampleStorePtr store =
        OpenMapped(ds, 4, 0x5eed);
    EXPECT_EQ(sidecar, store->sidecar_path());
  }
  ASSERT_TRUE(std::filesystem::exists(sidecar));
  std::vector<char> bytes = ReadFileBytes(sidecar);
  const double poison = 4321.5;
  std::memcpy(bytes.data() + io::kSampleHeaderBytes, &poison, sizeof(poison));
  WriteFileBytes(sidecar, bytes);
  {
    const SampleStorePtr store =
        OpenMapped(ds, 4, 0x5eed);
    EXPECT_EQ(poison, store->view().ObjectSamples(0)[0]);
  }
  // A different seed encodes a different default path — no churn of the
  // first sidecar.
  EXPECT_NE(sidecar, io::DefaultSampleSidecarPath(path, 4, 0x5eee));
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, AnnotatedSidecarReusedOnlyWhenHeaderMatches) {
  // A registry-annotated sidecar pins one (S, seed) artifact. A matching
  // request must reuse it in place; a mismatched request must leave the
  // pinned bytes untouched and fall through to the param-encoded default
  // path — each sampled algorithm carries a distinct default sample_seed,
  // so honoring the pin unconditionally would rebuild-overwrite the shared
  // file on every alternating job.
  const auto objects = MakeTestObjects(25, 2, /*seed=*/83);
  const std::string path = WriteTestFile("smp_annotated.ubin", objects);
  auto ds = LoadDataset(path);
  const std::string pinned = TempPath("smp_annotated_pin.usmp");
  {
    // Emit the pinned artifact with seed 0x5eed (as dataset_gen would).
    const SampleStorePtr store =
        OpenMapped(ds, 4, 0x5eed, pinned);
    EXPECT_EQ(pinned, store->sidecar_path());
  }
  ds.set_samples_sidecar_path(pinned);
  const std::vector<char> pinned_bytes = ReadFileBytes(pinned);

  {
    // Matching (S, seed): the pin is honored.
    const SampleStorePtr store =
        OpenMapped(ds, 4, 0x5eed);
    EXPECT_EQ(pinned, store->sidecar_path());
  }
  {
    // Mismatched seed: the store lands on the default sibling and the
    // pinned file survives bit-for-bit.
    const SampleStorePtr store =
        OpenMapped(ds, 4, 0x5eee);
    EXPECT_EQ(io::DefaultSampleSidecarPath(path, 4, 0x5eee),
              store->sidecar_path());
    EXPECT_EQ(pinned_bytes, ReadFileBytes(pinned));
  }
  {
    // Mismatched samples-per-object likewise.
    const SampleStorePtr store =
        OpenMapped(ds, 8, 0x5eed);
    EXPECT_EQ(io::DefaultSampleSidecarPath(path, 8, 0x5eed),
              store->sidecar_path());
    EXPECT_EQ(pinned_bytes, ReadFileBytes(pinned));
  }
  std::remove(io::DefaultSampleSidecarPath(path, 4, 0x5eee).c_str());
  std::remove(io::DefaultSampleSidecarPath(path, 8, 0x5eed).c_str());
  std::remove(pinned.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, FactoryFailureFallsBackToResident) {
  // The clusterer-facing wrapper has no status channel: a factory failure
  // (here a source annotation that cannot be stat'ed for the staleness
  // guard) must degrade to the (value-identical) Resident backend instead
  // of failing the clustering.
  const auto objects = MakeTestObjects(20, 2, /*seed=*/95);
  data::UncertainDataset ds("inmem", objects, {}, 0);
  ds.set_source_path("/nonexistent-dir/missing.ubin");
  engine::EngineConfig config;
  config.memory_budget_bytes = 1;  // forces the Mapped choice
  const SampleStorePtr store =
      io::MakeSampleStoreOrResident(ds, 4, 0x5eed, engine::Engine(config));
  ASSERT_NE(nullptr, store);
  EXPECT_EQ(SampleBackend::kResident, store->backend());
  ExpectSamplesBitIdentical(ResidentSampleStore(objects, 4, 0x5eed).view(),
                            store->view());
}

}  // namespace
}  // namespace uclust
