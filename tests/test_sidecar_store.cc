// The shared battery of the chunked-sidecar layer, typed over both formats
// (.umom moments and .usmp samples): the Mapped backend serves bytes
// bit-identical to the Resident one across chunk shapes and builder batch
// partitions, the backend follows the memory budget, sidecar reuse honors
// the staleness guard and the chunk requirement, a failed rebuild never
// destroys a valid sidecar, and every malformed header is rejected with an
// IOError instead of being mis-parsed. Format-specific cases live in
// test_moment_store.cc and test_sample_store.cc; the raw byte layout is
// pinned in test_sidecar_layout.cc.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "io/binary_format.h"
#include "io/ingest.h"
#include "io/mmap_file.h"
#include "io/moment_file.h"
#include "io/sample_file.h"
#include "io/sidecar_file.h"
#include "sidecar_test_util.h"
#include "uncertain/moment_store.h"
#include "uncertain/sample_store.h"

namespace uclust {
namespace {

using namespace testing_util;  // NOLINT(build/namespaces)
using uncertain::UncertainObject;

// One store request through a format's factory.
struct Request {
  io::BackendChoice backend = io::BackendChoice::kMapped;
  std::size_t chunk_rows = 0;
  std::string sidecar;
  bool reuse = true;
  engine::Engine eng = engine::Engine::Serial();
};

// A malformed-header case: patch `width` bytes at `offset` to `value` and
// expect an IOError whose message contains `message`.
struct Rejection {
  const char* what;
  std::size_t offset;
  uint64_t value;
  std::size_t width;
  const char* message;
};

// The rows every format shares; offsets of n (16), m (24), the endian tag
// (8) and the version (12) are common to both layouts.
std::vector<Rejection> CommonRejections(std::size_t chunk_rows_offset,
                                        uint32_t version) {
  return {
      {"bad magic", 0, 'x', 1, "bad magic"},
      {"foreign endian", 8, io::kEndianTagSwapped, 4,
       "sidecar was written on an opposite-endian machine"},
      {"corrupt endian canary", 8, 0x01010101u, 4,
       "bad endianness canary (corrupt header)"},
      {"newer version", 12, version + 7, 4, "-format version"},
      {"zero dimensions", 24, 0, 8, "header declares zero dimensions"},
      {"non-power-of-two chunk rows", chunk_rows_offset, 3, 8,
       "chunk_rows must be a power of two"},
      {"object count overflow", 16, uint64_t{1} << 62, 8,
       "header object count overflows the size check"},
  };
}

struct MomentFormat {
  using Store = uncertain::MomentStore;
  using StorePtr = uncertain::MomentStorePtr;
  using Mapped = io::MappedMomentStore;
  static constexpr const char* kName = "mom";
  static constexpr const char* kExt = ".umom";
  static constexpr std::size_t kBudgetFloorRows = 64;
  static constexpr std::size_t kSourceSizeOffset = 40;
  static const io::SidecarFormat& Format() { return io::kMomentSidecar; }

  static StorePtr Resident(const std::vector<UncertainObject>& objects) {
    return std::make_unique<uncertain::ResidentMomentStore>(
        uncertain::MomentMatrix::FromObjects(objects));
  }
  static std::size_t ResidentBytes(std::size_t n, std::size_t m) {
    return (3 * n * m + n) * sizeof(double);
  }
  static void ExpectSame(const Store& a, const Store& b) {
    ExpectMomentsBitIdentical(a.view(), b.view());
  }
  static double FirstDouble(const Store& s) { return s.view().mean(0)[0]; }
  static bool IsMapped(const Store& s) {
    return s.backend() == uncertain::MomentBackend::kMapped;
  }
  static std::size_t ChunkRows(const Store& s) {
    return s.view().chunk_rows();
  }
  static common::Status Write(const Store& s, const std::string& path,
                              std::size_t chunk_rows) {
    return io::WriteMomentFile(s.view(), path, chunk_rows);
  }
  static common::Status Build(const std::string& dataset,
                              const std::string& sidecar,
                              const engine::Engine& eng,
                              std::size_t chunk_rows, std::size_t batch) {
    return io::BuildMomentSidecar(dataset, sidecar, eng, chunk_rows, batch);
  }
  static common::Result<StorePtr> Make(const data::UncertainDataset& ds,
                                       const Request& r) {
    io::MomentStoreOptions options;
    options.backend = r.backend;
    options.chunk_rows = r.chunk_rows;
    options.sidecar_path = r.sidecar;
    options.reuse_sidecar = r.reuse;
    return io::StreamMomentStoreFromFile(ds.source_path(), r.eng, options);
  }
  static std::vector<Rejection> Rejections() {
    auto rows = CommonRejections(32, io::kMomentFormatVersion);
    rows.push_back({"dimensionality overflow", 24, uint64_t{1} << 62, 8,
                    "header dimensionality overflows the size check"});
    return rows;
  }
};

struct SampleFormat {
  using Store = uncertain::SampleStore;
  using StorePtr = uncertain::SampleStorePtr;
  using Mapped = io::MappedSampleStore;
  static constexpr const char* kName = "smp";
  static constexpr const char* kExt = ".usmp";
  static constexpr std::size_t kBudgetFloorRows = 16;
  static constexpr std::size_t kSourceSizeOffset = 56;
  static constexpr int kS = 4;
  static constexpr uint64_t kSeed = 0x5eed;
  static const io::SidecarFormat& Format() { return io::kSampleSidecar; }

  static StorePtr Resident(const std::vector<UncertainObject>& objects) {
    return std::make_unique<uncertain::ResidentSampleStore>(objects, kS,
                                                            kSeed);
  }
  static std::size_t ResidentBytes(std::size_t n, std::size_t m) {
    return n * kS * m * sizeof(double);
  }
  static void ExpectSame(const Store& a, const Store& b) {
    ExpectSamplesBitIdentical(a.view(), b.view());
  }
  static double FirstDouble(const Store& s) {
    return s.view().ObjectSamples(0)[0];
  }
  static bool IsMapped(const Store& s) {
    return s.backend() == uncertain::SampleBackend::kMapped;
  }
  static std::size_t ChunkRows(const Store& s) {
    return s.view().chunk_rows();
  }
  static common::Status Write(const Store& s, const std::string& path,
                              std::size_t chunk_rows) {
    return io::WriteSampleFile(s.view(), path, kSeed, chunk_rows);
  }
  static common::Status Build(const std::string& dataset,
                              const std::string& sidecar,
                              const engine::Engine& eng,
                              std::size_t chunk_rows, std::size_t batch) {
    return io::BuildSampleSidecar(dataset, sidecar, kS, kSeed, eng,
                                  chunk_rows, batch);
  }
  static common::Result<StorePtr> Make(const data::UncertainDataset& ds,
                                       const Request& r) {
    io::SampleStoreOptions options;
    options.backend = r.backend;
    options.chunk_rows = r.chunk_rows;
    options.sidecar_path = r.sidecar;
    options.reuse_sidecar = r.reuse;
    return io::MakeSampleStore(ds, kS, kSeed, r.eng, options);
  }
  static std::vector<Rejection> Rejections() {
    auto rows = CommonRejections(40, io::kSampleFormatVersion);
    rows.push_back({"row shape overflow", 24, uint64_t{1} << 62, 8,
                    "header row shape overflows the size check"});
    rows.push_back({"zero samples per object", 32, 0, 8,
                    "header samples_per_object out of range"});
    rows.push_back({"samples per object above INT_MAX", 32,
                    uint64_t{1} << 31, 8,
                    "header samples_per_object out of range"});
    return rows;
  }
};

template <typename F>
class SidecarStoreTest : public ::testing::Test {
 protected:
  using StorePtr = typename F::StorePtr;

  // Writes `objects` as this format's copy of dataset `stem`.
  std::string WriteDataset(const std::string& stem,
                           const std::vector<UncertainObject>& objects) {
    return WriteTestFile(std::string(F::kName) + "_" + stem + ".ubin",
                         objects);
  }
  std::string SidecarPath(const std::string& stem) {
    return TempPath(std::string(F::kName) + "_" + stem + F::kExt);
  }
  // Opens a store through the format's factory, expecting success.
  StorePtr Open(const data::UncertainDataset& ds, const Request& r) {
    auto store = F::Make(ds, r);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(store).ValueOrDie() : nullptr;
  }
  Request Mapped(const std::string& sidecar, std::size_t chunk_rows,
                 bool reuse = true) {
    Request r;
    r.sidecar = sidecar;
    r.chunk_rows = chunk_rows;
    r.reuse = reuse;
    return r;
  }
};

struct FormatNames {
  template <typename F>
  static std::string GetName(int) {
    return F::kName;
  }
};

using Formats = ::testing::Types<MomentFormat, SampleFormat>;
TYPED_TEST_SUITE(SidecarStoreTest, Formats, FormatNames);

TYPED_TEST(SidecarStoreTest, ChunkBoundarySweepIsBitIdentical) {
  // n deliberately not divisible by any chunk size; sweep chunk shapes from
  // "more chunks than the per-thread window LRU holds" (chunk_rows=1 ->
  // 97 chunks > kSidecarWindowSlots, forcing eviction + refault) to "one
  // chunk covering everything".
  const auto objects = MakeTestObjects(97, 3, /*seed=*/7);
  const auto ds = LoadDataset(this->WriteDataset("chunksweep", objects));
  const auto reference = TypeParam::Resident(objects);
  for (const std::size_t chunk_rows :
       {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{128}}) {
    const std::string sidecar =
        this->SidecarPath("chunksweep" + std::to_string(chunk_rows));
    const auto store = this->Open(ds, this->Mapped(sidecar, chunk_rows));
    ASSERT_TRUE(TypeParam::IsMapped(*store));
    EXPECT_EQ(chunk_rows, TypeParam::ChunkRows(*store));
    TypeParam::ExpectSame(*reference, *store);
    // Sequential second pass: re-faulting evicted chunks must reproduce the
    // same bytes.
    TypeParam::ExpectSame(*reference, *store);
    std::remove(sidecar.c_str());
  }
  std::remove(ds.source_path().c_str());
}

TYPED_TEST(SidecarStoreTest, SpillMatchesResidentForAnyBatchPartition) {
  const auto objects = MakeTestObjects(53, 3, /*seed=*/31);
  const std::string path = this->WriteDataset("spill", objects);
  const auto reference = TypeParam::Resident(objects);
  engine::EngineConfig threaded;
  threaded.num_threads = 3;
  threaded.block_size = 4;
  const engine::Engine engines[] = {engine::Engine::Serial(),
                                    engine::Engine(threaded)};
  const std::string sidecar = this->SidecarPath("spill");
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{5}, std::size_t{53}, std::size_t{60}}) {
    for (const engine::Engine& eng : engines) {
      ASSERT_TRUE(
          TypeParam::Build(path, sidecar, eng, /*chunk_rows=*/8, batch).ok());
      auto store = TypeParam::Mapped::Open(sidecar);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      TypeParam::ExpectSame(*reference, *store.ValueOrDie());
      // Where this build supports mmap, the windows must actually have come
      // from mmap — a silent 100% heap-read fallback would invalidate the
      // out-of-core design while passing every value check.
      EXPECT_EQ(io::MmapSupported(), store.ValueOrDie()->used_mmap());
    }
  }
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TYPED_TEST(SidecarStoreTest, WriteFileRoundTripsAnyView) {
  const auto reference =
      TypeParam::Resident(MakeTestObjects(41, 2, /*seed=*/3));
  const std::string sidecar = this->SidecarPath("roundtrip");
  ASSERT_TRUE(TypeParam::Write(*reference, sidecar, /*chunk_rows=*/4).ok());
  auto store = TypeParam::Mapped::Open(sidecar);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  TypeParam::ExpectSame(*reference, *store.ValueOrDie());

  // A chunked view is a valid source too (mapped -> file -> mapped).
  const std::string copy = this->SidecarPath("roundtrip2");
  ASSERT_TRUE(
      TypeParam::Write(*store.ValueOrDie(), copy, /*chunk_rows=*/16).ok());
  auto store2 = TypeParam::Mapped::Open(copy);
  ASSERT_TRUE(store2.ok()) << store2.status().ToString();
  TypeParam::ExpectSame(*reference, *store2.ValueOrDie());
  std::remove(copy.c_str());
  std::remove(sidecar.c_str());
}

TYPED_TEST(SidecarStoreTest, AutoBackendSelectionFollowsBudget) {
  const auto objects = MakeTestObjects(60, 3, /*seed=*/17);
  const auto ds = LoadDataset(this->WriteDataset("budget", objects));
  const std::size_t resident_bytes = TypeParam::ResidentBytes(60, 3);
  const std::string sidecar = this->SidecarPath("budget");
  for (const std::size_t budget :
       {std::size_t{0}, resident_bytes, resident_bytes - 1, std::size_t{1}}) {
    const bool mapped = budget != 0 && budget < resident_bytes;
    engine::EngineConfig config;
    config.memory_budget_bytes = budget;
    Request r = this->Mapped(sidecar, 0);
    r.backend = io::BackendChoice::kAuto;
    r.eng = engine::Engine(config);
    const auto store = this->Open(ds, r);
    EXPECT_EQ(mapped, TypeParam::IsMapped(*store)) << "budget " << budget;
    if (mapped) {
      // With no explicit chunk hint, auto-sizing bounds the per-thread
      // window cache by the budget (floored to the format's minimum here).
      EXPECT_EQ(TypeParam::kBudgetFloorRows, TypeParam::ChunkRows(*store))
          << "budget " << budget;
    }
  }
  std::remove(sidecar.c_str());
  std::remove(ds.source_path().c_str());
}

TYPED_TEST(SidecarStoreTest, SidecarReuseHonorsStalenessGuard) {
  const auto objects = MakeTestObjects(30, 2, /*seed=*/23);
  const auto ds = LoadDataset(this->WriteDataset("reuse", objects));
  const std::string sidecar = this->SidecarPath("reuse");
  const auto reference = TypeParam::Resident(objects);
  const auto open = [&](bool reuse) {
    return this->Open(ds, this->Mapped(sidecar, 8, reuse));
  };

  // First open builds the sidecar.
  TypeParam::ExpectSame(*reference, *open(true));

  // Poison one payload double in place (same size, header untouched). A
  // reusing open must serve the poisoned byte — proof it did NOT rebuild.
  const double poison = 1234.5;
  uint64_t poison_bits = 0;
  std::memcpy(&poison_bits, &poison, sizeof(poison));
  PatchFile(sidecar, TypeParam::Format().header_bytes, poison_bits);
  EXPECT_EQ(poison, TypeParam::FirstDouble(*open(true)));

  // reuse=false must rebuild and restore the true value.
  TypeParam::ExpectSame(*reference, *open(false));

  // A sidecar whose stored source size mismatches the dataset is stale:
  // rewrite the guard field and expect a silent rebuild even with reuse on.
  PatchFile(sidecar, TypeParam::kSourceSizeOffset, 1);
  PatchFile(sidecar, TypeParam::Format().header_bytes, poison_bits);
  TypeParam::ExpectSame(*reference, *open(true));
  std::remove(sidecar.c_str());
  std::remove(ds.source_path().c_str());
}

TYPED_TEST(SidecarStoreTest, SidecarReuseRespectsChunkRequirement) {
  const auto objects = MakeTestObjects(40, 2, /*seed=*/61);
  const auto ds = LoadDataset(this->WriteDataset("chunkreq", objects));
  const std::string sidecar = this->SidecarPath("chunkreq");
  const auto open = [&](std::size_t chunk_rows) {
    return this->Open(ds, this->Mapped(sidecar, chunk_rows));
  };
  // Build with 8-row chunks.
  EXPECT_EQ(8u, TypeParam::ChunkRows(*open(8)));
  // A larger requirement reuses the smaller-chunk sidecar (window memory
  // only shrinks).
  EXPECT_EQ(8u, TypeParam::ChunkRows(*open(32)));
  // A smaller requirement must rebuild: serving 8-row chunks when the
  // caller sized windows for 4 would exceed the memory bound.
  const auto rebuilt = open(4);
  EXPECT_EQ(4u, TypeParam::ChunkRows(*rebuilt));
  TypeParam::ExpectSame(*TypeParam::Resident(objects), *rebuilt);
  std::remove(sidecar.c_str());
  std::remove(ds.source_path().c_str());
}

TYPED_TEST(SidecarStoreTest, SidecarRebuiltWhenDatasetRegeneratedInPlace) {
  // Regenerating a dataset in place with fixed-size records reproduces the
  // exact byte count, and on coarse filesystems the rewrite can land in the
  // same mtime tick (this test deliberately does NOT touch timestamps) —
  // the content-probe part of the guard must catch it and force a rebuild.
  const auto objects_v1 = MakeTestObjects(24, 2, /*seed=*/51);
  const std::string path = this->WriteDataset("regen", objects_v1);
  const std::size_t v1_bytes = ReadFileBytes(path).size();
  const std::string sidecar = this->SidecarPath("regen");
  TypeParam::ExpectSame(*TypeParam::Resident(objects_v1),
                        *this->Open(LoadDataset(path),
                                    this->Mapped(sidecar, 8)));

  // Same n/m/pdf-family cycle, different seed: identical byte size, so the
  // size guard alone would wrongly reuse the v1 sidecar.
  const auto objects_v2 = MakeTestObjects(24, 2, /*seed=*/52);
  ASSERT_EQ(path, this->WriteDataset("regen", objects_v2));
  ASSERT_EQ(v1_bytes, ReadFileBytes(path).size());
  TypeParam::ExpectSame(*TypeParam::Resident(objects_v2),
                        *this->Open(LoadDataset(path),
                                    this->Mapped(sidecar, 8)));
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TYPED_TEST(SidecarStoreTest, FailedRebuildPreservesExistingSidecar) {
  const auto objects = MakeTestObjects(25, 2, /*seed=*/71);
  const std::string path = this->WriteDataset("failsafe", objects);
  const std::string sidecar = this->SidecarPath("failsafe");
  const auto reference = TypeParam::Resident(objects);
  const auto ds = LoadDataset(path);  // loaded BEFORE the corruption below
  TypeParam::ExpectSame(*reference, *this->Open(ds, this->Mapped(sidecar, 8)));

  // Corrupt the dataset so (a) the staleness probe forces a rebuild and
  // (b) that rebuild — which streams from the source file — fails
  // mid-stream: the first object's length prefix claims more bytes than
  // the file holds. The file header itself stays valid, so the failure
  // happens after the temp writer opened — exactly the dangerous window.
  PatchFile(path, kFirstRecordOffset, 0xffffffffu, 4);
  EXPECT_FALSE(TypeParam::Make(ds, this->Mapped(sidecar, 0)).ok());

  // The previously built sidecar must have survived the failed rebuild
  // intact (the rebuild goes through a temp sibling + rename).
  auto survived = TypeParam::Mapped::Open(sidecar);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  TypeParam::ExpectSame(*reference, *survived.ValueOrDie());
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TYPED_TEST(SidecarStoreTest, RejectsMalformedHeadersWithIOError) {
  const auto reference =
      TypeParam::Resident(MakeTestObjects(20, 2, /*seed=*/9));
  const std::string valid = this->SidecarPath("valid");
  const std::string sidecar = this->SidecarPath("malformed");
  ASSERT_TRUE(TypeParam::Write(*reference, valid, 0).ok());
  const std::vector<char> bytes = ReadFileBytes(valid);
  const auto expect_rejected = [&](const std::string& what,
                                   const std::string& message) {
    const auto result = TypeParam::Mapped::Open(sidecar);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(common::StatusCode::kIOError, result.status().code()) << what;
    EXPECT_NE(std::string::npos, result.status().message().find(message))
        << what << ": " << result.status().ToString();
  };

  for (const Rejection& row : TypeParam::Rejections()) {
    WriteFileBytes(sidecar, bytes);
    PatchFile(sidecar, row.offset, row.value, row.width);
    expect_rejected(row.what, row.message);
  }
  std::vector<char> truncated = bytes;
  truncated.resize(bytes.size() - 8);
  WriteFileBytes(sidecar, truncated);
  expect_rejected("truncated", "physical size does not match header");
  std::vector<char> padded = bytes;
  padded.push_back('x');
  WriteFileBytes(sidecar, padded);
  expect_rejected("padded", "physical size does not match header");
  WriteFileBytes(sidecar, std::vector<char>(10, 'x'));
  expect_rejected("shorter than a header", "file too short");
  std::remove(sidecar.c_str());
  std::remove(valid.c_str());
}

TYPED_TEST(SidecarStoreTest, NormalizeChunkRowsRoundsUpToPowersOfTwo) {
  const io::SidecarFormat& format = TypeParam::Format();
  EXPECT_EQ(format.default_chunk_rows, io::NormalizeChunkRows(format, 0));
  EXPECT_EQ(1u, io::NormalizeChunkRows(format, 1));
  EXPECT_EQ(8u, io::NormalizeChunkRows(format, 5));
  EXPECT_EQ(4096u, io::NormalizeChunkRows(format, 4096));
  EXPECT_EQ(std::size_t{1} << 20,
            io::NormalizeChunkRows(format, (std::size_t{1} << 20) + 1));
}

}  // namespace
}  // namespace uclust
