// Tests for the binary dataset format (src/io/) and the moment decoder
// every reader entry point shares: write -> read round trips reproduce
// moments bit-for-bit, moments decoded straight from the record bytes equal
// MomentMatrix::FromObjects at any batch size and thread count, the lazily
// built objects of ReadUncertainDataset match eagerly built ones however
// they are first touched, and malformed files (endianness, version, magic,
// truncation, bad pdf records) are rejected by every entry point instead of
// mis-parsed.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/fdbscan.h"
#include "clustering/registry.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "io/binary_format.h"
#include "io/dataset_reader.h"
#include "io/dataset_writer.h"
#include "io/ingest.h"
#include "io/sample_file.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

namespace uclust {
namespace {

using uncertain::MomentMatrix;
using uncertain::MomentView;
using uncertain::PdfPtr;
using uncertain::UncertainObject;

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

// A discrete pdf whose E[X^2] - E[X]^2 rounds below zero, so its variance
// is the clamped 0 (checked by ClampingFixtureReallyClamps).
PdfPtr ClampingDiscrete() {
  return std::make_shared<uncertain::DiscretePdf>(
      std::vector<double>{0.7, 0.7}, std::vector<double>{1.0, 2.0});
}

// Objects cycling through every serializable pdf family, with irregular
// parameters (non-uniform discrete weights included) and the edge cases of
// the moment formulas: a normal with non-default coverage, a one-atom
// discrete, and a variance that clamps to 0.
std::vector<UncertainObject> MakeTestObjects(std::size_t n, std::size_t m,
                                             uint64_t seed) {
  std::vector<UncertainObject> objects;
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<PdfPtr> dims;
    for (std::size_t j = 0; j < m; ++j) {
      const double w = rng.Uniform(-3.0, 3.0);
      const double scale = rng.Uniform(0.05, 0.4);
      switch ((i + j) % 8) {
        case 0:
          dims.push_back(uncertain::UniformPdf::Centered(w, scale));
          break;
        case 1:
          dims.push_back(uncertain::TruncatedNormalPdf::Make(w, scale));
          break;
        case 2:
          dims.push_back(uncertain::TruncatedExponentialPdf::Make(w, 1.0 / scale));
          break;
        case 3:
          dims.push_back(uncertain::DiracPdf::Make(w));
          break;
        case 4: {
          std::vector<double> values, weights;
          for (int s = 0; s < 4; ++s) {
            values.push_back(w + rng.Uniform(-scale, scale));
            weights.push_back(rng.Uniform(0.1, 2.0));
          }
          dims.push_back(std::make_shared<uncertain::DiscretePdf>(
              std::move(values), std::move(weights)));
          break;
        }
        case 5:
          dims.push_back(std::make_shared<uncertain::TruncatedNormalPdf>(
              w, scale, /*coverage=*/0.8));
          break;
        case 6:
          dims.push_back(uncertain::DiscretePdf::Uniformly({w}));
          break;
        default:
          dims.push_back(ClampingDiscrete());
      }
    }
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

// Writes `objects` (with labels i % 3) to a fresh file and returns its path.
std::string WriteTestFile(const std::string& file,
                          const std::vector<UncertainObject>& objects,
                          int num_classes = 3) {
  const std::string path = TempPath(file);
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer
                  .Open(path, objects[0].dims(), "io-test", num_classes,
                        /*with_labels=*/true)
                  .ok());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_TRUE(writer.Append(objects[i], static_cast<int>(i % 3)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

// Row i of `a` against row j of `b`, bit for bit.
void ExpectRowBitIdentical(const MomentView& a, std::size_t i,
                           const MomentView& b, std::size_t j) {
  const std::size_t bytes = a.dims() * sizeof(double);
  ASSERT_EQ(a.dims(), b.dims());
  ASSERT_EQ(0, std::memcmp(a.mean(i).data(), b.mean(j).data(), bytes))
      << "mean row " << i;
  ASSERT_EQ(0, std::memcmp(a.second_moment(i).data(),
                           b.second_moment(j).data(), bytes))
      << "mu2 row " << i;
  ASSERT_EQ(0, std::memcmp(a.variance(i).data(), b.variance(j).data(), bytes))
      << "var row " << i;
  ASSERT_EQ(a.total_variance(i), b.total_variance(j)) << "total var " << i;
}

void ExpectBitIdentical(const MomentView& a, const MomentView& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ExpectRowBitIdentical(a, i, b, i);
  }
}

// Batch sizes of the invariance sweeps: single rows, a size that splits
// the sets unevenly, and the default (one batch for every set here).
constexpr std::size_t kBatchSizes[] = {1, 7, 4096};

// Engines at 1, 2 and 8 threads. The engine contract is bit-identity at a
// fixed block_size for any thread count, so only the thread count varies.
std::vector<engine::Engine> ThreadSweep() {
  std::vector<engine::Engine> engines;
  for (const int threads : {1, 2, 8}) {
    engine::EngineConfig cfg;
    cfg.num_threads = threads;
    cfg.block_size = 3;
    engines.emplace_back(cfg);
  }
  return engines;
}

data::UncertainDataset LoadDataset(const std::string& path) {
  auto loaded = io::ReadUncertainDataset(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).ValueOrDie();
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
}

TEST(BinaryFormatTest, RoundTripReproducesEverythingBitIdentically) {
  const auto objects = MakeTestObjects(37, 3, /*seed=*/11);
  const std::string path = WriteTestFile("roundtrip.ubin", objects);

  auto loaded = io::ReadUncertainDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const data::UncertainDataset ds = std::move(loaded).ValueOrDie();

  EXPECT_EQ("io-test", ds.name());
  EXPECT_EQ(3, ds.num_classes());
  ASSERT_EQ(objects.size(), ds.size());
  ASSERT_EQ(objects.size(), ds.labels().size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(static_cast<int>(i % 3), ds.labels()[i]);
    const UncertainObject& a = objects[i];
    const UncertainObject& b = ds.object(i);
    ASSERT_EQ(a.dims(), b.dims());
    for (std::size_t j = 0; j < a.dims(); ++j) {
      EXPECT_STREQ(a.pdf(j).TypeName(), b.pdf(j).TypeName());
      // Bit-exact: the format stores constructor-exact parameters, so every
      // derived quantity is recomputed identically.
      EXPECT_EQ(a.mean()[j], b.mean()[j]) << "object " << i << " dim " << j;
      EXPECT_EQ(a.second_moment()[j], b.second_moment()[j]);
      EXPECT_EQ(a.variance()[j], b.variance()[j]);
      EXPECT_EQ(a.pdf(j).lower(), b.pdf(j).lower());
      EXPECT_EQ(a.pdf(j).upper(), b.pdf(j).upper());
    }
    EXPECT_EQ(a.total_variance(), b.total_variance());
  }
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, ClampingFixtureReallyClamps) {
  const PdfPtr pdf = ClampingDiscrete();
  EXPECT_LT(pdf->second_moment() - pdf->mean() * pdf->mean(), 0.0);
  EXPECT_EQ(0.0, pdf->variance());
}

TEST(BinaryFormatTest, StreamedIngestionMatchesInMemoryBuilder) {
  const auto objects = MakeTestObjects(101, 4, /*seed=*/23);
  const std::string path = WriteTestFile("streamed.ubin", objects);
  const std::string sidecar = TempPath("streamed.umom");
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  // ReadUncertainDataset decodes its moments from the record bytes and
  // builds its objects from the same bytes later; both must match.
  const data::UncertainDataset ds = LoadDataset(path);
  ExpectBitIdentical(reference, ds.moments());
  ExpectBitIdentical(reference, MomentMatrix::FromObjects(ds.objects()));

  for (const std::size_t batch : kBatchSizes) {
    for (const engine::Engine& eng : ThreadSweep()) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", threads " +
                   std::to_string(eng.num_threads()));
      std::vector<int> labels;
      auto streamed = io::StreamMomentsFromFile(path, eng, batch, &labels);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ExpectBitIdentical(reference, std::move(streamed).ValueOrDie());
      ASSERT_EQ(objects.size(), labels.size());

      io::MomentStoreOptions options;
      options.backend = io::BackendChoice::kMapped;
      options.sidecar_path = sidecar;
      options.reuse_sidecar = false;
      options.batch_size = batch;
      auto mapped = io::StreamMomentStoreFromFile(path, eng, options);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ExpectBitIdentical(reference, mapped.ValueOrDie()->view());

      io::MomentBatchStream stream(eng);
      ASSERT_TRUE(stream.Open(path).ok());
      std::size_t rows_seen = 0;
      for (;;) {
        auto got = stream.NextBatch(batch);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (got.ValueOrDie() == 0) break;
        const MomentView view = stream.batch_view();
        for (std::size_t i = 0; i < view.size(); ++i) {
          ExpectRowBitIdentical(view, i, reference, stream.base_index() + i);
        }
        rows_seen += got.ValueOrDie();
      }
      EXPECT_EQ(objects.size(), rows_seen);
    }
  }
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(MomentDecoderTest, BatchPartitionAndThreadCountInvariance) {
  const auto objects = MakeTestObjects(53, 3, /*seed=*/31);
  const std::string path = WriteTestFile("partition.ubin", objects);
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  for (const std::size_t batch : kBatchSizes) {
    // Rows land at their absolute offsets whatever the batch boundaries
    // and the thread count.
    for (const engine::Engine& eng : ThreadSweep()) {
      io::BinaryDatasetReader reader;
      ASSERT_TRUE(reader.Open(path).ok());
      io::MomentColumns cols;
      cols.Resize(objects.size(), 3);
      for (std::size_t row = 0; row < objects.size();) {
        auto got = reader.ReadMomentRows(batch, eng, &cols, row);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        row += got.ValueOrDie();
      }
      ExpectBitIdentical(
          reference, MomentMatrix::FromColumns(
                         objects.size(), 3, std::move(cols.mean),
                         std::move(cols.mu2), std::move(cols.var),
                         std::move(cols.total_var)));
    }
    // The pdf-object batches decode the same records into the same pdfs.
    io::BinaryDatasetReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    std::vector<UncertainObject> all, batch_objects;
    while (reader.remaining() > 0) {
      ASSERT_TRUE(reader.ReadBatch(batch, &batch_objects).ok());
      for (auto& o : batch_objects) all.push_back(std::move(o));
    }
    ExpectBitIdentical(reference, MomentMatrix::FromObjects(all));
  }

  // An in-memory dataset packs the same moments from its objects.
  std::vector<UncertainObject> copy = objects;
  const data::UncertainDataset ds("builder-test", std::move(copy), {}, 0);
  ExpectBitIdentical(reference, ds.moments());
  std::remove(path.c_str());
}

TEST(LazyDatasetTest, ObjectsFirstBuiltInsideFdbscanWorkersMatchEagerDataset) {
  const auto objects = MakeTestObjects(120, 3, /*seed=*/43);
  const std::string path = WriteTestFile("lazy_fdbscan.ubin", objects);
  engine::EngineConfig cfg;
  cfg.num_threads = 8;
  cfg.block_size = 4;
  // A budget below the 120 x 24 x 3 sample block: FDBSCAN's sample store is
  // a mapped .usmp drawn from the file itself, so the first object access
  // is its automatic-eps sweep inside ParallelFor workers.
  cfg.memory_budget_bytes = 16 * 1024;
  const engine::Engine eng(cfg);
  auto fdbscan = clustering::MakeClusterer("FDBSCAN", eng);
  ASSERT_TRUE(fdbscan.ok());

  const data::UncertainDataset lazy = LoadDataset(path);
  std::vector<UncertainObject> copy = objects;
  const data::UncertainDataset eager("io-test", std::move(copy),
                                     lazy.labels(), 3);
  const auto from_lazy = fdbscan.ValueOrDie()->Cluster(lazy, 0, 7);
  const auto from_eager = fdbscan.ValueOrDie()->Cluster(eager, 0, 7);
  EXPECT_EQ(from_eager.labels, from_lazy.labels);
  EXPECT_EQ(from_eager.pair_evaluations, from_lazy.pair_evaluations);
  ExpectBitIdentical(MomentMatrix::FromObjects(objects),
                     MomentMatrix::FromObjects(lazy.objects()));
  std::remove(io::DefaultSampleSidecarPath(
                  path, clustering::Fdbscan::Params().samples,
                  clustering::Fdbscan::Params().sample_seed)
                  .c_str());
  std::remove(path.c_str());
}

TEST(LazyDatasetTest, CopiesAndSubsamplesTakenBeforeFirstAccessMatchEager) {
  const auto objects = MakeTestObjects(60, 3, /*seed=*/47);
  const std::string path = WriteTestFile("lazy_copy.ubin", objects);
  const data::UncertainDataset lazy = LoadDataset(path);
  const data::UncertainDataset copy = lazy;  // before any object access
  const data::UncertainDataset sub = lazy.Subsampled(25, /*seed=*/5);

  std::vector<UncertainObject> resident = objects;
  const data::UncertainDataset eager("io-test", std::move(resident),
                                     lazy.labels(), 3);
  const data::UncertainDataset eager_sub = eager.Subsampled(25, 5);

  EXPECT_EQ(&lazy.objects(), &copy.objects());  // one shared build
  ExpectBitIdentical(MomentMatrix::FromObjects(objects),
                     MomentMatrix::FromObjects(copy.objects()));
  ASSERT_EQ(eager_sub.size(), sub.size());
  EXPECT_EQ(eager_sub.labels(), sub.labels());
  ExpectBitIdentical(eager_sub.moments(), sub.moments());
  ExpectBitIdentical(MomentMatrix::FromObjects(eager_sub.objects()),
                     MomentMatrix::FromObjects(sub.objects()));
  std::remove(path.c_str());
}

// Calls objects() from kThreads threads at once; returns the object array
// each thread got back.
constexpr int kThreads = 8;
std::vector<const UncertainObject*> ConcurrentObjects(
    const data::UncertainDataset& ds) {
  std::vector<const UncertainObject*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ds, &seen, t] { seen[t] = ds.objects().data(); });
  }
  for (std::thread& t : threads) t.join();
  return seen;
}

TEST(LazyDatasetTest, ConcurrentFirstAccessBuildsOnce) {
  const auto objects = MakeTestObjects(80, 4, /*seed=*/53);
  const std::string path = WriteTestFile("lazy_threads.ubin", objects);
  const data::UncertainDataset lazy = LoadDataset(path);
  const auto seen = ConcurrentObjects(lazy);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  ASSERT_EQ(objects.size(), lazy.objects().size());
  ExpectBitIdentical(lazy.moments(), MomentMatrix::FromObjects(lazy.objects()));
  ExpectBitIdentical(MomentMatrix::FromObjects(objects), lazy.moments());
  std::remove(path.c_str());

  // The build function runs exactly once, however many threads wait on it.
  std::atomic<int> builds{0};
  const data::UncertainDataset counted = data::UncertainDataset::Lazy(
      "counted", MomentMatrix::FromObjects(objects),
      [&builds, &objects] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return objects;
      },
      {}, 0);
  const auto counted_seen = ConcurrentObjects(counted);
  EXPECT_EQ(1, builds.load());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(counted_seen[0], counted_seen[t]);
  }
}

TEST(BinaryFormatTest, RejectsForeignEndianFiles) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("endian.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t swapped = io::kEndianTagSwapped;
  std::memcpy(bytes.data() + 8, &swapped, sizeof(swapped));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  const common::Status st = reader.Open(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("endian")) << st.ToString();
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsNewerFormatVersions) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("version.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t future = io::kFormatVersion + 41;
  std::memcpy(bytes.data() + 12, &future, sizeof(future));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  const common::Status st = reader.Open(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("version")) << st.ToString();
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsBadMagicAndShortFiles) {
  const std::string path = TempPath("magic.ubin");
  WriteFileBytes(path, std::vector<char>(128, 'x'));
  io::BinaryDatasetReader reader;
  EXPECT_FALSE(reader.Open(path).ok());

  WriteFileBytes(path, std::vector<char>(10, 'x'));
  io::BinaryDatasetReader short_reader;
  EXPECT_FALSE(short_reader.Open(path).ok());
  std::remove(path.c_str());
}

// Every entry point that reads object records must reject the file at
// `path` with a Status: the pdf-object batches, the lazy dataset read, both
// moment-store backends, and CK-means' batch stream.
void ExpectEveryEntryPointRejects(const std::string& path) {
  {
    io::BinaryDatasetReader reader;
    ASSERT_TRUE(reader.Open(path).ok());  // the header is intact
    std::vector<UncertainObject> batch;
    common::Status st;
    while (st.ok() && reader.remaining() > 0) st = reader.ReadBatch(4, &batch);
    EXPECT_FALSE(st.ok()) << "ReadBatch";
  }
  EXPECT_FALSE(io::ReadUncertainDataset(path).ok()) << "ReadUncertainDataset";
  for (const io::BackendChoice backend :
       {io::BackendChoice::kResident, io::BackendChoice::kMapped}) {
    io::MomentStoreOptions options;
    options.backend = backend;
    options.sidecar_path = path + ".umom";
    options.reuse_sidecar = false;
    EXPECT_FALSE(io::StreamMomentStoreFromFile(path, engine::Engine::Serial(),
                                               options)
                     .ok())
        << "StreamMomentStoreFromFile, mapped="
        << (backend == io::BackendChoice::kMapped);
    std::remove(options.sidecar_path.c_str());
  }
  {
    io::MomentBatchStream stream;
    ASSERT_TRUE(stream.Open(path).ok());
    common::Result<std::size_t> got = std::size_t{0};
    do {
      got = stream.NextBatch(4);
    } while (got.ok() && got.ValueOrDie() > 0);
    EXPECT_FALSE(got.ok()) << "MomentBatchStream::NextBatch";
  }
}

TEST(BinaryFormatTest, RejectsTruncatedObjectRecords) {
  const auto objects = MakeTestObjects(8, 3, /*seed=*/17);
  const std::string path = WriteTestFile("trunc.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() / 2);
  WriteFileBytes(path, bytes);
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

// Writes one single-dimension object so record offsets are computable:
// header (64) + name ("io-test", 7) + u32 payload, then the pdf record.
std::string WriteSingleObjectFile(const std::string& file, PdfPtr pdf) {
  const std::string path = TempPath(file);
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer.Open(path, 1, "io-test", 2, /*with_labels=*/true).ok());
  std::vector<PdfPtr> dims{std::move(pdf)};
  EXPECT_TRUE(writer.Append(UncertainObject(std::move(dims)), 1).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

constexpr std::size_t kRecordStart = 64 + 7;  // header + "io-test"

// Overwrites the bytes of `value` at `offset` of the file.
template <typename T>
void PatchFile(const std::string& path, std::size_t offset, T value) {
  std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_LE(offset + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  WriteFileBytes(path, bytes);
}

TEST(BinaryFormatTest, RejectsOversizedDiscreteCountWithoutAllocating) {
  const std::string path = WriteSingleObjectFile(
      "hugecount.ubin", uncertain::DiscretePdf::Uniformly({1.0, 2.0, 3.0}));
  // Record layout: u32 payload, u8 tag (kPdfDiscrete), u32 count, ... Every
  // entry point must fail with a Status — not std::bad_alloc from a ~64 GB
  // vector (which ASan would also report).
  PatchFile(path, kRecordStart + 5, uint32_t{0xffffffffu});
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsDiscreteWeightsThatDoNotSumToOne) {
  const std::string path = WriteSingleObjectFile(
      "badweights.ubin", uncertain::DiscretePdf::Uniformly({1.0, 2.0}));
  // First weight sits after payload(4) + tag(1) + count(4) + 2 values(16).
  PatchFile(path, kRecordStart + 25, 7.5);
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsDegenerateNormalHalfWidth) {
  const std::string path = WriteSingleObjectFile(
      "tinyc.ubin", uncertain::TruncatedNormalPdf::Make(0.5, 0.1));
  // Half-width field sits after payload(4) + tag(1) + mu(8) + sigma(8); a
  // sub-1e-16 value would make the truncated-variance formula emit -inf.
  PatchFile(path, kRecordStart + 21, 1e-20);
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsNonFinitePdfParameters) {
  const std::string path = WriteSingleObjectFile(
      "nan.ubin", uncertain::UniformPdf::Centered(0.5, 0.1));
  // lo sits after payload(4) + tag(1).
  PatchFile(path, kRecordStart + 5, std::numeric_limits<double>::quiet_NaN());
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsUnknownPdfTags) {
  const std::string path =
      WriteSingleObjectFile("tag.ubin", uncertain::DiracPdf::Make(0.5));
  PatchFile(path, kRecordStart + 4, uint8_t{9});
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsTrailingRecordBytes) {
  const std::string path =
      WriteSingleObjectFile("trailing.ubin", uncertain::DiracPdf::Make(0.5));
  // Grow the Dirac record (tag + x = 9 bytes) by 8 bytes the pdf record
  // does not account for, and move the labels column behind them.
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t payload = 9 + 8;
  std::memcpy(bytes.data() + kRecordStart, &payload, sizeof(payload));
  bytes.insert(bytes.begin() + kRecordStart + 4 + 9, 8, '\0');
  uint64_t labels_offset = 0;
  std::memcpy(&labels_offset, bytes.data() + 40, sizeof(labels_offset));
  labels_offset += 8;
  std::memcpy(bytes.data() + 40, &labels_offset, sizeof(labels_offset));
  WriteFileBytes(path, bytes);
  ExpectEveryEntryPointRejects(path);
  std::remove(path.c_str());
}

TEST(MomentBatchStreamTest, ReadMeanAtSkipsRecordsByLengthPrefix) {
  const auto objects = MakeTestObjects(37, 3, /*seed=*/59);
  const std::string path = WriteTestFile("meanat.ubin", objects);
  io::MomentBatchStream stream;
  ASSERT_TRUE(stream.Open(path).ok());
  std::vector<double> mean(3);
  for (const std::size_t index : {std::size_t{0}, std::size_t{18},
                                  std::size_t{36}}) {
    ASSERT_TRUE(stream.ReadMeanAt(index, mean).ok()) << index;
    EXPECT_EQ(0, std::memcmp(objects[index].mean().data(), mean.data(),
                             3 * sizeof(double)))
        << index;
  }
  EXPECT_FALSE(stream.ReadMeanAt(37, mean).ok());

  // A length prefix pointing past the end of the file fails every lookup
  // that has to skip over it, with a Status.
  std::vector<char> bytes = ReadFileBytes(path);
  uint32_t first = 0;
  std::memcpy(&first, bytes.data() + kRecordStart, sizeof(first));
  PatchFile(path, kRecordStart + 4 + first, uint32_t{0x7ffffff0u});
  io::MomentBatchStream corrupt;
  ASSERT_TRUE(corrupt.Open(path).ok());
  EXPECT_TRUE(corrupt.ReadMeanAt(0, mean).ok());
  EXPECT_FALSE(corrupt.ReadMeanAt(1, mean).ok());
  EXPECT_FALSE(corrupt.ReadMeanAt(36, mean).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsObjectCountInconsistentWithFileSize) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("hugen.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint64_t huge_n = uint64_t{1} << 40;  // far beyond the file's bytes
  std::memcpy(bytes.data() + 16, &huge_n, sizeof(huge_n));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  EXPECT_FALSE(reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsNameLengthInconsistentWithFileSize) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("hugename.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t huge_len = 0xffffffffu;
  std::memcpy(bytes.data() + 48, &huge_len, sizeof(huge_len));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  // Must fail with a Status — not a ~4 GB string allocation.
  EXPECT_FALSE(reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, ReadLabelsDoesNotDisturbBatchStreaming) {
  const auto objects = MakeTestObjects(20, 2, /*seed=*/41);
  const std::string path = WriteTestFile("labels.ubin", objects);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<UncertainObject> batch;
  ASSERT_TRUE(reader.ReadBatch(7, &batch).ok());
  ASSERT_EQ(7u, batch.size());

  std::vector<int> labels;
  ASSERT_TRUE(reader.ReadLabels(&labels).ok());  // mid-stream
  ASSERT_EQ(objects.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(static_cast<int>(i % 3), labels[i]);
  }

  std::size_t streamed = batch.size();
  while (reader.remaining() > 0) {
    ASSERT_TRUE(reader.ReadBatch(7, &batch).ok());
    for (const auto& o : batch) {
      EXPECT_EQ(objects[streamed].mean()[0], o.mean()[0]);
      ++streamed;
    }
  }
  EXPECT_EQ(objects.size(), streamed);
  std::remove(path.c_str());
}

TEST(BinaryDatasetWriterTest, ValidatesArguments) {
  io::BinaryDatasetWriter writer;
  EXPECT_FALSE(writer.Open(TempPath("bad.ubin"), 0, "x", 0, false).ok());
  EXPECT_FALSE(writer.Open(TempPath("bad.ubin"), 2, "x", 3, false).ok());

  io::BinaryDatasetWriter labeled;
  const std::string path = TempPath("validate.ubin");
  ASSERT_TRUE(labeled.Open(path, 2, "x", 2, true).ok());
  const auto objects = MakeTestObjects(2, 2, /*seed=*/3);
  EXPECT_FALSE(labeled.Append(objects[0], -1).ok());  // label required
  const auto wrong_dims = MakeTestObjects(1, 3, /*seed=*/3);
  EXPECT_FALSE(labeled.Append(wrong_dims[0], 0).ok());
  EXPECT_TRUE(labeled.Append(objects[0], 0).ok());
  EXPECT_TRUE(labeled.Append(objects[1], 1).ok());
  EXPECT_TRUE(labeled.Finish().ok());
  EXPECT_EQ(2u, labeled.written());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uclust
