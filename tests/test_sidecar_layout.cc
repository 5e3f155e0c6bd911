// Byte-layout pin for the two chunked sidecar formats (docs/formats.md):
// a 3-object dataset built with chunk_rows = 2 (one full chunk, one short
// tail chunk) must put every header field at its documented offset and lay
// the payload out in the documented order. Round-trip tests cannot catch a
// layout change that the writer and the reader make together; this test
// reads the raw bytes, so it can.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/dataset_writer.h"
#include "io/ingest.h"
#include "io/mmap_file.h"
#include "io/sample_file.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/sample_store.h"
#include "uncertain/uniform_pdf.h"

namespace uclust {
namespace {

constexpr std::size_t kN = 3;
constexpr std::size_t kM = 2;
constexpr std::size_t kChunkRows = 2;

std::vector<uncertain::UncertainObject> LayoutObjects() {
  std::vector<uncertain::UncertainObject> objects;
  for (std::size_t i = 0; i < kN; ++i) {
    const double w = 0.75 * static_cast<double>(i) - 1.0;
    std::vector<uncertain::PdfPtr> dims;
    dims.push_back(uncertain::UniformPdf::Centered(w, 0.25 + 0.1 * i));
    dims.push_back(i == 1 ? uncertain::DiracPdf::Make(w + 2.0)
                          : uncertain::TruncatedNormalPdf::Make(-w, 0.3));
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

std::string WriteLayoutDataset(const std::string& path) {
  const auto objects = LayoutObjects();
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer.Open(path, kM, "layout", 0, /*with_labels=*/false).ok());
  for (const auto& o : objects) EXPECT_TRUE(writer.Append(o, 0).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

template <typename T>
T At(const std::vector<unsigned char>& bytes, std::size_t offset) {
  T v{};
  EXPECT_LE(offset + sizeof(T), bytes.size());
  if (offset + sizeof(T) <= bytes.size()) {
    std::memcpy(&v, bytes.data() + offset, sizeof(T));
  }
  return v;
}

// Asserts that the doubles at `offset` are bit-identical to `expected`.
void ExpectDoublesAt(const std::vector<unsigned char>& bytes,
                     std::size_t offset, std::span<const double> expected,
                     const std::string& what) {
  ASSERT_LE(offset + expected.size() * sizeof(double), bytes.size()) << what;
  EXPECT_EQ(0, std::memcmp(bytes.data() + offset, expected.data(),
                           expected.size() * sizeof(double)))
      << what << " at offset " << offset;
}

// The guard fields every sidecar records about its source dataset.
struct SourceGuard {
  uint64_t size, mtime, probe;
};

SourceGuard GuardOf(const std::string& dataset) {
  return {ReadBytes(dataset).size(), io::FileMTimeTicks(dataset),
          io::FileProbeHash(dataset)};
}

TEST(SidecarLayout, MomentSidecarBytesMatchTheSpec) {
  const std::string dataset =
      WriteLayoutDataset(::testing::TempDir() + "layout_mom.ubin");
  const std::string sidecar = ::testing::TempDir() + "layout.umom";
  ASSERT_TRUE(io::BuildMomentSidecar(dataset, sidecar,
                                     engine::Engine::Serial(), kChunkRows)
                  .ok());
  const auto bytes = ReadBytes(sidecar);
  const SourceGuard guard = GuardOf(dataset);

  EXPECT_EQ(0, std::memcmp(bytes.data(), "uclustmm", 8));
  EXPECT_EQ(0x01020304u, At<uint32_t>(bytes, 8));
  EXPECT_EQ(1u, At<uint32_t>(bytes, 12));
  EXPECT_EQ(kN, At<uint64_t>(bytes, 16));
  EXPECT_EQ(kM, At<uint64_t>(bytes, 24));
  EXPECT_EQ(kChunkRows, At<uint64_t>(bytes, 32));
  EXPECT_EQ(guard.size, At<uint64_t>(bytes, 40));
  EXPECT_EQ(guard.mtime, At<uint64_t>(bytes, 48));
  EXPECT_EQ(guard.probe, At<uint64_t>(bytes, 56));
  ASSERT_EQ(64 + (3 * kN * kM + kN) * sizeof(double), bytes.size());

  // Each chunk holds four column blocks: mean | mu2 | var | total_var.
  const auto mm = uncertain::MomentMatrix::FromObjects(LayoutObjects());
  const uncertain::MomentView v = mm.view();
  std::size_t offset = 64;
  for (std::size_t first = 0; first < kN; first += kChunkRows) {
    const std::size_t rows = std::min(kChunkRows, kN - first);
    for (int column = 0; column < 3; ++column) {
      for (std::size_t i = first; i < first + rows; ++i) {
        const auto row = column == 0   ? v.mean(i)
                         : column == 1 ? v.second_moment(i)
                                       : v.variance(i);
        ExpectDoublesAt(bytes, offset, row,
                        "column " + std::to_string(column) + " row " +
                            std::to_string(i));
        offset += kM * sizeof(double);
      }
    }
    for (std::size_t i = first; i < first + rows; ++i) {
      const double tv = v.total_variance(i);
      ExpectDoublesAt(bytes, offset, {&tv, 1},
                      "total_var row " + std::to_string(i));
      offset += sizeof(double);
    }
  }
  EXPECT_EQ(bytes.size(), offset);
  std::remove(sidecar.c_str());
  std::remove(dataset.c_str());
}

TEST(SidecarLayout, SampleSidecarBytesMatchTheSpec) {
  constexpr int kS = 3;
  constexpr uint64_t kSeed = 0x0123456789abcdefULL;
  const std::string dataset =
      WriteLayoutDataset(::testing::TempDir() + "layout_smp.ubin");
  const std::string sidecar = ::testing::TempDir() + "layout.usmp";
  ASSERT_TRUE(io::BuildSampleSidecar(dataset, sidecar, kS, kSeed,
                                     engine::Engine::Serial(), kChunkRows)
                  .ok());
  const auto bytes = ReadBytes(sidecar);
  const SourceGuard guard = GuardOf(dataset);

  EXPECT_EQ(0, std::memcmp(bytes.data(), "uclustsm", 8));
  EXPECT_EQ(0x01020304u, At<uint32_t>(bytes, 8));
  EXPECT_EQ(1u, At<uint32_t>(bytes, 12));
  EXPECT_EQ(kN, At<uint64_t>(bytes, 16));
  EXPECT_EQ(kM, At<uint64_t>(bytes, 24));
  EXPECT_EQ(static_cast<uint64_t>(kS), At<uint64_t>(bytes, 32));
  EXPECT_EQ(kChunkRows, At<uint64_t>(bytes, 40));
  EXPECT_EQ(kSeed, At<uint64_t>(bytes, 48));
  EXPECT_EQ(guard.size, At<uint64_t>(bytes, 56));
  EXPECT_EQ(guard.mtime, At<uint64_t>(bytes, 64));
  EXPECT_EQ(guard.probe, At<uint64_t>(bytes, 72));
  for (std::size_t reserved = 80; reserved < 96; ++reserved) {
    EXPECT_EQ(0, bytes[reserved]) << "reserved byte " << reserved;
  }
  const std::size_t row_doubles = kS * kM;
  ASSERT_EQ(96 + kN * row_doubles * sizeof(double), bytes.size());

  // Object-major rows of S * m doubles; chunking adds no padding.
  const uncertain::ResidentSampleStore reference(LayoutObjects(), kS, kSeed);
  for (std::size_t i = 0; i < kN; ++i) {
    ExpectDoublesAt(bytes, 96 + i * row_doubles * sizeof(double),
                    reference.view().ObjectSamples(i),
                    "object row " + std::to_string(i));
  }
  std::remove(sidecar.c_str());
  std::remove(dataset.c_str());
}

}  // namespace
}  // namespace uclust
